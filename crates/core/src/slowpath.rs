//! Slow-path bookkeeping primitives behind
//! [`EngineCore`](crate::EngineCore)'s gate preamble: in-flight gauges,
//! contended-gate accounting, and the miss-fetch instrumentation hook.

use std::fmt;
use std::sync::OnceLock;

use lrc_pagemem::PageId;
use lrc_simnet::Tally;
use lrc_vclock::ProcId;

use crate::LockCell;

/// Test/bench instrumentation: a callback the engine invokes once per miss
/// during the *fetch phase* — after the fetch plan is built and its
/// request/reply round trips are charged, before the plan is applied. At
/// that point the engine holds no shared-structure lock for the miss
/// (only the missed page's gate), so a hook that blocks or sleeps models a
/// stalled network fetch: concurrent misses on *other* pages and
/// synchronization on unrelated locks must keep flowing.
pub type FetchHook = Box<dyn Fn(ProcId, PageId) + Send + Sync>;

/// A write-once [`FetchHook`] slot with a `Debug` that does not require
/// the hook itself to implement it.
#[derive(Default)]
pub(crate) struct FetchHookCell(OnceLock<FetchHook>);

impl FetchHookCell {
    /// The installed hook, if any.
    pub(crate) fn get(&self) -> Option<&FetchHook> {
        self.0.get()
    }

    /// Installs `hook`; returns `false` if one is already installed.
    pub(crate) fn set(&self, hook: FetchHook) -> bool {
        self.0.set(hook).is_ok()
    }
}

impl fmt::Debug for FetchHookCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FetchHookCell(installed: {})", self.0.get().is_some())
    }
}

/// RAII over an in-flight gauge: [`InFlight::enter`] increments it, the
/// guard's drop decrements — so error returns and panics unwind it too.
pub(crate) struct InFlight<'a, C: Tally>(&'a C);

impl<'a, C: Tally> InFlight<'a, C> {
    /// Increments `gauge` and returns the guard plus the *pre-increment*
    /// value (how many others were already in flight).
    pub(crate) fn enter(gauge: &'a C) -> (Self, u64) {
        let others = gauge.add(1);
        (InFlight(gauge), others)
    }
}

impl<C: Tally> Drop for InFlight<'_, C> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Locks `gate`, recording in `waited` whether it was contended (a
/// try-lock probe first, so an uncontended gate costs no extra atomics).
pub(crate) fn gate_lock<'a, G: LockCell<()>>(gate: &'a G, waited: &mut bool) -> G::Guard<'a> {
    match gate.try_lock() {
        Some(guard) => guard,
        None => {
            *waited = true;
            gate.lock()
        }
    }
}

/// Settles the contention counters for one slow-path entry: a `waited`
/// entry blocked behind another slow path; an un-waited entry that
/// `overlapped` one is a wait the retired engine-wide protocol mutex
/// would have imposed.
pub(crate) fn settle_contention<C: Tally>(waited: bool, overlapped: bool, waits: &C, avoided: &C) {
    if waited {
        waits.add(1);
    } else if overlapped {
        avoided.add(1);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use parking_lot::Mutex;

    use super::*;

    #[test]
    fn inflight_gauge_counts_and_unwinds() {
        let gauge = AtomicU64::new(0);
        let (a, others) = InFlight::enter(&gauge);
        assert_eq!(others, 0);
        let (b, others) = InFlight::enter(&gauge);
        assert_eq!(others, 1);
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        drop(a);
        drop(b);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn gate_lock_reports_contention_only_when_held() {
        let gate = Mutex::new(());
        let mut waited = false;
        let guard = gate_lock(&gate, &mut waited);
        assert!(!waited);
        drop(guard);
    }

    #[test]
    fn settle_counts_at_most_one_event_per_entry() {
        let waits = AtomicU64::new(0);
        let avoided = AtomicU64::new(0);
        settle_contention(false, false, &waits, &avoided);
        settle_contention(false, true, &waits, &avoided);
        settle_contention(true, true, &waits, &avoided);
        assert_eq!(waits.load(Ordering::Relaxed), 1);
        assert_eq!(avoided.load(Ordering::Relaxed), 1);
    }

    /// The miss-gauge peak relies on `Tally::raise` in both families.
    #[test]
    fn raise_is_a_high_water_mark() {
        fn check(peak: &impl Tally) {
            peak.raise(3);
            peak.raise(1);
            assert_eq!(peak.get(), 3);
        }
        check(&AtomicU64::new(0));
        check(&std::cell::Cell::new(0));
    }

    #[test]
    fn hook_cell_installs_once() {
        let cell = FetchHookCell::default();
        assert!(cell.get().is_none());
        assert!(format!("{cell:?}").contains("installed: false"));
        assert!(cell.set(Box::new(|_, _| {})));
        assert!(!cell.set(Box::new(|_, _| {})), "second install refused");
        assert!(cell.get().is_some());
    }
}
