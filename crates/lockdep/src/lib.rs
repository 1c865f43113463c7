//! Lockdep-style lock-order verification for the workspace.
//!
//! Every `Mutex`/`RwLock`/`Condvar` in the tree routes through the offline
//! `third_party/parking_lot` stub, and the stub routes every acquisition
//! through this crate. Each lock belongs to a **class** — either an
//! explicit one from [`classes`] (name + numeric hierarchy **level**,
//! optionally a per-instance **order key**) assigned at construction with
//! `Mutex::new_in`, or an auto-class derived from the construction
//! callsite for untagged locks. At runtime each thread maintains a
//! held-lock stack, and every blocking acquisition is checked three ways:
//!
//! 1. **Level monotonicity** — an explicitly-leveled lock may only be
//!    acquired while every explicitly-leveled lock already held has a
//!    *strictly lower* level (the README's "Lock order" list, outermost
//!    first, machine-checked).
//! 2. **Same-class order** — two instances of one class may nest only if
//!    both carry order keys and they are taken in ascending key order
//!    (the rule the eager flush relies on for its page gates).
//! 3. **Cycle freedom** — each acquisition records `held-class →
//!    new-class` edges in a global graph; a blocking acquisition that
//!    closes a directed cycle of blocking edges is a potential ABBA
//!    deadlock, reported with *both* acquisition chains (the current
//!    thread's, and the recorded witness of the conflicting edge).
//!    `try_lock` records **observation** edges that never complete a
//!    cycle (a try-lock cannot block, so it cannot deadlock).
//!
//! `Condvar::wait`/`wait_for` model the release-and-reacquire: the mutex
//! leaves the held stack for the duration of the wait and is re-checked as
//! a fresh blocking acquisition on wake-up.
//!
//! # Activation
//!
//! The verifier is always compiled into the `parking_lot` stub and stays
//! inactive until `LRC_LOCKDEP=1` (or `panic`), which
//! checks and panics on the first violation, or `LRC_LOCKDEP=collect`, which
//! collects reports for [`take_violations`]. Tests can call [`set_mode`]
//! instead. Whether a lock is checked is decided once, when it is built:
//! a lock constructed while the verifier is disabled carries a null tag
//! ([`LockTag::is_tracked`] is false) and stays invisible for life, so
//! enable the verifier before building the structures under test. Such a
//! lock costs one inline tag test per acquisition, release and condvar
//! wait, and no call into this crate; a tracked lock calls [`on_acquire`]
//! and [`on_release`], which do nothing further while the mode is
//! disabled.

use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::sync::atomic::{AtomicU8, Ordering};
// The verifier guards its own registry with raw `std::sync` primitives:
// it cannot route through the `parking_lot` stub it instruments without
// recursing into itself (see the source-conformance allowlist).
use std::sync::Mutex;

pub mod classes;

/// A lock class: the unit of lock-order verification. Locks of one class
/// are interchangeable for ordering purposes; the hierarchy orders
/// classes by `level` (acquire ascending), and instances within a class
/// by their optional `order` key (acquire ascending too).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Class {
    name: &'static str,
    level: u32,
    order: Option<u64>,
}

impl Class {
    /// Defines a class at hierarchy `level` (lower = acquired earlier).
    pub const fn new(name: &'static str, level: u32) -> Class {
        Class {
            name,
            level,
            order: None,
        }
    }

    /// Attaches a per-instance order key: instances of this class may
    /// nest, but only in ascending key order.
    #[must_use]
    pub const fn with_order(mut self, order: u64) -> Class {
        self.order = Some(order);
        self
    }

    /// The class name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The hierarchy level.
    pub const fn level(&self) -> u32 {
        self.level
    }
}

/// What the verifier does when a violation is found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Off: nothing is recorded, and locks built meanwhile are untracked.
    Disabled,
    /// Panic with the full report on the first violation (CI mode).
    Panic,
    /// Collect reports for [`take_violations`] (self-test mode).
    Collect,
}

/// The kind of a detected violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Same lock acquired again by the thread already holding it.
    Reentrant,
    /// An explicitly-leveled lock acquired above an equal-or-higher level.
    Hierarchy,
    /// Two instances of one class nested without ascending order keys.
    SameClassOrder,
    /// A blocking acquisition closed a class-order cycle (potential ABBA).
    Cycle,
}

/// One detected lock-order violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Human-readable report naming the acquisition chains involved.
    pub report: String,
}

/// The per-instance tag the `parking_lot` stub stores in each lock:
/// interned class id plus level and order copied out of the [`Class`] so
/// the hot path never consults the registry. A null tag (constructed
/// while the verifier was disabled) makes every hook a no-op, and the stub
/// skips the hooks of such a lock without calling them.
#[derive(Clone, Copy, Debug)]
pub struct LockTag {
    class: u32,
    level: Option<u32>,
    order: Option<u64>,
}

const UNTAGGED: u32 = u32::MAX;

impl LockTag {
    /// The tag of a lock constructed while the verifier was disabled.
    pub const fn null() -> LockTag {
        LockTag {
            class: UNTAGGED,
            level: None,
            order: None,
        }
    }

    /// False for a null tag: the verifier ignores the lock, so the stub
    /// makes no call for it.
    pub const fn is_tracked(&self) -> bool {
        self.class != UNTAGGED
    }
}

/// The shape of one acquisition, as reported by the stub.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AcquireOp {
    /// Whether the acquisition can block (false for `try_lock`).
    pub blocking: bool,
    /// Whether the acquisition is shared (an `RwLock` read).
    pub shared: bool,
}

impl AcquireOp {
    /// A blocking exclusive acquisition (`Mutex::lock`, `RwLock::write`).
    pub const fn blocking() -> AcquireOp {
        AcquireOp {
            blocking: true,
            shared: false,
        }
    }

    /// A non-blocking probe (`Mutex::try_lock`).
    pub const fn try_lock() -> AcquireOp {
        AcquireOp {
            blocking: false,
            shared: false,
        }
    }

    /// A blocking shared acquisition (`RwLock::read`).
    pub const fn shared() -> AcquireOp {
        AcquireOp {
            blocking: true,
            shared: true,
        }
    }
}

// ---- global state ----

const MODE_UNINIT: u8 = 0;
const MODE_DISABLED: u8 = 1;
const MODE_PANIC: u8 = 2;
const MODE_COLLECT: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Interned class metadata.
struct ClassInfo {
    name: String,
    level: Option<u32>,
}

/// One recorded class-order edge `src → dst`.
struct EdgeInfo {
    /// Whether any *blocking* acquisition recorded this edge; only
    /// blocking edges participate in cycle detection.
    blocking: bool,
    /// First acquisition chain that recorded the edge, for reports.
    witness: String,
}

#[derive(Default)]
struct Registry {
    classes: Vec<ClassInfo>,
    by_name: HashMap<&'static str, u32>,
    auto_by_site: HashMap<String, u32>,
    /// Adjacency: class → (successor class → edge).
    edges: HashMap<u32, HashMap<u32, EdgeInfo>>,
    violations: Vec<Violation>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// One entry of a thread's held-lock stack.
#[derive(Clone)]
struct Held {
    class: u32,
    level: Option<u32>,
    order: Option<u64>,
    addr: usize,
    shared: bool,
    site: &'static Location<'static>,
}

#[derive(Default)]
struct ThreadState {
    held: Vec<Held>,
    /// Edges this thread already pushed to the registry, keyed by
    /// `(src, dst, blocking)` — skips the global lock on the hot path.
    seen_edges: HashSet<(u32, u32, bool)>,
}

thread_local! {
    static THREAD: std::cell::RefCell<ThreadState> =
        std::cell::RefCell::new(ThreadState::default());
}

/// The active mode, reading `LRC_LOCKDEP` on first use: unset/`0`/`off` —
/// disabled; `collect` — collect; anything else (`1`, `panic`) — panic.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        MODE_DISABLED => Mode::Disabled,
        MODE_PANIC => Mode::Panic,
        MODE_COLLECT => Mode::Collect,
        _ => {
            let parsed = match std::env::var("LRC_LOCKDEP").ok().as_deref() {
                None | Some("") | Some("0") | Some("off") => MODE_DISABLED,
                Some("collect") => MODE_COLLECT,
                Some(_) => MODE_PANIC,
            };
            // First caller wins; a concurrent set_mode() beats the env.
            let raced =
                MODE.compare_exchange(MODE_UNINIT, parsed, Ordering::Relaxed, Ordering::Relaxed);
            match raced {
                Ok(_) => decode(parsed),
                Err(current) => decode(current),
            }
        }
    }
}

fn decode(raw: u8) -> Mode {
    match raw {
        MODE_PANIC => Mode::Panic,
        MODE_COLLECT => Mode::Collect,
        _ => Mode::Disabled,
    }
}

/// Overrides the mode (tests). Locks constructed before enabling carry a
/// null tag and stay invisible to the verifier.
pub fn set_mode(mode: Mode) {
    let raw = match mode {
        Mode::Disabled => MODE_DISABLED,
        Mode::Panic => MODE_PANIC,
        Mode::Collect => MODE_COLLECT,
    };
    MODE.store(raw, Ordering::Relaxed);
}

/// Drains the violations collected in [`Mode::Collect`].
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut lock_registry().violations)
}

/// Interns `class` and returns the tag lock constructors store. Two
/// classes with one name must agree on the level (the name *is* the
/// class; the level is its position in the one shared hierarchy).
///
/// # Panics
///
/// Panics on a level conflict for an existing name — that is a
/// misconfigured hierarchy, not a runtime race.
pub fn tag_for(class: Class) -> LockTag {
    if mode() == Mode::Disabled {
        return LockTag::null();
    }
    let mut reg = lock_registry();
    let id = match reg.by_name.get(class.name) {
        Some(&id) => {
            let known = reg.classes[id as usize].level;
            assert_eq!(
                known,
                Some(class.level),
                "lockdep class `{}` redefined at a different level",
                class.name
            );
            id
        }
        None => {
            let id = reg.classes.len() as u32;
            reg.classes.push(ClassInfo {
                name: class.name.to_string(),
                level: Some(class.level),
            });
            reg.by_name.insert(class.name, id);
            id
        }
    };
    LockTag {
        class: id,
        level: Some(class.level),
        order: class.order,
    }
}

/// Interns the auto-class for an untagged lock constructed at `site`.
/// One callsite = one class (a loop building a vector of locks gets a
/// single class), with no level: auto-classes skip the hierarchy checks
/// and are covered by cycle detection alone.
pub fn auto_tag(site: &'static Location<'static>) -> LockTag {
    if mode() == Mode::Disabled {
        return LockTag::null();
    }
    let key = format!("{}:{}:{}", site.file(), site.line(), site.column());
    let mut reg = lock_registry();
    let id = match reg.auto_by_site.get(&key) {
        Some(&id) => id,
        None => {
            let id = reg.classes.len() as u32;
            reg.classes.push(ClassInfo {
                name: format!("auto[{key}]"),
                level: None,
            });
            reg.auto_by_site.insert(key, id);
            id
        }
    };
    LockTag {
        class: id,
        level: None,
        order: None,
    }
}

fn emit(kind: ViolationKind, report: String) {
    match mode() {
        Mode::Disabled => {}
        Mode::Panic => panic!("{report}"),
        Mode::Collect => {
            let mut reg = lock_registry();
            // Bounded: a hot loop re-triggering one violation must not
            // grow without limit while a test is deciding to drain.
            if reg.violations.len() < 1024 {
                reg.violations.push(Violation { kind, report });
            }
        }
    }
}

fn class_name(id: u32) -> String {
    lock_registry()
        .classes
        .get(id as usize)
        .map(|c| c.name.clone())
        .unwrap_or_else(|| format!("class#{id}"))
}

fn describe_held(held: &[Held]) -> String {
    if held.is_empty() {
        return "    (nothing held)\n".to_string();
    }
    let reg = lock_registry();
    held.iter()
        .map(|h| {
            let name = reg
                .classes
                .get(h.class as usize)
                .map(|c| c.name.as_str())
                .unwrap_or("?");
            let level = match h.level {
                Some(level) => format!(" level {level}"),
                None => String::new(),
            };
            let order = match h.order {
                Some(order) => format!(" order {order}"),
                None => String::new(),
            };
            let shared = if h.shared { ", shared" } else { "" };
            format!(
                "    - `{name}`{level}{order} (acquired at {}{shared})\n",
                h.site
            )
        })
        .collect()
}

/// Records one acquisition: level/order checks against the held stack,
/// class-order edges into the global graph, cycle detection for blocking
/// edges, then pushes the lock onto the held stack. The stub calls this
/// *before* blocking on the real lock, so a potential deadlock reports
/// instead of hanging.
pub fn on_acquire(tag: LockTag, addr: usize, site: &'static Location<'static>, op: AcquireOp) {
    if mode() == Mode::Disabled || !tag.is_tracked() {
        return;
    }
    // Copy the stack out so no RefCell borrow is live while we take the
    // registry lock or panic (a panicking emit must not poison the TLS).
    let held: Vec<Held> = THREAD.with(|t| t.borrow().held.clone());

    if let Some(prior) = held.iter().find(|h| h.addr == addr) {
        if op.shared && prior.shared {
            // A re-entrant shared read: tolerated (std semantics), and it
            // adds no ordering information.
            return;
        }
        emit(
            ViolationKind::Reentrant,
            format!(
                "lockdep: re-entrant acquisition (self-deadlock)\n  \
                 thread '{thread}' acquiring `{name}` at {site}\n  \
                 already holds the same lock (acquired at {prior_site})\n  \
                 held locks:\n{chain}",
                thread = thread_name(),
                name = class_name(tag.class),
                prior_site = prior.site,
                chain = describe_held(&held),
            ),
        );
        return;
    }

    // A try-lock cannot block, so an out-of-order probe cannot deadlock:
    // the ordering rules apply to blocking acquisitions only. The probe
    // still records observation edges and joins the held stack below.
    if op.blocking {
        for h in &held {
            if h.class == tag.class {
                let ascending = matches!(
                    (h.order, tag.order),
                    (Some(held_key), Some(new_key)) if new_key > held_key
                );
                if !ascending {
                    emit(
                        ViolationKind::SameClassOrder,
                        format!(
                            "lockdep: same-level order violation in class `{name}`\n  \
                             thread '{thread}' acquiring instance{new_key} at {site}\n  \
                             while holding instance{held_key} (acquired at {held_site})\n  \
                             instances of one class must be acquired in ascending \
                             order-key order\n  held locks:\n{chain}",
                            name = class_name(tag.class),
                            thread = thread_name(),
                            new_key = key_text(tag.order),
                            held_key = key_text(h.order),
                            held_site = h.site,
                            chain = describe_held(&held),
                        ),
                    );
                    break;
                }
            } else if let (Some(held_level), Some(new_level)) = (h.level, tag.level) {
                if new_level <= held_level {
                    emit(
                        ViolationKind::Hierarchy,
                        format!(
                            "lockdep: hierarchy-level violation\n  \
                             thread '{thread}' acquiring `{name}` (level {new_level}) at {site}\n  \
                             while holding `{held_name}` (level {held_level}, acquired at \
                             {held_site})\n  levels must be acquired in strictly ascending \
                             order — see README \"Lock-order verification\"\n  \
                             held locks:\n{chain}",
                            thread = thread_name(),
                            name = class_name(tag.class),
                            held_name = class_name(h.class),
                            held_site = h.site,
                            chain = describe_held(&held),
                        ),
                    );
                    break;
                }
            }
        }
    }

    record_edges(&held, tag, site, op);

    THREAD.with(|t| {
        t.borrow_mut().held.push(Held {
            class: tag.class,
            level: tag.level,
            order: tag.order,
            addr,
            shared: op.shared,
            site,
        })
    });
}

fn key_text(order: Option<u64>) -> String {
    match order {
        Some(key) => format!(" with order key {key}"),
        None => " without an order key".to_string(),
    }
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .unwrap_or("<unnamed>")
        .to_string()
}

/// Records `held → new` edges and, for blocking acquisitions, runs
/// incremental cycle detection over the blocking subgraph.
fn record_edges(held: &[Held], tag: LockTag, site: &'static Location<'static>, op: AcquireOp) {
    let mut fresh: Vec<u32> = Vec::new();
    THREAD.with(|t| {
        let mut state = t.borrow_mut();
        for h in held {
            if h.class == tag.class {
                continue;
            }
            if state.seen_edges.insert((h.class, tag.class, op.blocking)) {
                fresh.push(h.class);
            }
        }
    });
    if fresh.is_empty() {
        return;
    }
    fresh.sort_unstable();
    fresh.dedup();

    let mut cycle_report: Option<String> = None;
    {
        let mut reg = lock_registry();
        let mut check: Vec<u32> = Vec::new();
        for &src in &fresh {
            let witness_site = held
                .iter()
                .find(|h| h.class == src)
                .map(|h| h.site)
                .expect("edge source is held");
            let witness = format!(
                "thread '{thread}' held `{src_name}` (acquired at {witness_site}) \
                 while acquiring `{dst_name}` at {site}",
                thread = thread_name(),
                src_name = reg
                    .classes
                    .get(src as usize)
                    .map(|c| c.name.as_str())
                    .unwrap_or("?"),
                dst_name = reg
                    .classes
                    .get(tag.class as usize)
                    .map(|c| c.name.as_str())
                    .unwrap_or("?"),
            );
            let edge = reg
                .edges
                .entry(src)
                .or_default()
                .entry(tag.class)
                .or_insert(EdgeInfo {
                    blocking: false,
                    witness,
                });
            if op.blocking && !edge.blocking {
                edge.blocking = true;
                check.push(src);
            }
        }
        // A new blocking edge src → new closes a cycle iff `new` already
        // reaches src through blocking edges.
        for &src in &check {
            if let Some(path) = blocking_path(&reg, tag.class, src) {
                cycle_report = Some(render_cycle(&reg, held, tag, site, src, &path));
                break;
            }
        }
    }
    if let Some(report) = cycle_report {
        emit(ViolationKind::Cycle, report);
    }
}

/// DFS over blocking edges from `from` to `to`; returns the class path
/// `[from, ..., to]` if reachable.
fn blocking_path(reg: &Registry, from: u32, to: u32) -> Option<Vec<u32>> {
    let mut stack = vec![vec![from]];
    let mut visited = HashSet::new();
    visited.insert(from);
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("paths are non-empty");
        if last == to {
            return Some(path);
        }
        if let Some(next) = reg.edges.get(&last) {
            for (&dst, edge) in next {
                if edge.blocking && visited.insert(dst) {
                    let mut longer = path.clone();
                    longer.push(dst);
                    stack.push(longer);
                }
            }
        }
    }
    None
}

fn render_cycle(
    reg: &Registry,
    held: &[Held],
    tag: LockTag,
    site: &'static Location<'static>,
    src: u32,
    path: &[u32],
) -> String {
    let name = |id: u32| {
        reg.classes
            .get(id as usize)
            .map(|c| c.name.clone())
            .unwrap_or_else(|| format!("class#{id}"))
    };
    let mut report = format!(
        "lockdep: lock-order cycle (potential deadlock)\n  \
         thread '{thread}' acquiring `{new}` at {site}\n  \
         while holding `{held_name}`, which closes the cycle:\n",
        thread = thread_name(),
        new = name(tag.class),
        held_name = name(src),
    );
    // This thread's chain.
    let held_chain: String = held
        .iter()
        .map(|h| format!("    - `{}` (acquired at {})\n", name(h.class), h.site))
        .collect();
    report.push_str("  this acquisition chain:\n");
    report.push_str(&held_chain);
    report.push_str(&format!(
        "    - `{}` (acquiring at {site})\n",
        name(tag.class)
    ));
    // The recorded conflicting chain(s): each edge along new ⇝ src.
    report.push_str("  conflicting recorded chain:\n");
    for pair in path.windows(2) {
        if let Some(edge) = reg.edges.get(&pair[0]).and_then(|m| m.get(&pair[1])) {
            report.push_str(&format!(
                "    - `{}` -> `{}`: {}\n",
                name(pair[0]),
                name(pair[1]),
                edge.witness
            ));
        }
    }
    report
}

/// Removes the lock at `addr` from the thread's held stack (guard drop,
/// or the release half of a condvar wait). Tolerates an absent entry —
/// a guard dropped while its condvar wait already popped the lock.
pub fn on_release(addr: usize) {
    if mode() == Mode::Disabled {
        return;
    }
    // TLS may already be torn down when guards drop during thread exit.
    let _ = THREAD.try_with(|t| {
        let mut state = t.borrow_mut();
        if let Some(i) = state.held.iter().rposition(|h| h.addr == addr) {
            state.held.remove(i);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global mode/registry.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[track_caller]
    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn null_tags_are_invisible() {
        let _serial = serial();
        set_mode(Mode::Collect);
        take_violations();
        let tag = LockTag::null();
        on_acquire(tag, 1, here(), AcquireOp::blocking());
        on_acquire(tag, 1, here(), AcquireOp::blocking());
        assert!(take_violations().is_empty());
    }

    #[test]
    fn interning_is_stable_and_level_conflicts_are_refused() {
        let _serial = serial();
        set_mode(Mode::Collect);
        let a = tag_for(Class::new("unit.intern", 7));
        let b = tag_for(Class::new("unit.intern", 7).with_order(3));
        assert_eq!(a.class, b.class);
        assert_eq!(b.order, Some(3));
        let conflict = std::panic::catch_unwind(|| tag_for(Class::new("unit.intern", 8)));
        assert!(conflict.is_err(), "level conflict must panic");
    }

    #[test]
    fn auto_classes_are_per_callsite() {
        let _serial = serial();
        set_mode(Mode::Collect);
        let site_a = here();
        let site_b = here();
        let a1 = auto_tag(site_a);
        let a2 = auto_tag(site_a);
        let b = auto_tag(site_b);
        assert_eq!(a1.class, a2.class);
        assert_ne!(a1.class, b.class);
        assert_eq!(a1.level, None);
    }

    #[test]
    fn reentrant_acquisition_reports() {
        let _serial = serial();
        set_mode(Mode::Collect);
        take_violations();
        let tag = tag_for(Class::new("unit.reentrant", 11));
        on_acquire(tag, 0x10, here(), AcquireOp::blocking());
        on_acquire(tag, 0x10, here(), AcquireOp::blocking());
        let violations = take_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::Reentrant);
        assert!(violations[0].report.contains("unit.reentrant"));
        on_release(0x10);
    }

    #[test]
    fn release_tolerates_unknown_addresses() {
        let _serial = serial();
        set_mode(Mode::Collect);
        on_release(0xdead_beef);
        assert!(take_violations().is_empty());
    }
}
