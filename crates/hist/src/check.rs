//! The checker: happens-before from the recorded grant and episode
//! numbers, then the race scan, the justification scan and the witness
//! search over it.
//!
//! This is the tree's one race oracle. A trace reaches it as the history
//! its sequentially consistent run records (`lrc_sim::history_of`). A
//! history has no global order, only per-processor logs: every event gets
//! its own clock (a row of a flat matrix, counting events) and accesses
//! are found through an index by location, which also serves the
//! justification scan and stays exact on racy histories.

// The error type is deliberately rich (rendered events, expected bytes,
// blocked-frontier listings): it IS the failure report the conformance
// suites print. The Err path is cold, so the large-variant lint trades
// the wrong way here.
#![allow(clippy::result_large_err)]

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use lrc_vclock::ProcId;

use crate::{HistEvent, History};

/// Where an event sits in a history, with its rendering — the unit of
/// every diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventSite {
    /// The processor whose log holds the event.
    pub proc: ProcId,
    /// Index in that processor's log.
    pub index: usize,
    /// The rendered event.
    pub event: String,
}

impl fmt::Display for EventSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.proc, self.index, self.event)
    }
}

/// Why a history failed conformance checking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HistError {
    /// The history is not a possible recording (incomplete barrier
    /// episode, inconsistent grant order, ...). Points at a recorder or
    /// driver bug, not a protocol bug.
    Malformed(String),
    /// Two conflicting accesses are unordered by the recorded
    /// happens-before relation: the program is not properly labeled, and
    /// no consistency guarantee applies.
    Race {
        /// One access.
        first: EventSite,
        /// The other, concurrent access.
        second: EventSite,
    },
    /// A read returned bytes that differ from the happens-before-latest
    /// write visible at the reader — the LRC justification fails (§4.2:
    /// the intervals visible at the reader's last acquire do not explain
    /// the value).
    Unjustified {
        /// The offending read.
        site: EventSite,
        /// What the happens-before-latest writes say it should have seen.
        expected: Vec<u8>,
        /// What it recorded.
        got: Vec<u8>,
        /// The write that should have supplied the first differing byte,
        /// if any (`None` when the expected byte is the initial zero).
        writer: Option<EventSite>,
    },
    /// No sequentially consistent total order explains the history: the
    /// witness search exhausted every schedule compatible with program
    /// order and the synchronization edges.
    NoWitness {
        /// States the search explored before exhausting.
        explored: usize,
        /// Events scheduled in the deepest frontier reached.
        consumed: usize,
        /// Total events in the history.
        total: usize,
        /// The reads that blocked the deepest frontier (rendered).
        blocked: Vec<String>,
    },
    /// The witness search hit its state budget before finding a witness
    /// or proving none exists.
    Budget {
        /// States explored when the budget ran out.
        explored: usize,
    },
}

impl fmt::Display for HistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        match self {
            HistError::Malformed(detail) => write!(f, "malformed history: {detail}"),
            HistError::Race { first, second } => write!(
                f,
                "data race: {first} and {second} conflict but are unordered \
                 by the recorded happens-before relation"
            ),
            HistError::Unjustified {
                site,
                expected,
                got,
                writer,
            } => {
                write!(
                    f,
                    "unjustified read: {site} observed {} but the \
                     happens-before-latest writes visible at the reader say {}",
                    hex(got),
                    hex(expected),
                )?;
                match writer {
                    Some(w) => write!(f, " (expected supplier: {w})"),
                    None => write!(f, " (initial memory)"),
                }
            }
            HistError::NoWitness {
                explored,
                consumed,
                total,
                blocked,
            } => {
                write!(
                    f,
                    "no sequentially consistent witness: search exhausted after \
                     {explored} states; deepest schedule placed {consumed}/{total} \
                     events, then every runnable processor was blocked on a read:"
                )?;
                for b in blocked {
                    write!(f, "\n  {b}")?;
                }
                Ok(())
            }
            HistError::Budget { explored } => write!(
                f,
                "witness search exceeded its budget after {explored} states \
                 (raise CheckBudget::max_states)"
            ),
        }
    }
}

impl Error for HistError {}

/// Resource limits for [`History::check`].
#[derive(Clone, Copy, Debug)]
pub struct CheckBudget {
    /// Maximum states the sequential-consistency witness search may
    /// explore before giving up with [`HistError::Budget`]. Data-race-free
    /// histories need roughly one state per event; the budget only guards
    /// the backtracking that a *broken* protocol provokes.
    pub max_states: usize,
}

impl Default for CheckBudget {
    fn default() -> Self {
        CheckBudget {
            max_states: 1 << 20,
        }
    }
}

/// A sequentially consistent witness: one legal total order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Witness {
    /// The schedule, as `(processor, index-in-its-log)` in execution
    /// order.
    pub schedule: Vec<(ProcId, usize)>,
}

/// What a successful [`History::check`] establishes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckReport {
    /// Events checked.
    pub events: usize,
    /// States the witness search explored.
    pub states_explored: usize,
}

/// `(processor index, event index)` — an event's coordinates.
type Ev = (usize, usize);

/// The recorded happens-before relation, materialized: cross-processor
/// predecessor edges per event (program order stays implicit) and an
/// event-granularity clock per event.
///
/// Entry `q` of the clock of `e` counts the events of processor `q` that
/// happened before `e` (`e` itself included), so `(q, j)` happened before
/// `e` exactly when `j < clock(e)[q]`: what `e` has seen of `q` is a
/// prefix of `q`'s log. Both scans below lean on that.
struct Hb {
    preds: Vec<Vec<Vec<Ev>>>,
    /// One row of `n` entries per event, processor after processor.
    clocks: Vec<u32>,
    /// Row number of each processor's first event.
    base: Vec<usize>,
    n: usize,
}

impl Hb {
    fn clock(&self, (p, i): Ev) -> &[u32] {
        let row = (self.base[p] + i) * self.n;
        &self.clocks[row..row + self.n]
    }

    /// True if `a` happened strictly before `b`.
    fn before(&self, a: Ev, b: Ev) -> bool {
        a != b && (a.1 as u32) < self.clock(b)[a.0]
    }
}

/// `(processor, event index)` of one access covering one segment.
type Touch = (u32, u32);

/// The accesses of one kind (writes, or reads) by the segment they cover.
struct Touches {
    /// Segment `s` owns `by_segment[start[s]..start[s + 1]]`.
    start: Vec<usize>,
    /// Per segment sorted by `(processor, event index)`: one processor's
    /// accesses to a segment are contiguous and in program order.
    by_segment: Vec<Touch>,
}

impl Touches {
    /// True if no access of this kind covers segment `s`.
    fn misses(&self, s: usize) -> bool {
        self.start[s] == self.start[s + 1]
    }

    /// Where processor `q`'s accesses from event index `bound` on begin
    /// in segment `s`'s block.
    fn split(&self, s: usize, q: usize, bound: u32) -> (&[Touch], usize) {
        let block = &self.by_segment[self.start[s]..self.start[s + 1]];
        (block, block.partition_point(|&t| t < (q as u32, bound)))
    }

    /// The last access of `q` to segment `s` with an index below `bound`.
    fn last_before(&self, s: usize, q: usize, bound: u32) -> Option<Ev> {
        let (block, at) = self.split(s, q, bound);
        let &(proc, index) = block.get(at.checked_sub(1)?)?;
        (proc as usize == q).then_some((q, index as usize))
    }

    /// The first access of `q` to segment `s` with an index of at least
    /// `bound`.
    fn first_from(&self, s: usize, q: usize, bound: u32) -> Option<Ev> {
        let (block, at) = self.split(s, q, bound);
        let &(proc, index) = block.get(at)?;
        (proc as usize == q).then_some((q, index as usize))
    }
}

/// One non-empty access and the segments it covers.
struct Access {
    at: Ev,
    is_write: bool,
    segments: std::ops::Range<usize>,
}

/// Every access of a history, indexed by where it falls.
///
/// The address space is cut at every boundary of every access. Between
/// two consecutive cuts each byte is covered by exactly the same accesses,
/// so one index entry per access and *segment* stands for all those bytes
/// with nothing lost to partial overlaps (a program of aligned words has
/// one segment per word, whatever the word's length).
struct AccessIndex {
    /// Sorted, distinct access boundaries: segment `s` is the bytes
    /// `cuts[s]..cuts[s + 1]`.
    cuts: Vec<u64>,
    /// The non-empty accesses, processor after processor in log order.
    accesses: Vec<Access>,
    writes: Touches,
    reads: Touches,
    /// Memory with the gaps taken out: the segments some access covers,
    /// laid end to end. Entry `s` is where segment `s` begins there and
    /// the last entry is the length of it all. An access covers
    /// consecutive segments, so its bytes stay contiguous.
    packed: Vec<usize>,
}

impl AccessIndex {
    /// The bytes of packed memory an access covers.
    fn span(&self, access: &Access) -> std::ops::Range<usize> {
        self.packed[access.segments.start]..self.packed[access.segments.end]
    }
}

impl History {
    /// Full conformance check: the history must be data-race-free, every
    /// read must be justified by the happens-before-latest visible write,
    /// and a sequentially consistent witness order must exist.
    ///
    /// # Errors
    ///
    /// The first [`HistError`] found, in that order (a racy history fails
    /// with [`HistError::Race`] before any read is blamed).
    pub fn check(&self, budget: &CheckBudget) -> Result<CheckReport, HistError> {
        let hb = self.build_hb()?;
        let index = self.index_accesses();
        self.find_race(&hb, &index)?;
        self.justify_reads(&hb, &index)?;
        let (_, states_explored) = self.search_witness(&hb, &index, budget)?;
        Ok(CheckReport {
            events: self.len(),
            states_explored,
        })
    }

    /// Checks that the history is data-race-free under the recorded
    /// happens-before relation.
    ///
    /// Which pair is reported is a function of the history alone: `first`
    /// is the earliest access, in `(processor, log index)` order, that
    /// races with an access of a higher-numbered processor. `second` is
    /// found by taking `first`'s bytes in address order, the higher
    /// processors in order and their writes ahead of their reads, and is
    /// that processor's earliest such access to those bytes that did not
    /// happen before `first`.
    ///
    /// # Errors
    ///
    /// [`HistError::Race`] naming an unordered conflicting pair, or
    /// [`HistError::Malformed`].
    pub fn check_drf(&self) -> Result<(), HistError> {
        let hb = self.build_hb()?;
        self.find_race(&hb, &self.index_accesses())
    }

    /// Checks every read against the happens-before-latest write covering
    /// it — the LRC-specific mode: a read is justified exactly when the
    /// intervals visible at the reader's last synchronization explain its
    /// bytes. Meant for data-race-free histories (check
    /// [`History::check_drf`] first). On a racy history the "latest" write
    /// of a byte is ambiguous and the blame may fall on the wrong event;
    /// the answer is still exact and repeatable: of the visible writes
    /// that no other visible write follows, the lowest-numbered
    /// processor's supplies the byte.
    ///
    /// # Errors
    ///
    /// [`HistError::Unjustified`] for the first bad read, or
    /// [`HistError::Malformed`].
    pub fn check_justified(&self) -> Result<(), HistError> {
        let hb = self.build_hb()?;
        self.justify_reads(&hb, &self.index_accesses())
    }

    /// Searches for a sequentially consistent witness: a total order of
    /// all events respecting program order and the recorded
    /// synchronization edges in which every read returns the most recent
    /// write (or the initial zero). Backtracking explores only genuinely
    /// concurrent reorderings — everything ordered by the recorded
    /// happens-before edges is never permuted. Assumes data-race-freedom
    /// (the memoization that makes the search tractable keys states by
    /// schedule positions, which determines memory only for DRF
    /// histories).
    ///
    /// # Errors
    ///
    /// [`HistError::NoWitness`], [`HistError::Budget`], or
    /// [`HistError::Malformed`].
    pub fn sc_witness(&self, budget: &CheckBudget) -> Result<Witness, HistError> {
        let hb = self.build_hb()?;
        let (witness, _) = self.search_witness(&hb, &self.index_accesses(), budget)?;
        Ok(witness)
    }

    /// Materializes the recorded happens-before relation: per-lock grant
    /// chains (release of grant `k` precedes the acquire of grant `k+1`),
    /// barrier episodes (everything before any arrival of an episode
    /// precedes everything after any crossing of it), and program order.
    /// Also the one place that rejects an access whose range does not fit
    /// the address space, so the scans can add `addr + len` freely.
    fn build_hb(&self) -> Result<Hb, HistError> {
        let n = self.logs.len();
        let mut preds: Vec<Vec<Vec<Ev>>> = self
            .logs
            .iter()
            .map(|log| vec![Vec::new(); log.len()])
            .collect();

        // `(lock, grant, is_release, event)`: sorted, each lock's chain is
        // contiguous with every acquire ahead of the release closing it.
        let mut grants: Vec<(u32, u64, bool, Ev)> = Vec::new();
        // `(barrier, episode, event)`: sorted, each episode's arrivals are
        // contiguous, one per processor.
        let mut arrivals: Vec<(u32, u64, Ev)> = Vec::new();
        for (p, log) in self.logs.iter().enumerate() {
            for (i, ev) in log.iter().enumerate() {
                match ev {
                    HistEvent::Read { addr, value } | HistEvent::Write { addr, value } => {
                        if addr.checked_add(value.len() as u64).is_none() {
                            return Err(HistError::Malformed(format!(
                                "{}: the access ends past the last address",
                                self.site((p, i))
                            )));
                        }
                    }
                    HistEvent::Acquire { lock, grant } => {
                        grants.push((lock.raw(), *grant, false, (p, i)));
                    }
                    HistEvent::Release { lock, grant } => {
                        grants.push((lock.raw(), *grant, true, (p, i)));
                    }
                    HistEvent::Barrier { barrier, episode } => {
                        arrivals.push((barrier.raw(), *episode, (p, i)));
                    }
                    HistEvent::Crash => {}
                }
            }
        }

        grants.sort_unstable();
        for chain in grants.chunk_by(|a, b| a.0 == b.0) {
            for pair in chain.windows(2) {
                let (lock, ga, rel_a, ea) = pair[0];
                let (_, gb, rel_b, eb) = pair[1];
                match (rel_a, rel_b) {
                    // acquire(k) then release(k): must be one critical
                    // section of one processor (program order covers it).
                    (false, true) if ga == gb => {
                        if ea.0 != eb.0 {
                            return Err(HistError::Malformed(format!(
                                "lock {lock} grant {ga}: acquired by p{} but \
                                 released by p{}",
                                ea.0, eb.0
                            )));
                        }
                    }
                    // release(k) then acquire(k+1): the synchronization
                    // edge the grantor's piggybacked knowledge rides on.
                    (true, false) if gb == ga + 1 => preds[eb.0][eb.1].push(ea),
                    _ => {
                        return Err(HistError::Malformed(format!(
                            "lock {lock}: inconsistent grant order around \
                             grants {ga} and {gb}"
                        )));
                    }
                }
            }
        }

        // A processor may legitimately miss barrier episodes only if it
        // was declared dead at some point: its log then carries a Crash
        // marker (the engine completes episodes on the survivors' behalf).
        let crashed: Vec<bool> = self
            .logs
            .iter()
            .map(|log| log.iter().any(|e| matches!(e, HistEvent::Crash)))
            .collect();
        arrivals.sort_unstable();
        let mut seen = vec![false; n];
        for group in arrivals.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (barrier, episode, _) = group[0];
            seen.fill(false);
            for &(_, _, (p, _)) in group {
                if std::mem::replace(&mut seen[p], true) {
                    return Err(HistError::Malformed(format!(
                        "barrier {barrier} episode {episode}: p{p} arrived twice"
                    )));
                }
            }
            if let Some(missing) = (0..n).find(|&p| !seen[p] && !crashed[p]) {
                return Err(HistError::Malformed(format!(
                    "barrier {barrier} episode {episode}: {} arrivals for \
                     {n} processors (p{missing} missing and never crashed)",
                    group.len()
                )));
            }
            // Crossing the barrier requires every processor's pre-arrival
            // prefix; the arrivals themselves stay mutually concurrent.
            for &(_, _, (p, i)) in group {
                for &(_, _, (q, j)) in group {
                    if q != p && j > 0 {
                        preds[p][i].push((q, j - 1));
                    }
                }
            }
        }

        // Event-granularity clocks in a topological order: each processor
        // in turn runs ahead until it needs an event not yet stamped, and
        // the turns go round until a whole one stamps nothing.
        // clock(e) = join of all predecessors, own entry = index + 1.
        let mut base = Vec::with_capacity(n);
        let mut rows = 0;
        for log in &self.logs {
            base.push(rows);
            rows += log.len();
        }
        let mut clocks = vec![0u32; rows * n];
        let mut stamped = vec![0usize; n];
        loop {
            let mut progress = false;
            for p in 0..n {
                while let Some(cross) = preds[p].get(stamped[p]) {
                    if cross.iter().any(|&(q, j)| j >= stamped[q]) {
                        break;
                    }
                    let i = stamped[p];
                    let row = (base[p] + i) * n;
                    if i > 0 {
                        clocks.copy_within(row - n..row, row);
                    }
                    for &(q, j) in cross {
                        let from = (base[q] + j) * n;
                        for k in 0..n {
                            clocks[row + k] = clocks[row + k].max(clocks[from + k]);
                        }
                    }
                    clocks[row + p] = i as u32 + 1;
                    stamped[p] += 1;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        if stamped.iter().sum::<usize>() != rows {
            // Real recordings cannot produce a cycle (every edge follows
            // wall-clock order); a hand-built history can.
            return Err(HistError::Malformed(
                "happens-before graph has a cycle".to_string(),
            ));
        }
        Ok(Hb {
            preds,
            clocks,
            base,
            n,
        })
    }

    fn site(&self, (p, i): Ev) -> EventSite {
        EventSite {
            proc: ProcId::new(p as u16),
            index: i,
            event: self.logs[p][i].to_string(),
        }
    }

    /// Indexes every non-empty access by the segments it covers. Relies on
    /// [`History::build_hb`] having vetted the access ranges.
    fn index_accesses(&self) -> AccessIndex {
        let mut ranges = Vec::new();
        for (p, log) in self.logs.iter().enumerate() {
            for (i, ev) in log.iter().enumerate() {
                if let Some((addr, len @ 1.., is_write)) = ev.access() {
                    ranges.push(((p, i), is_write, addr..addr + len as u64));
                }
            }
        }

        let mut cuts: Vec<u64> = ranges
            .iter()
            .flat_map(|(_, _, bytes)| [bytes.start, bytes.end])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let accesses: Vec<Access> = ranges
            .into_iter()
            .map(|(at, is_write, bytes)| {
                let first = cuts.partition_point(|&cut| cut < bytes.start);
                let covered = cuts[first..].iter().take_while(|&&cut| cut < bytes.end);
                Access {
                    at,
                    is_write,
                    segments: first..first + covered.count(),
                }
            })
            .collect();

        // A counting sort by segment; filling in log order leaves every
        // block sorted by (processor, index).
        let touches = |of_writes: bool| {
            let wanted = || accesses.iter().filter(|a| a.is_write == of_writes);
            let mut start = vec![0usize; cuts.len().max(1)];
            for s in wanted().flat_map(|a| a.segments.clone()) {
                start[s + 1] += 1;
            }
            for s in 1..start.len() {
                start[s] += start[s - 1];
            }
            let mut next = start.clone();
            let mut by_segment = vec![(0, 0); next.pop().expect("never empty")];
            for a in wanted() {
                for s in a.segments.clone() {
                    by_segment[next[s]] = (a.at.0 as u32, a.at.1 as u32);
                    next[s] += 1;
                }
            }
            Touches { start, by_segment }
        };
        let (writes, reads) = (touches(true), touches(false));
        let mut packed = Vec::with_capacity(cuts.len().max(1));
        let mut bytes = 0;
        for (s, ends) in cuts.windows(2).enumerate() {
            packed.push(bytes);
            if !(writes.misses(s) && reads.misses(s)) {
                // Inside an access, so no longer than one.
                bytes += (ends[1] - ends[0]) as usize;
            }
        }
        packed.push(bytes);
        AccessIndex {
            writes,
            reads,
            packed,
            cuts,
            accesses,
        }
    }

    /// A conflicting, happens-before-unordered access pair, if any (see
    /// [`History::check_drf`] for which).
    fn find_race(&self, hb: &Hb, index: &AccessIndex) -> Result<(), HistError> {
        for access in &index.accesses {
            let (p, i) = access.at;
            let clock = hb.clock(access.at);
            // A write conflicts with reads too. Each racing pair is looked
            // for from its lower-numbered processor only.
            let against = [Some(&index.writes), access.is_write.then_some(&index.reads)];
            for s in access.segments.clone() {
                for (q, &seen) in clock.iter().enumerate().skip(p + 1) {
                    for touches in against.into_iter().flatten() {
                        // What this access has seen of `q` is a prefix of
                        // `q`'s log, and what has seen this access is a
                        // suffix of it (entry `p` only grows along a log).
                        // So the first of `q`'s accesses not before this
                        // one is concurrent with it, or none of them is.
                        let Some(other) = touches.first_from(s, q, seen) else {
                            continue;
                        };
                        if hb.clock(other)[p] <= i as u32 {
                            return Err(HistError::Race {
                                first: self.site(access.at),
                                second: self.site(other),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The write that supplies segment `s` to the read `r`: the
    /// happens-before-latest of the writes visible at `r`. Those of one
    /// processor are a prefix of its writes there and the last of them
    /// follows the rest, so only that one competes.
    fn supplier(&self, hb: &Hb, index: &AccessIndex, r: Ev, s: usize) -> Option<Ev> {
        let clock = hb.clock(r);
        let mut best: Option<Ev> = None;
        for (q, &seen) in clock.iter().enumerate() {
            let Some(w) = index.writes.last_before(s, q, seen) else {
                continue;
            };
            // DRF makes same-byte writes totally ordered, so one always
            // dominates.
            if best.is_none_or(|cur| hb.before(cur, w)) {
                best = Some(w);
            }
        }
        best
    }

    /// The bytes the write `w` put at `from..from + len`.
    fn written(&self, w: Ev, from: u64, len: usize) -> &[u8] {
        let HistEvent::Write { addr, value } = &self.logs[w.0][w.1] else {
            unreachable!("indexed as a write")
        };
        let at = (from - addr) as usize;
        &value[at..at + len]
    }

    /// Checks each read's bytes against the happens-before-latest write
    /// covering each byte (initial memory is zero).
    fn justify_reads(&self, hb: &Hb, index: &AccessIndex) -> Result<(), HistError> {
        for read in index.accesses.iter().filter(|a| !a.is_write) {
            let HistEvent::Read { addr, value } = &self.logs[read.at.0][read.at.1] else {
                unreachable!("indexed as a read")
            };
            // The read's own boundaries are cuts, so each of its segments
            // lies wholly inside it, and wholly inside any write that
            // covers a byte of the segment.
            let within = |s: usize| {
                let from = index.cuts[s];
                let at = (from - addr) as usize;
                (from, at..at + (index.cuts[s + 1] - from) as usize)
            };
            for s in read.segments.clone() {
                let (from, at) = within(s);
                let got = &value[at.clone()];
                let writer = self.supplier(hb, index, read.at, s);
                let justified = match writer {
                    Some(w) => self.written(w, from, at.len()) == got,
                    None => got.iter().all(|&b| b == 0),
                };
                if justified {
                    continue;
                }
                // The first bad byte lies in this segment: the earlier
                // ones matched.
                let mut expected = vec![0u8; value.len()];
                for s in read.segments.clone() {
                    let (from, at) = within(s);
                    if let Some(w) = self.supplier(hb, index, read.at, s) {
                        expected[at.clone()].copy_from_slice(self.written(w, from, at.len()));
                    }
                }
                return Err(HistError::Unjustified {
                    site: self.site(read.at),
                    expected,
                    got: value.clone(),
                    writer: writer.map(|at| self.site(at)),
                });
            }
        }
        Ok(())
    }

    /// Backtracking witness search (see [`History::sc_witness`]).
    fn search_witness(
        &self,
        hb: &Hb,
        index: &AccessIndex,
        budget: &CheckBudget,
    ) -> Result<(Witness, usize), HistError> {
        let n = self.logs.len();
        let mut search = Search {
            logs: &self.logs,
            preds: &hb.preds,
            index,
            pos: vec![0; n],
            next_access: (0..n)
                .map(|p| index.accesses.partition_point(|a| a.at.0 < p))
                .collect(),
            consumed: 0,
            total: self.len(),
            mem: vec![0; *index.packed.last().expect("never empty")],
            undo: Vec::new(),
            dead_ends: HashSet::new(),
            explored: 0,
            max_states: budget.max_states,
            schedule: Vec::with_capacity(self.len()),
            blocked: Vec::new(),
            best_consumed: 0,
            best_blocked: Vec::new(),
        };
        match search.run() {
            Found::Yes => Ok((
                Witness {
                    schedule: search.schedule,
                },
                search.explored,
            )),
            Found::Budget => Err(HistError::Budget {
                explored: search.explored,
            }),
            Found::No => Err(HistError::NoWitness {
                explored: search.explored,
                consumed: search.best_consumed,
                total: search.total,
                blocked: search.best_blocked,
            }),
        }
    }
}

/// A processor, undo-log length or blocked-read count as a frame stores
/// it.
///
/// # Panics
///
/// Panics past `u32::MAX`: a history that large could not be checked in
/// memory anyway.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("search bookkeeping fits in u32")
}

enum Found {
    Yes,
    No,
    Budget,
}

struct Search<'a> {
    logs: &'a [Vec<HistEvent>],
    preds: &'a [Vec<Vec<Ev>>],
    index: &'a AccessIndex,
    /// Events of each processor scheduled so far.
    pos: Vec<u32>,
    /// Per processor, which of [`AccessIndex::accesses`] is its first not
    /// yet scheduled: an event is a non-empty access exactly when it is
    /// that one.
    next_access: Vec<usize>,
    consumed: usize,
    total: usize,
    /// Memory under the schedule built so far, packed
    /// ([`AccessIndex::packed`]); initially zero.
    mem: Vec<u8>,
    /// The bytes the scheduled writes clobbered, oldest first. Each frame
    /// remembers how long this was before its event was applied.
    undo: Vec<u8>,
    /// Position vectors proven witness-free, entered when the search
    /// backs out of them: a state still on the stack cannot be reached
    /// again (positions only grow along a schedule), so a run that never
    /// backtracks stores none. Sound for DRF histories, where the
    /// consumed set determines memory.
    dead_ends: HashSet<Vec<u32>>,
    explored: usize,
    max_states: usize,
    /// The witness under construction, sized once: every event is
    /// scheduled exactly once.
    schedule: Vec<(ProcId, usize)>,
    /// The reads found blocked at each level of the frame stack, the
    /// deepest level's last: a level's own run starts at its frame's
    /// `blocked_from`.
    blocked: Vec<String>,
    best_consumed: usize,
    best_blocked: Vec<String>,
}

/// One level of the search: which processor to try next, where the
/// level's blocked reads start in [`Search::blocked`], and the event
/// applied to *enter* the level — its processor and the length of the
/// undo log before it. The stack is as deep as the history is long, so
/// a frame is kept to five `u32`s.
struct SearchFrame {
    next_proc: u32,
    blocked_from: u32,
    applied: Option<(u32, u32)>,
}

impl Search<'_> {
    fn ready(&self, p: usize, i: usize) -> bool {
        self.preds[p][i]
            .iter()
            .all(|&(q, j)| self.pos[q] as usize > j)
    }

    /// Where in memory event `i` of processor `p`, its next to schedule,
    /// reads or writes; `None` if it touches no byte.
    fn span(&self, p: usize, i: usize) -> Option<std::ops::Range<usize>> {
        let access = self.index.accesses.get(self.next_access[p])?;
        (access.at == (p, i)).then(|| self.index.span(access))
    }

    /// Entry bookkeeping for the state the schedule currently denotes:
    /// complete → witness; revisited → prune; over budget → stop.
    /// `None` means the state is fresh and must be expanded.
    fn enter_state(&mut self) -> Option<Found> {
        if self.consumed == self.total {
            return Some(Found::Yes);
        }
        if self.dead_ends.contains(self.pos.as_slice()) {
            return Some(Found::No);
        }
        self.explored += 1;
        if self.explored > self.max_states {
            return Some(Found::Budget);
        }
        None
    }

    /// Reverts the last scheduled event, of processor `p`, and with it
    /// the undo log back to length `mark`.
    fn revert(&mut self, p: usize, mark: usize) {
        self.schedule.pop();
        self.consumed -= 1;
        self.pos[p] -= 1;
        let event = (p, self.pos[p] as usize);
        let last = self.next_access[p].checked_sub(1);
        if let Some(access) = last.map(|a| &self.index.accesses[a]) {
            if access.at == event {
                self.next_access[p] -= 1;
                // A read clobbered nothing.
                let old = self.undo.drain(mark..);
                let at = self.index.span(access).start;
                self.mem[at..at + old.len()].copy_from_slice(old.as_slice());
            }
        }
        debug_assert_eq!(self.undo.len(), mark);
    }

    /// Depth-first search over schedules, with an explicit frame stack:
    /// the depth equals the event count, so recursion would overflow the
    /// thread stack on long recorded runs (tens of thousands of events).
    fn run(&mut self) -> Found {
        if let Some(found) = self.enter_state() {
            return found;
        }
        // One frame per scheduled event, plus the root.
        let mut stack: Vec<SearchFrame> = Vec::with_capacity(self.total + 1);
        stack.push(SearchFrame {
            next_proc: 0,
            blocked_from: 0,
            applied: None,
        });
        let logs = self.logs;
        while let Some(frame) = stack.last_mut() {
            // Find the next schedulable processor at this level.
            let mut scheduled: Option<(usize, usize)> = None;
            while (frame.next_proc as usize) < logs.len() {
                let p = frame.next_proc as usize;
                frame.next_proc += 1;
                let i = self.pos[p] as usize;
                if i >= logs[p].len() || !self.ready(p, i) {
                    continue;
                }
                let ev = &logs[p][i];
                let span = self.span(p, i);
                let mark = self.undo.len();
                match (ev, &span) {
                    (HistEvent::Read { value, .. }, Some(span)) => {
                        let holds = &self.mem[span.clone()];
                        if holds != value {
                            self.blocked.push(format!(
                                "p{p}[{i}] {ev} — memory here holds {}",
                                holds.iter().map(|b| format!("{b:02x}")).collect::<String>()
                            ));
                            continue;
                        }
                    }
                    // Apply: only writes change state; remember the clobber.
                    (HistEvent::Write { value, .. }, Some(span)) => {
                        self.undo.extend_from_slice(&self.mem[span.clone()]);
                        self.mem[span.clone()].copy_from_slice(value);
                    }
                    _ => {}
                }
                self.next_access[p] += usize::from(span.is_some());
                self.pos[p] += 1;
                self.consumed += 1;
                self.schedule.push((ProcId::new(p as u16), i));
                scheduled = Some((p, mark));
                break;
            }
            match scheduled {
                Some((p, mark)) => match self.enter_state() {
                    Some(Found::Yes) => return Found::Yes,
                    Some(Found::Budget) => return Found::Budget,
                    Some(Found::No) => self.revert(p, mark), // revisited state
                    None => stack.push(SearchFrame {
                        next_proc: 0,
                        blocked_from: narrow(self.blocked.len()),
                        applied: Some((narrow(p), narrow(mark))),
                    }),
                },
                None => {
                    // Level exhausted: keep the deepest blocked frontier
                    // for diagnostics, then backtrack.
                    let own = frame.blocked_from as usize;
                    if self.consumed >= self.best_consumed && self.blocked.len() > own {
                        self.best_consumed = self.consumed;
                        self.best_blocked = self.blocked.split_off(own);
                    }
                    self.blocked.truncate(own);
                    self.dead_ends.insert(self.pos.clone());
                    let done = stack.pop().expect("frame present");
                    if let Some((p, mark)) = done.applied {
                        self.revert(p as usize, mark as usize);
                    }
                }
            }
        }
        Found::No
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_sync::{BarrierId, LockId};

    fn read(addr: u64, v: u64) -> HistEvent {
        HistEvent::Read {
            addr,
            value: v.to_le_bytes().to_vec(),
        }
    }

    fn write(addr: u64, v: u64) -> HistEvent {
        HistEvent::Write {
            addr,
            value: v.to_le_bytes().to_vec(),
        }
    }

    fn acq(l: u32, g: u64) -> HistEvent {
        HistEvent::Acquire {
            lock: LockId::new(l),
            grant: g,
        }
    }

    fn rel(l: u32, g: u64) -> HistEvent {
        HistEvent::Release {
            lock: LockId::new(l),
            grant: g,
        }
    }

    fn bar(b: u32, e: u64) -> HistEvent {
        HistEvent::Barrier {
            barrier: BarrierId::new(b),
            episode: e,
        }
    }

    fn budget() -> CheckBudget {
        CheckBudget::default()
    }

    #[test]
    fn empty_and_single_proc_histories_pass() {
        assert!(History::from_logs(vec![]).check(&budget()).is_ok());
        let h = History::from_logs(vec![vec![write(0, 7), read(0, 7)]]);
        let report = h.check(&budget()).unwrap();
        assert_eq!(report.events, 2);
    }

    #[test]
    fn lock_protected_flow_passes_and_stale_read_fails() {
        let good = History::from_logs(vec![
            vec![acq(0, 1), write(64, 7), rel(0, 1)],
            vec![acq(0, 2), read(64, 7), rel(0, 2)],
        ]);
        good.check(&budget()).unwrap();

        let stale = History::from_logs(vec![
            vec![acq(0, 1), write(64, 7), rel(0, 1)],
            vec![acq(0, 2), read(64, 0), rel(0, 2)],
        ]);
        // The stale read is both unjustified and witness-free.
        assert!(matches!(
            stale.check(&budget()),
            Err(HistError::Unjustified { .. })
        ));
        assert!(matches!(
            stale.sc_witness(&budget()),
            Err(HistError::NoWitness { .. })
        ));
        let msg = stale.check(&budget()).unwrap_err().to_string();
        assert!(msg.contains("unjustified read"), "{msg}");
        assert!(msg.contains("p1[1]"), "{msg}");
    }

    #[test]
    fn reversed_grant_order_allows_the_old_value() {
        // p1's critical section got the FIRST grant: its read of 0 is the
        // legal, justified outcome even though p0 wrote 7 "later".
        let h = History::from_logs(vec![
            vec![acq(0, 2), write(64, 7), rel(0, 2)],
            vec![acq(0, 1), read(64, 0), rel(0, 1)],
        ]);
        h.check(&budget()).unwrap();
    }

    #[test]
    fn unsynchronized_conflicting_writes_are_a_race() {
        let h = History::from_logs(vec![vec![write(0, 1)], vec![write(0, 2)]]);
        let err = h.check(&budget()).unwrap_err();
        assert!(matches!(err, HistError::Race { .. }));
        assert!(err.to_string().contains("data race"));
        // Read/read sharing is not a race.
        let rr = History::from_logs(vec![vec![read(0, 0)], vec![read(0, 0)]]);
        rr.check(&budget()).unwrap();
        // Disjoint writes are not a race.
        let disjoint = History::from_logs(vec![vec![write(0, 1)], vec![write(8, 2)]]);
        disjoint.check(&budget()).unwrap();
    }

    #[test]
    fn barrier_orders_phases() {
        let good = History::from_logs(vec![
            vec![write(0, 5), bar(0, 0), read(8, 6)],
            vec![write(8, 6), bar(0, 0), read(0, 5)],
        ]);
        good.check(&budget()).unwrap();

        // A stale post-barrier read must be rejected regardless of how the
        // arrivals interleaved.
        let stale = History::from_logs(vec![
            vec![write(0, 5), bar(0, 0)],
            vec![bar(0, 0), read(0, 0)],
        ]);
        assert!(matches!(
            stale.check(&budget()),
            Err(HistError::Unjustified { .. })
        ));

        // Without the barrier the same logs race.
        let racy = History::from_logs(vec![vec![write(0, 5)], vec![read(0, 0)]]);
        assert!(matches!(racy.check(&budget()), Err(HistError::Race { .. })));
    }

    #[test]
    fn overlapping_partial_write_justifies_bytewise() {
        // p0 writes 8 bytes under the lock; p1 overwrites one byte in a
        // later section; p2 reads the merge.
        let h = History::from_logs(vec![
            vec![acq(0, 1), write(0, 0x0807_0605_0403_0201), rel(0, 1)],
            vec![
                acq(0, 2),
                HistEvent::Write {
                    addr: 2,
                    value: vec![0xff],
                },
                rel(0, 2),
            ],
            vec![acq(0, 3), read(0, 0x0807_0605_04ff_0201), rel(0, 3)],
        ]);
        h.check(&budget()).unwrap();
    }

    #[test]
    fn malformed_histories_are_reported() {
        // Incomplete barrier episode (2 procs, 1 arrival).
        let h = History::from_logs(vec![vec![bar(0, 0)], vec![]]);
        assert!(matches!(h.check(&budget()), Err(HistError::Malformed(_))));
        // Release by a processor that never acquired the grant.
        let h = History::from_logs(vec![vec![acq(0, 1)], vec![rel(0, 1)]]);
        let err = h.check(&budget()).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
        // Gap in the grant order.
        let h = History::from_logs(vec![vec![acq(0, 1), rel(0, 1)], vec![acq(0, 3), rel(0, 3)]]);
        assert!(matches!(h.check(&budget()), Err(HistError::Malformed(_))));
    }

    #[test]
    fn crashed_proc_is_excused_from_missed_barrier_episodes() {
        // p1 dies after episode 0; p0 completes episode 1 alone. The
        // Crash marker in p1's log excuses its missing arrivals.
        let h = History::from_logs(vec![
            vec![bar(0, 0), write(0, 1), bar(0, 1), read(0, 1)],
            vec![bar(0, 0), HistEvent::Crash],
        ]);
        h.check(&budget()).unwrap();
        // Without the marker the same shape is a recorder bug.
        let bad = History::from_logs(vec![vec![bar(0, 0), bar(0, 1)], vec![bar(0, 0)]]);
        let err = bad.check(&budget()).unwrap_err();
        assert!(matches!(err, HistError::Malformed(_)));
        assert!(err.to_string().contains("never crashed"), "{err}");
    }

    #[test]
    fn witness_respects_intra_proc_order_of_concurrent_sections() {
        // Two processors increment disjoint counters under different
        // locks; any interleaving is fine, and the search must find one
        // without exploring much.
        let h = History::from_logs(vec![
            vec![acq(0, 1), read(0, 0), write(0, 1), rel(0, 1)],
            vec![acq(1, 1), read(8, 0), write(8, 1), rel(1, 1)],
        ]);
        let report = h.check(&budget()).unwrap();
        assert!(report.states_explored <= 16, "{}", report.states_explored);
        let w = h.sc_witness(&budget()).unwrap();
        assert_eq!(w.schedule.len(), 8);
        // Program order per processor is preserved in the schedule.
        let p0_positions: Vec<usize> = w
            .schedule
            .iter()
            .filter(|(p, _)| p.index() == 0)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(p0_positions, vec![0, 1, 2, 3]);
    }

    #[test]
    fn long_histories_do_not_overflow_the_stack() {
        // The search depth equals the event count; an explicit frame
        // stack (not recursion) keeps a 60k-event history checkable.
        let mut log = Vec::new();
        for i in 0..30_000u64 {
            log.push(write(0, i));
            log.push(read(0, i));
        }
        let h = History::from_logs(vec![log]);
        let report = h.check(&budget()).unwrap();
        assert_eq!(report.events, 60_000);
    }

    #[test]
    fn long_one_word_history_across_processors_checks_in_one_pass() {
        // One lock handed round four processors 15 000 times, each
        // section reading the counter at word 0 and writing it back one
        // higher. What the single-processor history above never reaches:
        // every access competes with thousands of other processors'
        // accesses to the same word, told apart by clock entries alone.
        let mut logs = vec![Vec::new(); 4];
        for k in 0..15_000u64 {
            logs[k as usize % 4].extend([
                acq(0, k + 1),
                read(0, k),
                write(0, k + 1),
                rel(0, k + 1),
            ]);
        }
        let report = History::from_logs(logs.clone()).check(&budget()).unwrap();
        assert_eq!(report.events, 60_000);
        assert_eq!(report.states_explored, 60_000);

        // A stale read in the very last critical section: it sees the
        // counter as its own processor left it four sections earlier.
        let mut stale = logs;
        let (p, i) = (3, stale[3].len() - 3);
        assert_eq!(stale[p][i], read(0, 14_999));
        stale[p][i] = read(0, 14_996);
        match History::from_logs(stale).check(&budget()) {
            Err(HistError::Unjustified { site, writer, .. }) => {
                assert_eq!((site.proc.index(), site.index), (p, i));
                let writer = writer.expect("the section before wrote the counter");
                assert_eq!((writer.proc.index(), writer.index), (2, 15_000 - 2));
            }
            other => panic!("expected the planted read, got {other:?}"),
        }
    }

    #[test]
    fn long_many_word_history_with_barrier_phases_checks_in_one_pass() {
        // Four processors, two banks of 512 words each: in phase `k` a
        // processor fills its slots of bank `k % 2` and reads back what
        // its neighbour put into the other bank a phase earlier.
        const SLOTS: u64 = 512;
        let word = |bank: u64, owner: u64, slot: u64| ((bank * 4 + owner) * SLOTS + slot) * 8;
        let value = |phase: u64, owner: u64, slot: u64| (phase + 1) << 32 | owner << 16 | slot;
        let mut logs = vec![Vec::new(); 4];
        for phase in 0..4u64 {
            for (p, log) in (0u64..).zip(&mut logs) {
                let neighbour = (p + 1) % 4;
                for slot in 0..SLOTS {
                    let theirs = match phase {
                        0 => 0,
                        _ => value(phase - 1, neighbour, slot),
                    };
                    log.push(read(word((phase + 1) % 2, neighbour, slot), theirs));
                    log.push(write(word(phase % 2, p, slot), value(phase, p, slot)));
                }
                log.push(bar(0, phase));
            }
        }
        let h = History::from_logs(logs);
        let report = h.check(&budget()).unwrap();
        assert_eq!(report.events, 4 * 4 * (2 * SLOTS as usize + 1));
        assert_eq!(report.states_explored, report.events);
    }

    #[test]
    fn an_access_past_the_last_address_is_malformed() {
        // `addr + len` does not fit a u64: no range to index. One byte
        // less and it is an ordinary access.
        let h = History::from_logs(vec![vec![write(0, 1), write(u64::MAX - 3, 9)]]);
        match h.check(&budget()) {
            Err(HistError::Malformed(detail)) => {
                assert!(detail.contains("p0[1]"), "{detail}");
                assert!(detail.contains("@0xfffffffffffffffc/8"), "{detail}");
            }
            other => panic!("expected a malformed access, got {other:?}"),
        }
        for mode in [History::check_drf, History::check_justified] {
            assert!(matches!(mode(&h), Err(HistError::Malformed(_))));
        }
        assert!(matches!(
            h.sc_witness(&budget()),
            Err(HistError::Malformed(_))
        ));
        let last = u64::MAX - 8;
        let h = History::from_logs(vec![vec![write(last, 9), read(last, 9)], vec![read(0, 0)]]);
        h.check(&budget()).unwrap();
    }

    #[test]
    fn a_dead_end_is_explored_once() {
        // p1's read of a value nobody wrote blocks every schedule. The
        // other five events are mutually concurrent, so the search walks
        // all of the 3 x 2 grid of positions short of that read — each
        // position once, however many schedules lead to it.
        let h = History::from_logs(vec![
            vec![write(0, 1), write(8, 1)],
            vec![write(16, 1), read(24, 5)],
        ]);
        match h.sc_witness(&budget()) {
            Err(HistError::NoWitness {
                explored,
                consumed,
                total,
                blocked,
            }) => {
                assert_eq!((explored, consumed, total), (6, 3, 4));
                assert_eq!(blocked.len(), 1, "{blocked:?}");
                assert!(blocked[0].contains("p1[1]"), "{blocked:?}");
            }
            other => panic!("expected an exhausted search, got {other:?}"),
        }
    }

    #[test]
    fn backing_out_of_writes_leaves_memory_as_it_was() {
        // Racy on purpose, so that the search has to back out of writes:
        // p1's read saw memory before either of p0's overlapping writes,
        // but p0 is tried first. Both writes are undone, the second one's
        // clobber of the first included, before the read fits.
        let bytes = |addr: u64, value: &[u8]| (addr, value.to_vec());
        let write = |(addr, value)| HistEvent::Write { addr, value };
        let read = |(addr, value)| HistEvent::Read { addr, value };
        let h = History::from_logs(vec![
            vec![write(bytes(3, &[1; 8])), write(bytes(7, &[2; 8]))],
            vec![
                read(bytes(5, &[0; 8])),
                read(bytes(5, &[1, 1, 2, 2, 2, 2, 2, 2])),
            ],
        ]);
        let w = h.sc_witness(&budget()).unwrap();
        let schedule: Vec<Ev> = w.schedule.iter().map(|&(p, i)| (p.index(), i)).collect();
        assert_eq!(schedule, vec![(1, 0), (0, 0), (0, 1), (1, 1)]);
        // One byte off in the later read and nothing fits.
        let h = History::from_logs(vec![
            vec![write(bytes(3, &[1; 8])), write(bytes(7, &[2; 8]))],
            vec![
                read(bytes(5, &[0; 8])),
                read(bytes(5, &[1, 1, 1, 2, 2, 2, 2, 2])),
            ],
        ]);
        match h.sc_witness(&budget()) {
            Err(HistError::NoWitness { blocked, .. }) => {
                assert_eq!(blocked.len(), 1, "{blocked:?}");
                assert!(blocked[0].contains("memory here holds 0101020202020202"));
            }
            other => panic!("expected an exhausted search, got {other:?}"),
        }
    }

    #[test]
    fn budget_zero_reports_exhaustion() {
        let h = History::from_logs(vec![vec![write(0, 1)]]);
        let tiny = CheckBudget { max_states: 0 };
        assert!(matches!(h.check(&tiny), Err(HistError::Budget { .. })));
    }

    #[test]
    fn search_backtracks_to_find_the_legal_order() {
        // p1's read of 0 must be scheduled BEFORE p0's unsynchronized-
        // looking (but race-free: read vs nothing) write... use private
        // locations plus one lock-ordered flow that forces backtracking:
        // scheduling p0 first would poison p1's read of the old value.
        let h = History::from_logs(vec![
            vec![acq(0, 2), write(0, 9), rel(0, 2)],
            vec![acq(0, 1), read(0, 0), write(0, 1), rel(0, 1), read(8, 0)],
        ]);
        // Grant order forces p1's section first; p1's trailing private
        // read is concurrent with p0's section. A witness exists.
        h.check(&budget()).unwrap();
    }
}
