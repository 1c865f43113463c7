//! The checker's race and justification scans against the quadratic scans
//! they replaced.
//!
//! [`Oracle`] is the old implementation, kept word for word where it could
//! be: a happens-before build that allocates one `VectorClock` per event,
//! a race scan that compares every overlapping pair of accesses, and a
//! justification scan that filters every write of the history for every
//! read and folds all the visible ones. It sees a history only through
//! the public `History::log`, so nothing in `src/` can reach it.
//!
//! The witness search is checked here too, against the representation of
//! memory it used to search over: every witness `sc_witness` returns is
//! replayed event by event on a byte-keyed hash map.

// As in `check.rs`: the error is the failure report, and its path is cold.
#![allow(clippy::result_large_err)]

use std::collections::{HashMap, VecDeque};

use lrc_hist::{CheckBudget, EventSite, HistError, HistEvent, History};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::{ProcId, VectorClock};
use lrc_workloads::Pcg32;

/// `(processor index, event index)` — an event's coordinates.
type Ev = (usize, usize);

/// The old scans over the old happens-before relation.
struct Oracle {
    logs: Vec<Vec<HistEvent>>,
    clocks: Vec<Vec<VectorClock>>,
}

impl Oracle {
    /// Materializes the recorded happens-before relation: per-lock grant
    /// chains (release of grant `k` precedes the acquire of grant `k+1`),
    /// barrier episodes (everything before any arrival of an episode
    /// precedes everything after any crossing of it), and program order.
    fn new(history: &History) -> Result<Oracle, HistError> {
        let logs: Vec<Vec<HistEvent>> = ProcId::all(history.n_procs())
            .map(|p| history.log(p).to_vec())
            .collect();
        let n = logs.len();
        let mut preds: Vec<Vec<Vec<Ev>>> =
            logs.iter().map(|log| vec![Vec::new(); log.len()]).collect();

        // Per-lock grant chains: (grant, is_release) sorts acquires ahead
        // of the release that closes them.
        let mut locks: HashMap<u32, Vec<(u64, bool, Ev)>> = HashMap::new();
        // Barrier episodes: one arrival per processor each.
        let mut barriers: HashMap<(u32, u64), Vec<Ev>> = HashMap::new();
        for (p, log) in logs.iter().enumerate() {
            for (i, ev) in log.iter().enumerate() {
                match ev {
                    HistEvent::Acquire { lock, grant } => {
                        locks
                            .entry(lock.raw())
                            .or_default()
                            .push((*grant, false, (p, i)));
                    }
                    HistEvent::Release { lock, grant } => {
                        locks
                            .entry(lock.raw())
                            .or_default()
                            .push((*grant, true, (p, i)));
                    }
                    HistEvent::Barrier { barrier, episode } => {
                        barriers
                            .entry((barrier.raw(), *episode))
                            .or_default()
                            .push((p, i));
                    }
                    _ => {}
                }
            }
        }

        for (lock, mut chain) in locks {
            chain.sort_by_key(|&(grant, is_release, _)| (grant, is_release));
            for pair in chain.windows(2) {
                let (ga, rel_a, ea) = pair[0];
                let (gb, rel_b, eb) = pair[1];
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
        let crashed: Vec<bool> = logs
            .iter()
            .map(|log| log.iter().any(|e| matches!(e, HistEvent::Crash)))
            .collect();
        for ((barrier, episode), group) in barriers {
            let mut seen = vec![false; n];
            for &(p, _) in &group {
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
            for &(p, i) in &group {
                for &(q, j) in &group {
                    if q != p && j > 0 {
                        preds[p][i].push((q, j - 1));
                    }
                }
            }
        }

        // Event-granularity clocks by forward topological propagation
        // (Kahn): clock(e) = join of all predecessors, own entry = index+1.
        let mut clocks: Vec<Vec<VectorClock>> = logs
            .iter()
            .map(|log| vec![VectorClock::new(n); log.len()])
            .collect();
        let mut succs: HashMap<Ev, Vec<Ev>> = HashMap::new();
        let mut indegree: Vec<Vec<usize>> =
            logs.iter().map(|log| vec![0usize; log.len()]).collect();
        for (p, log) in logs.iter().enumerate() {
            for i in 0..log.len() {
                let mut d = preds[p][i].len();
                if i > 0 {
                    d += 1;
                    succs.entry((p, i - 1)).or_default().push((p, i));
                }
                for &pred in &preds[p][i] {
                    succs.entry(pred).or_default().push((p, i));
                }
                indegree[p][i] = d;
            }
        }
        let mut ready: VecDeque<Ev> = VecDeque::new();
        for (p, log) in logs.iter().enumerate() {
            if !log.is_empty() && indegree[p][0] == 0 {
                ready.push_back((p, 0));
            }
        }
        let mut done = 0usize;
        while let Some((p, i)) = ready.pop_front() {
            let mut clock = if i > 0 {
                clocks[p][i - 1].clone()
            } else {
                VectorClock::new(n)
            };
            for &(q, j) in &preds[p][i] {
                let other = clocks[q][j].clone();
                clock.merge(&other);
            }
            clock.set(ProcId::new(p as u16), (i + 1) as u32);
            clocks[p][i] = clock;
            done += 1;
            for &(q, j) in succs.get(&(p, i)).map(Vec::as_slice).unwrap_or(&[]) {
                indegree[q][j] -= 1;
                if indegree[q][j] == 0 {
                    ready.push_back((q, j));
                }
            }
        }
        if done != history.len() {
            // Real recordings cannot produce a cycle (every edge follows
            // wall-clock order); a hand-built history can.
            return Err(HistError::Malformed(
                "happens-before graph has a cycle".to_string(),
            ));
        }
        Ok(Oracle { logs, clocks })
    }

    fn site(&self, (p, i): Ev) -> EventSite {
        EventSite {
            proc: ProcId::new(p as u16),
            index: i,
            event: self.logs[p][i].to_string(),
        }
    }

    /// First conflicting, happens-before-unordered access pair, if any.
    fn find_race(&self) -> Result<(), HistError> {
        struct Access {
            start: u64,
            end: u64,
            write: bool,
            at: Ev,
        }
        let mut accesses: Vec<Access> = Vec::new();
        for (p, log) in self.logs.iter().enumerate() {
            for (i, ev) in log.iter().enumerate() {
                if let Some((addr, len, write)) = ev.access() {
                    if len > 0 {
                        accesses.push(Access {
                            start: addr,
                            end: addr + len as u64,
                            write,
                            at: (p, i),
                        });
                    }
                }
            }
        }
        accesses.sort_by_key(|a| a.start);
        for (i, a) in accesses.iter().enumerate() {
            for b in &accesses[i + 1..] {
                if b.start >= a.end {
                    break; // sorted by start: nothing later overlaps `a`
                }
                if a.at.0 == b.at.0 || (!a.write && !b.write) {
                    continue;
                }
                let ca = &self.clocks[a.at.0][a.at.1];
                let cb = &self.clocks[b.at.0][b.at.1];
                if ca.concurrent_with(cb) {
                    return Err(HistError::Race {
                        first: self.site(a.at),
                        second: self.site(b.at),
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks each read's bytes against the happens-before-latest write
    /// covering each byte (initial memory is zero).
    fn justify_reads(&self) -> Result<(), HistError> {
        // All writes, once.
        struct W {
            start: u64,
            end: u64,
            at: Ev,
        }
        let mut writes: Vec<W> = Vec::new();
        for (p, log) in self.logs.iter().enumerate() {
            for (i, ev) in log.iter().enumerate() {
                if let Some((addr, len, true)) = ev.access() {
                    writes.push(W {
                        start: addr,
                        end: addr + len as u64,
                        at: (p, i),
                    });
                }
            }
        }
        for (p, log) in self.logs.iter().enumerate() {
            for (i, ev) in log.iter().enumerate() {
                let HistEvent::Read { addr, value } = ev else {
                    continue;
                };
                let rc = &self.clocks[p][i];
                // Writes that happened before this read and overlap it.
                let visible: Vec<&W> = writes
                    .iter()
                    .filter(|w| {
                        w.start < addr + value.len() as u64
                            && w.end > *addr
                            && self.clocks[w.at.0][w.at.1].happened_before(rc)
                    })
                    .collect();
                let mut expected = vec![0u8; value.len()];
                let mut suppliers: Vec<Option<Ev>> = vec![None; value.len()];
                for (k, byte) in expected.iter_mut().enumerate() {
                    let a = addr + k as u64;
                    let mut best: Option<&W> = None;
                    for w in &visible {
                        if !(w.start <= a && a < w.end) {
                            continue;
                        }
                        best = match best {
                            None => Some(w),
                            Some(cur) => {
                                let cw = &self.clocks[w.at.0][w.at.1];
                                let cc = &self.clocks[cur.at.0][cur.at.1];
                                // DRF makes same-byte writes totally
                                // ordered, so one always dominates.
                                if cc.happened_before(cw) {
                                    Some(w)
                                } else {
                                    Some(cur)
                                }
                            }
                        };
                    }
                    if let Some(w) = best {
                        let HistEvent::Write {
                            value: wv,
                            addr: wa,
                        } = &self.logs[w.at.0][w.at.1]
                        else {
                            unreachable!("collected from writes")
                        };
                        *byte = wv[(a - wa) as usize];
                        suppliers[k] = Some(w.at);
                    }
                }
                if &expected != value {
                    let first_bad = expected
                        .iter()
                        .zip(value)
                        .position(|(e, g)| e != g)
                        .expect("differs");
                    return Err(HistError::Unjustified {
                        site: self.site((p, i)),
                        expected,
                        got: value.clone(),
                        writer: suppliers[first_bad].map(|at| self.site(at)),
                    });
                }
            }
        }
        Ok(())
    }
}

/// What a generated history is made of. Every program is a run of
/// barrier-separated phases in which each processor executes a few
/// commands — a critical section on a lock's byte region, an access to
/// its private region, or the slot exchange of
/// `lrc_workloads::ThreadProgram` — one command at a time in a seeded
/// interleaving, against one memory, so every read records what a
/// sequentially consistent machine returns. Accesses start at odd
/// addresses, are 0 to 8 bytes long and overlap freely inside a region.
#[derive(Clone, Copy, Debug)]
struct Shape {
    procs: usize,
    locks: u32,
    phases: u64,
    /// One critical section runs without its acquire and release.
    unlocked_section: bool,
    /// The last processor is declared dead in the second phase.
    crash: bool,
    /// Private regions and exchange slots sit 2^40 bytes above the lock
    /// regions: two clusters with a gap no flat memory could span.
    far: bool,
}

const REGION_BYTES: u32 = 24;

struct Machine {
    rng: Pcg32,
    mem: HashMap<u64, u8>,
    logs: Vec<Vec<HistEvent>>,
    grants: Vec<u64>,
}

impl Machine {
    fn read(&mut self, p: usize, addr: u64, len: u32) {
        let value = (addr..addr + len as u64)
            .map(|a| self.mem.get(&a).copied().unwrap_or(0))
            .collect();
        self.logs[p].push(HistEvent::Read { addr, value });
    }

    fn write(&mut self, p: usize, addr: u64, len: u32) {
        // Never zero, so a write is always told apart from initial memory.
        let value: Vec<u8> = (0..len).map(|_| self.rng.range(1, 256) as u8).collect();
        for (a, &b) in (addr..).zip(&value) {
            self.mem.insert(a, b);
        }
        self.logs[p].push(HistEvent::Write { addr, value });
    }

    /// One to four accesses of 0..=8 bytes anywhere inside the region.
    fn touch_region(&mut self, p: usize, base: u64) {
        for _ in 0..self.rng.range(1, 5) {
            let len = self.rng.below(9);
            let at = base + self.rng.below(REGION_BYTES - len + 1) as u64;
            if self.rng.chance(1, 2) {
                self.write(p, at, len);
            } else {
                self.read(p, at, len);
            }
        }
    }
}

fn generate(seed: u64, shape: Shape) -> Vec<Vec<HistEvent>> {
    let lock_region = |l: u32| 1_000 * l as u64 + 3;
    let high = if shape.far { 1 << 40 } else { 0 };
    let private_region = |p: usize| high + 100_000 + 1_000 * p as u64 + 5;
    let slot = |bank: u64, q: usize| high + 200_001 + (bank * shape.procs as u64 + q as u64) * 8;
    let mut m = Machine {
        rng: Pcg32::seed(seed),
        mem: HashMap::new(),
        logs: vec![Vec::new(); shape.procs],
        grants: vec![0; shape.locks as usize],
    };
    let mut sections_until_unlocked = shape.unlocked_section.then(|| m.rng.below(6));
    let mut alive = vec![true; shape.procs];
    for phase in 0..shape.phases {
        if shape.crash && phase == 1 {
            let victim = shape.procs - 1;
            alive[victim] = false;
            m.logs[victim].push(HistEvent::Crash);
        }
        let mut left: Vec<u32> = alive
            .iter()
            .map(|&up| if up { m.rng.range(1, 6) } else { 0 })
            .collect();
        while left.iter().any(|&n| n > 0) {
            let p = m.rng.below(shape.procs as u32) as usize;
            if left[p] == 0 {
                continue;
            }
            left[p] -= 1;
            match m.rng.below(8) {
                0..=4 => {
                    let l = m.rng.below(shape.locks);
                    let locked = sections_until_unlocked != Some(0);
                    sections_until_unlocked = sections_until_unlocked.map(|k| k.wrapping_sub(1));
                    if locked {
                        m.grants[l as usize] += 1;
                        m.logs[p].push(HistEvent::Acquire {
                            lock: LockId::new(l),
                            grant: m.grants[l as usize],
                        });
                    }
                    m.touch_region(p, lock_region(l));
                    if locked {
                        m.logs[p].push(HistEvent::Release {
                            lock: LockId::new(l),
                            grant: m.grants[l as usize],
                        });
                    }
                }
                5 | 6 => m.touch_region(p, private_region(p)),
                _ => {
                    for q in 0..shape.procs {
                        m.read(p, slot((phase + 1) % 2, q), 8);
                    }
                    m.write(p, slot(phase % 2, p), 8);
                }
            }
        }
        for p in (0..shape.procs).filter(|&p| alive[p]) {
            m.logs[p].push(HistEvent::Barrier {
                barrier: BarrierId::new(0),
                episode: phase,
            });
        }
    }
    m.logs
}

/// Flips one byte of one non-empty read and returns where it is and the
/// bytes it held; `None` if there is no such read.
fn flip_a_read(logs: &mut [Vec<HistEvent>], rng: &mut Pcg32) -> Option<(Ev, Vec<u8>)> {
    let reads: Vec<Ev> = logs
        .iter()
        .enumerate()
        .flat_map(|(p, log)| (0..log.len()).map(move |i| (p, i)))
        .filter(|&(p, i)| matches!(&logs[p][i], HistEvent::Read { value, .. } if !value.is_empty()))
        .collect();
    let (p, i) = *reads.get(rng.below(reads.len().max(1) as u32) as usize)?;
    let HistEvent::Read { value, .. } = &mut logs[p][i] else {
        unreachable!("filtered for reads")
    };
    let held = value.clone();
    let at = rng.below(value.len() as u32) as usize;
    value[at] ^= rng.range(1, 256) as u8;
    Some(((p, i), held))
}

/// Removes processor 0's arrival at the first episode, which the others
/// still complete.
fn drop_an_arrival(logs: &mut [Vec<HistEvent>]) {
    let at = logs[0]
        .iter()
        .position(|ev| matches!(ev, HistEvent::Barrier { .. }))
        .expect("every program has a barrier");
    logs[0].remove(at);
}

/// How the comparisons of one test came out, so that a test can insist
/// its generator reached the outcomes it is there for.
#[derive(Default, Debug)]
struct Tally {
    clean: usize,
    races: usize,
    unjustified: usize,
    malformed: usize,
    /// Histories `check` accepted, whose witness was replayed.
    witnessed: usize,
}

/// Replays the witness of a history `check` accepts against memory as a
/// byte-keyed map: the schedule must take every event once, each
/// processor's in program order, and every read must see exactly the
/// bytes the map holds.
fn replay_witness(history: &History, logs: &[Vec<HistEvent>]) {
    let witness = history
        .sc_witness(&CheckBudget::default())
        .expect("check found a witness");
    let mut mem: HashMap<u64, u8> = HashMap::new();
    let mut next = vec![0; logs.len()];
    for &(p, i) in &witness.schedule {
        assert_eq!(i, next[p.index()], "{p} out of program order");
        next[p.index()] += 1;
        match &logs[p.index()][i] {
            HistEvent::Read { addr, value } => {
                let held: Vec<u8> = (*addr..)
                    .zip(value)
                    .map(|(a, _)| mem.get(&a).copied().unwrap_or(0))
                    .collect();
                assert_eq!(&held, value, "{p}[{i}] in\n{}", history.render(0));
            }
            HistEvent::Write { addr, value } => {
                mem.extend((*addr..).zip(value.iter().copied()));
            }
            _ => {}
        }
    }
    let lengths: Vec<usize> = logs.iter().map(Vec::len).collect();
    assert_eq!(next, lengths, "not every event was scheduled");
}

/// The witness search on a data-race-free history with one flipped read:
/// it must exhaust, and the frontier it reports must be blocked on that
/// read with memory holding what the read held before the flip.
fn blocked_on_the_flipped_read(logs: &[Vec<HistEvent>], (p, i): Ev, held: &[u8]) {
    let history = History::from_logs(logs.to_vec());
    let hex: String = held.iter().map(|b| format!("{b:02x}")).collect();
    let wanted = format!("p{p}[{i}] {} — memory here holds {hex}", logs[p][i]);
    match history.sc_witness(&CheckBudget::default()) {
        Err(HistError::NoWitness { blocked, .. }) => {
            assert!(blocked.contains(&wanted), "{wanted} not in {blocked:?}")
        }
        other => panic!("expected an exhausted search, got {other:?}"),
    }
}

/// Compares both scans of `logs` with the oracle's.
fn compare(logs: &[Vec<HistEvent>], tally: &mut Tally) {
    let history = History::from_logs(logs.to_vec());
    let dump = || history.render(0);
    let oracle = match Oracle::new(&history) {
        Ok(oracle) => oracle,
        Err(malformed) => {
            assert!(matches!(malformed, HistError::Malformed(_)));
            assert_eq!(history.check_drf(), Err(malformed.clone()), "{}", dump());
            assert_eq!(history.check_justified(), Err(malformed), "{}", dump());
            tally.malformed += 1;
            return;
        }
    };

    let justified = history.check_justified();
    assert_eq!(justified, oracle.justify_reads(), "{}", dump());
    match justified {
        Ok(()) => tally.clean += 1,
        Err(_) => tally.unjustified += 1,
    }
    if let Ok(report) = history.check(&CheckBudget::default()) {
        assert_eq!(report.events, history.len());
        replay_witness(&history, logs);
        tally.witnessed += 1;
    }

    match (history.check_drf(), oracle.find_race()) {
        (Ok(()), Ok(())) => {}
        (Err(HistError::Race { first, second }), Err(HistError::Race { .. })) => {
            tally.races += 1;
            let (a, b) = (oracle.access(&first), oracle.access(&second));
            assert!(a.proc != b.proc, "{first} / {second}");
            assert!(a.write || b.write, "{first} / {second}");
            assert!(
                a.start < b.end && b.start < a.end,
                "no common byte: {first} / {second}"
            );
            assert!(
                a.clock.concurrent_with(b.clock),
                "ordered: {first} / {second}\n{}",
                dump()
            );
            // The same pair from the same history, and from a copy of it.
            let again = History::from_logs(logs.to_vec());
            for rerun in [history.check_drf(), again.check_drf()] {
                assert_eq!(
                    rerun,
                    Err(HistError::Race {
                        first: first.clone(),
                        second: second.clone()
                    })
                );
            }
        }
        (new, old) => panic!(
            "verdicts differ: {new:?} against the oracle's {old:?}\n{}",
            dump()
        ),
    }
}

struct Access<'a> {
    proc: ProcId,
    start: u64,
    end: u64,
    write: bool,
    clock: &'a VectorClock,
}

impl Oracle {
    /// The access a reported site names, checked against the log.
    fn access(&self, site: &EventSite) -> Access<'_> {
        let event = &self.logs[site.proc.index()][site.index];
        assert_eq!(event.to_string(), site.event);
        let (start, len, write) = event.access().expect("a race names accesses");
        Access {
            proc: site.proc,
            start,
            end: start + len as u64,
            write,
            clock: &self.clocks[site.proc.index()][site.index],
        }
    }
}

fn shapes() -> impl Iterator<Item = Shape> {
    let shape = |procs, locks, crash, far| Shape {
        procs,
        locks,
        phases: 3,
        unlocked_section: false,
        crash,
        far,
    };
    [(2, 1), (3, 2), (4, 3)]
        .into_iter()
        .flat_map(move |(procs, locks)| {
            [false, true].map(|crash| shape(procs, locks, crash, false))
        })
        .chain([shape(3, 2, false, true)])
}

#[test]
fn conforming_programs_agree_and_are_clean() {
    let mut tally = Tally::default();
    for shape in shapes() {
        for seed in 0..40 {
            compare(&generate(seed, shape), &mut tally);
        }
    }
    assert_eq!((tally.clean, tally.witnessed), (280, 280), "{tally:?}");
    assert_eq!(
        tally.races + tally.unjustified + tally.malformed,
        0,
        "{tally:?}"
    );
}

#[test]
fn a_flipped_read_is_blamed_identically() {
    let mut tally = Tally::default();
    let mut exhausted = 0;
    for shape in shapes() {
        for seed in 100..140 {
            let mut logs = generate(seed, shape);
            if let Some((site, held)) = flip_a_read(&mut logs, &mut Pcg32::seed(seed)) {
                compare(&logs, &mut tally);
                // Exhausting the search is what takes time here: a
                // quarter of the histories will do.
                if seed % 4 == 0 {
                    blocked_on_the_flipped_read(&logs, site, &held);
                    exhausted += 1;
                }
            }
        }
    }
    assert!(tally.unjustified > 200 && exhausted > 60, "{tally:?}");
    assert_eq!(
        tally.clean + tally.races + tally.malformed + tally.witnessed,
        0,
        "{tally:?}"
    );
}

#[test]
fn an_unlocked_section_races_or_not_identically() {
    // Racy histories, where "the latest write" is ambiguous: the two
    // justification scans must still blame the same read for the same
    // bytes and name the same supplier, with and without a flipped read.
    let mut tally = Tally::default();
    for shape in shapes() {
        let shape = Shape {
            unlocked_section: true,
            ..shape
        };
        for seed in 200..260 {
            let mut logs = generate(seed, shape);
            compare(&logs, &mut tally);
            if flip_a_read(&mut logs, &mut Pcg32::seed(seed)).is_some() {
                compare(&logs, &mut tally);
            }
        }
    }
    assert!(tally.races > 100, "{tally:?}");
    assert!(tally.unjustified > 100 && tally.clean > 100, "{tally:?}");
    assert!(tally.witnessed > 50, "{tally:?}");
    assert_eq!(tally.malformed, 0, "{tally:?}");
}

#[test]
fn an_incomplete_episode_is_malformed_identically() {
    let mut tally = Tally::default();
    for shape in shapes() {
        for seed in 300..310 {
            let mut logs = generate(seed, shape);
            drop_an_arrival(&mut logs);
            compare(&logs, &mut tally);
        }
    }
    assert_eq!(tally.malformed, 70, "{tally:?}");
}
