//! Seeded random programs, one type for every execution the tree has.
//!
//! A [`ThreadProgram`] is a per-processor script. It runs on real threads
//! through the runtime DSM and through the node runtime, with a history
//! recorder attached, and [`ThreadProgram::trace`] schedules it into one
//! legal trace for the simulator. All three are checked by the same
//! oracle, `lrc-hist`'s checker: a trace reaches it through
//! `lrc_sim::history_of`.
//!
//! Programs are **data-race-free by construction**:
//!
//! * each lock guards its own word region, touched only inside that
//!   lock's critical sections;
//! * private regions are per-processor;
//! * the *exchange* pattern publishes data across barriers: in phase `k`
//!   every processor writes its own slot of bank `k mod 2` and reads the
//!   slots the others wrote a phase earlier in the opposite bank — two
//!   barriers separate any two writes to one slot, one barrier separates
//!   every write from its readers.
//!
//! The exchange pattern is what makes mutation testing deterministic:
//! barrier edges *force* cross-processor data flow regardless of thread
//! timing, so a protocol that fails to propagate writes is caught on
//! every run, not just on lucky interleavings.
//!
//! [`ThreadProgram::shrink`] minimizes a failing program against any
//! oracle closure (delta debugging over phases, then per-processor
//! command lists), for the seed-plus-minimized-program failure reports
//! the conformance suites print.

use lrc_sync::{BarrierId, LockId};
use lrc_trace::{interleave, Program, Trace, TraceMeta};
use lrc_vclock::ProcId;

use crate::Pcg32;

/// Words (8 bytes each) per private region and per lock region.
pub(crate) const REGION_WORDS: u64 = 16;

/// One race-free-by-construction command of one processor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HistCmd {
    /// Acquire the lock, read-modify-write `span` words of its region
    /// starting at `word`, release.
    Critical {
        /// Lock index.
        lock: u32,
        /// First word of the lock's region to touch.
        word: u64,
        /// Words touched.
        span: u64,
    },
    /// Acquire the lock, read one word of its region, release.
    Reader {
        /// Lock index.
        lock: u32,
        /// Word read.
        word: u64,
    },
    /// Read-modify-write one word of the processor's private region.
    Private {
        /// Word touched.
        word: u64,
    },
    /// The barrier-published slot exchange (see the module docs).
    Exchange,
}

/// One operation of the lowered per-processor script.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ThreadOp {
    /// Acquire a lock (blocking).
    Acquire(LockId),
    /// Release a lock.
    Release(LockId),
    /// Read 8 bytes.
    Read {
        /// Byte address.
        addr: u64,
    },
    /// Write a little-endian `u64`.
    Write {
        /// Byte address.
        addr: u64,
        /// Value written (unique per program).
        value: u64,
    },
    /// Arrive at a barrier (blocking).
    Barrier(BarrierId),
}

/// Size knobs for [`ThreadProgram::generate`].
#[derive(Clone, Copy, Debug)]
pub struct ProgramShape {
    /// Processors (threads).
    pub n_procs: usize,
    /// Locks (each guarding its own region).
    pub n_locks: usize,
    /// Barrier-separated phases.
    pub phases: usize,
    /// Maximum commands per processor per phase (at least 1 is drawn).
    pub max_cmds: usize,
}

impl Default for ProgramShape {
    fn default() -> Self {
        ProgramShape {
            n_procs: 3,
            n_locks: 2,
            phases: 2,
            max_cmds: 5,
        }
    }
}

/// A threaded, data-race-free-by-construction program: per-phase,
/// per-processor command lists, with every processor crossing barrier 0
/// between consecutive phases.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadProgram {
    /// Processors.
    pub n_procs: usize,
    /// Locks used.
    pub n_locks: usize,
    /// `phases[k][p]` = processor `p`'s commands in phase `k`.
    pub phases: Vec<Vec<Vec<HistCmd>>>,
}

impl ThreadProgram {
    /// Generates a program from a seed: same seed, same program, forever
    /// (the reproducibility contract of the conformance suites).
    pub fn generate(seed: u64, shape: &ProgramShape) -> Self {
        let mut rng = Pcg32::seed(seed);
        let phases = (0..shape.phases.max(1))
            .map(|_| {
                (0..shape.n_procs)
                    .map(|_| {
                        let n = rng.range(1, shape.max_cmds.max(1) as u32 + 1);
                        (0..n).map(|_| Self::random_cmd(&mut rng, shape)).collect()
                    })
                    .collect()
            })
            .collect();
        ThreadProgram {
            n_procs: shape.n_procs,
            n_locks: shape.n_locks,
            phases,
        }
    }

    fn random_cmd(rng: &mut Pcg32, shape: &ProgramShape) -> HistCmd {
        match rng.below(9) {
            0..=3 => {
                let span = rng.range(1, 4) as u64;
                HistCmd::Critical {
                    lock: rng.below(shape.n_locks as u32),
                    word: rng.below((REGION_WORDS - span) as u32 + 1) as u64,
                    span,
                }
            }
            4 | 5 => HistCmd::Reader {
                lock: rng.below(shape.n_locks as u32),
                word: rng.below(REGION_WORDS as u32) as u64,
            },
            6 | 7 => HistCmd::Private {
                word: rng.below(REGION_WORDS as u32) as u64,
            },
            _ => HistCmd::Exchange,
        }
    }

    /// Byte address of word `w` of processor `p`'s private region.
    pub(crate) fn private_word(&self, p: usize, w: u64) -> u64 {
        (p as u64 * REGION_WORDS + w) * 8
    }

    /// Byte address of word `w` of lock `l`'s region.
    pub(crate) fn lock_word(&self, l: u32, w: u64) -> u64 {
        ((self.n_procs as u64 + l as u64) * REGION_WORDS + w) * 8
    }

    /// Byte address of processor `q`'s slot in exchange bank `bank`.
    pub(crate) fn bank_word(&self, bank: u64, q: usize) -> u64 {
        (((self.n_procs + self.n_locks) as u64 * REGION_WORDS)
            + bank * self.n_procs as u64
            + q as u64)
            * 8
    }

    /// Shared-space bytes the program touches.
    pub fn mem_bytes(&self) -> u64 {
        ((self.n_procs + self.n_locks) as u64 * REGION_WORDS + 2 * self.n_procs as u64) * 8
    }

    /// Lowers processor `p`'s script: commands in order, barrier 0
    /// between phases, every written value unique (`proc+1` in the high
    /// half, a per-processor counter in the low half) so failure reports
    /// can name the write a stale read should have seen.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn ops_for(&self, p: ProcId) -> Vec<ThreadOp> {
        assert!(p.index() < self.n_procs, "processor {p} out of range");
        let me = p.index();
        let mut counter = 0u64;
        let fresh = |counter: &mut u64| {
            *counter += 1;
            ((me as u64 + 1) << 32) | *counter
        };
        let mut ops = Vec::new();
        for (k, phase) in self.phases.iter().enumerate() {
            if k > 0 {
                ops.push(ThreadOp::Barrier(BarrierId::new(0)));
            }
            for cmd in &phase[me] {
                match *cmd {
                    HistCmd::Critical { lock, word, span } => {
                        ops.push(ThreadOp::Acquire(LockId::new(lock)));
                        for w in word..word + span {
                            ops.push(ThreadOp::Read {
                                addr: self.lock_word(lock, w),
                            });
                            ops.push(ThreadOp::Write {
                                addr: self.lock_word(lock, w),
                                value: fresh(&mut counter),
                            });
                        }
                        ops.push(ThreadOp::Release(LockId::new(lock)));
                    }
                    HistCmd::Reader { lock, word } => {
                        ops.push(ThreadOp::Acquire(LockId::new(lock)));
                        ops.push(ThreadOp::Read {
                            addr: self.lock_word(lock, word),
                        });
                        ops.push(ThreadOp::Release(LockId::new(lock)));
                    }
                    HistCmd::Private { word } => {
                        ops.push(ThreadOp::Read {
                            addr: self.private_word(me, word),
                        });
                        ops.push(ThreadOp::Write {
                            addr: self.private_word(me, word),
                            value: fresh(&mut counter),
                        });
                    }
                    HistCmd::Exchange => {
                        // Read what everyone published a phase ago in the
                        // opposite bank, then publish in this phase's bank.
                        let read_bank = (k as u64 + 1) % 2;
                        for q in 0..self.n_procs {
                            ops.push(ThreadOp::Read {
                                addr: self.bank_word(read_bank, q),
                            });
                        }
                        ops.push(ThreadOp::Write {
                            addr: self.bank_word(k as u64 % 2, me),
                            value: fresh(&mut counter),
                        });
                    }
                }
            }
        }
        ops
    }

    /// Schedules the program into one legal trace: each processor's
    /// [`ops_for`](Self::ops_for) becomes a [`Program`] of 8-byte accesses
    /// (the written values are dropped; a replay synthesizes its own), and
    /// [`interleave`] interleaves them, seeded by `schedule_seed`.
    pub fn trace(&self, schedule_seed: u64) -> Trace {
        let meta = TraceMeta::new(
            "thread_program",
            self.n_procs,
            self.n_locks,
            1,
            self.mem_bytes(),
        );
        let programs = (0..self.n_procs)
            .map(|p| {
                let p = ProcId::new(p as u16);
                let mut program = Program::new(p);
                for op in self.ops_for(p) {
                    match op {
                        ThreadOp::Acquire(lock) => program.acquire(lock),
                        ThreadOp::Release(lock) => program.release(lock),
                        ThreadOp::Read { addr } => program.read(addr, 8),
                        ThreadOp::Write { addr, .. } => program.write(addr, 8),
                        ThreadOp::Barrier(barrier) => program.barrier(barrier),
                    };
                }
                program
            })
            .collect();
        interleave(meta, programs, schedule_seed).expect(
            "a ThreadProgram never nests locks and every processor crosses the \
             same number of barriers, so any seed schedules it",
        )
    }

    /// Total lowered operations across all processors.
    pub fn op_count(&self) -> usize {
        (0..self.n_procs)
            .map(|p| self.ops_for(ProcId::new(p as u16)).len())
            .sum()
    }

    /// Total commands.
    pub fn cmd_count(&self) -> usize {
        self.phases.iter().flatten().map(Vec::len).sum()
    }

    /// Renders the program as a compact listing (for failure reports).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} procs, {} locks, {} phases, {} commands ({} ops):",
            self.n_procs,
            self.n_locks,
            self.phases.len(),
            self.cmd_count(),
            self.op_count(),
        );
        for (k, phase) in self.phases.iter().enumerate() {
            let _ = writeln!(out, "phase {k}:");
            for (p, cmds) in phase.iter().enumerate() {
                let rendered: Vec<String> = cmds
                    .iter()
                    .map(|cmd| match *cmd {
                        HistCmd::Critical { lock, word, span } => {
                            format!("L{lock}[{word}..{}]rw", word + span)
                        }
                        HistCmd::Reader { lock, word } => format!("L{lock}[{word}]r"),
                        HistCmd::Private { word } => format!("priv[{word}]"),
                        HistCmd::Exchange => "exchange".to_string(),
                    })
                    .collect();
                let _ = writeln!(out, "  p{p}: {}", rendered.join(", "));
            }
        }
        out
    }

    /// Minimizes this program against `still_fails` (which must hold for
    /// `self`): repeatedly drops whole phases, then whole per-processor
    /// command lists (halves first, then single commands), keeping every
    /// removal that preserves the failure, until no removal does.
    /// Deterministic; the returned program still fails.
    pub fn shrink<F: Fn(&ThreadProgram) -> bool>(&self, still_fails: F) -> ThreadProgram {
        let mut cur = self.clone();
        debug_assert!(still_fails(&cur), "shrink requires a failing program");
        let mut changed = true;
        while changed {
            changed = false;
            // Whole phases (keep at least one).
            let mut k = 0;
            while cur.phases.len() > 1 && k < cur.phases.len() {
                let mut cand = cur.clone();
                cand.phases.remove(k);
                if still_fails(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    k += 1;
                }
            }
            // Per-processor lists: drop halves while that keeps failing,
            // then individual commands.
            for k in 0..cur.phases.len() {
                for p in 0..cur.n_procs {
                    loop {
                        let len = cur.phases[k][p].len();
                        if len < 2 {
                            break;
                        }
                        let half = len / 2;
                        let mut tail = cur.clone();
                        tail.phases[k][p].truncate(half);
                        if still_fails(&tail) {
                            cur = tail;
                            changed = true;
                            continue;
                        }
                        let mut head = cur.clone();
                        head.phases[k][p].drain(..half);
                        if still_fails(&head) {
                            cur = head;
                            changed = true;
                            continue;
                        }
                        break;
                    }
                    let mut i = 0;
                    while i < cur.phases[k][p].len() {
                        let mut cand = cur.clone();
                        cand.phases[k][p].remove(i);
                        if still_fails(&cand) {
                            cur = cand;
                            changed = true;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_trace::Op;

    fn shape() -> ProgramShape {
        ProgramShape::default()
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = ThreadProgram::generate(42, &shape());
        let b = ThreadProgram::generate(42, &shape());
        assert_eq!(a, b);
        let c = ThreadProgram::generate(43, &shape());
        assert_ne!(a, c);
    }

    #[test]
    fn lowering_is_legal_and_balanced() {
        for seed in 0..20 {
            let prog = ThreadProgram::generate(seed, &shape());
            let mut barrier_counts = Vec::new();
            for p in 0..prog.n_procs {
                let ops = prog.ops_for(ProcId::new(p as u16));
                let mut held: Option<LockId> = None;
                let mut barriers = 0;
                for op in &ops {
                    match op {
                        ThreadOp::Acquire(l) => {
                            assert!(held.is_none(), "nested acquire");
                            held = Some(*l);
                        }
                        ThreadOp::Release(l) => {
                            assert_eq!(held, Some(*l), "release without acquire");
                            held = None;
                        }
                        ThreadOp::Barrier(_) => {
                            assert!(held.is_none(), "barrier inside critical section");
                            barriers += 1;
                        }
                        _ => {}
                    }
                }
                assert!(held.is_none(), "dangling acquire");
                barrier_counts.push(barriers);
            }
            assert!(
                barrier_counts.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: barrier counts differ across processors"
            );
        }
    }

    #[test]
    fn trace_keeps_each_processors_ops_in_program_order() {
        let prog = ThreadProgram::generate(3, &shape());
        for seed in 0..4 {
            let trace = prog.trace(seed);
            for p in 0..prog.n_procs {
                let p = ProcId::new(p as u16);
                let lowered: Vec<Op> = prog
                    .ops_for(p)
                    .into_iter()
                    .map(|op| match op {
                        ThreadOp::Acquire(lock) => Op::Acquire(lock),
                        ThreadOp::Release(lock) => Op::Release(lock),
                        ThreadOp::Read { addr } => Op::Read { addr, len: 8 },
                        ThreadOp::Write { addr, .. } => Op::Write { addr, len: 8 },
                        ThreadOp::Barrier(barrier) => Op::Barrier(barrier),
                    })
                    .collect();
                let traced: Vec<Op> = trace
                    .events()
                    .iter()
                    .filter(|e| e.proc == p)
                    .map(|e| e.op)
                    .collect();
                assert_eq!(traced, lowered, "seed {seed}, {p}");
            }
        }
        assert_ne!(prog.trace(0), prog.trace(1), "the seed picks the schedule");
    }

    #[test]
    fn written_values_are_unique_program_wide() {
        let prog = ThreadProgram::generate(7, &shape());
        let mut seen = std::collections::HashSet::new();
        for p in 0..prog.n_procs {
            for op in prog.ops_for(ProcId::new(p as u16)) {
                if let ThreadOp::Write { value, .. } = op {
                    assert!(seen.insert(value), "duplicate written value {value:#x}");
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn addresses_stay_inside_the_declared_space() {
        let prog = ThreadProgram::generate(11, &shape());
        let mem = prog.mem_bytes();
        for p in 0..prog.n_procs {
            for op in prog.ops_for(ProcId::new(p as u16)) {
                let addr = match op {
                    ThreadOp::Read { addr } => addr,
                    ThreadOp::Write { addr, .. } => addr,
                    _ => continue,
                };
                assert!(addr + 8 <= mem, "access at {addr:#x} beyond {mem:#x}");
            }
        }
    }

    #[test]
    fn shrink_minimizes_against_a_predicate() {
        let shape = ProgramShape {
            phases: 3,
            max_cmds: 6,
            ..shape()
        };
        let prog = ThreadProgram::generate(5, &shape);
        // Oracle: "fails" while any Critical on lock 0 survives.
        let fails = |p: &ThreadProgram| {
            p.phases
                .iter()
                .flatten()
                .flatten()
                .any(|c| matches!(c, HistCmd::Critical { lock: 0, .. }))
        };
        assert!(fails(&prog), "seed must generate a lock-0 critical section");
        let min = prog.shrink(fails);
        assert!(fails(&min), "shrunk program must still fail");
        assert_eq!(min.phases.len(), 1, "all removable phases dropped");
        assert_eq!(
            min.cmd_count(),
            1,
            "exactly the culprit survives:\n{}",
            min.render()
        );
        assert!(min.op_count() < prog.op_count());
    }

    #[test]
    fn render_mentions_every_command_kind() {
        let prog = ThreadProgram {
            n_procs: 2,
            n_locks: 1,
            phases: vec![vec![
                vec![
                    HistCmd::Critical {
                        lock: 0,
                        word: 1,
                        span: 2,
                    },
                    HistCmd::Exchange,
                ],
                vec![
                    HistCmd::Reader { lock: 0, word: 3 },
                    HistCmd::Private { word: 4 },
                ],
            ]],
        };
        let r = prog.render();
        assert!(r.contains("L0[1..3]rw"), "{r}");
        assert!(r.contains("exchange"), "{r}");
        assert!(r.contains("L0[3]r"), "{r}");
        assert!(r.contains("priv[4]"), "{r}");
    }
}
