use lrc_hist::{HistEvent, History};
use lrc_trace::{Op, Trace};

use crate::synth_write_bytes;

/// Lowers `trace` to the history that a sequentially consistent run of it
/// records, so that `lrc-hist`'s checker is the race oracle for traces
/// too: a trace is properly labeled (paper, §2) exactly when
/// `history_of(&trace).check_drf()` passes.
///
/// * Each processor's log holds its events in trace order.
/// * An acquire's `grant` is its position among the acquires of its lock
///   (1 for the first); a release closes the grant its holder was given.
/// * A barrier arrival's `episode` is the number of earlier arrivals at
///   that barrier divided by the number of processors.
/// * A write carries [`synth_write_bytes`]`(event index, len)`, the bytes
///   the simulator's sequential-consistency oracle writes; a read carries
///   what a flat, in-order replay of those writes holds at that point.
///
/// The trace order is a witness of the result, so
/// [`History::check`](lrc_hist::History::check) runs on it in full, not
/// only its race scan.
///
/// # Example
///
/// ```
/// use lrc_sim::history_of;
/// use lrc_trace::{TraceBuilder, TraceMeta};
/// use lrc_vclock::ProcId;
///
/// // Two processors write the same word with no synchronization: a race.
/// let mut b = TraceBuilder::new(TraceMeta::new("racy", 2, 0, 0, 1024));
/// b.write(ProcId::new(0), 0, 4)?;
/// b.write(ProcId::new(1), 0, 4)?;
/// assert!(history_of(&b.finish()?).check_drf().is_err());
/// # Ok::<(), lrc_trace::TraceError>(())
/// ```
pub fn history_of(trace: &Trace) -> History {
    let meta = trace.meta();
    let n_procs = meta.n_procs() as u64;
    let mut memory = vec![0u8; meta.mem_bytes() as usize];
    let mut grants = vec![0u64; meta.n_locks()];
    let mut arrivals = vec![0u64; meta.n_barriers()];
    let mut logs = vec![Vec::new(); meta.n_procs()];
    for (at, event) in trace.events().iter().enumerate() {
        let lowered = match event.op {
            Op::Read { addr, len } => HistEvent::Read {
                addr,
                value: memory[addr as usize..][..len as usize].to_vec(),
            },
            Op::Write { addr, len } => {
                let value = synth_write_bytes(at, len as usize);
                memory[addr as usize..][..value.len()].copy_from_slice(&value);
                HistEvent::Write { addr, value }
            }
            Op::Acquire(lock) => {
                let grant = &mut grants[lock.index()];
                *grant += 1;
                HistEvent::Acquire {
                    lock,
                    grant: *grant,
                }
            }
            Op::Release(lock) => HistEvent::Release {
                lock,
                grant: grants[lock.index()],
            },
            Op::Barrier(barrier) => {
                let arrived = &mut arrivals[barrier.index()];
                let episode = *arrived / n_procs;
                *arrived += 1;
                HistEvent::Barrier { barrier, episode }
            }
        };
        logs[event.proc.index()].push(lowered);
    }
    History::from_logs(logs)
}
