//! Quickstart: program against the runtime DSM, then watch the protocol.
//!
//! Four threads ("processors") cooperatively increment a shared counter
//! under a lock and exchange per-processor results through a barrier —
//! the two synchronization primitives of release consistency. Afterwards
//! the example prints the network traffic the protocol generated.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart [LI|LU|EI|EU]
//! ```

use lrc::dsm::DsmBuilder;
use lrc::sim::ProtocolKind;
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;

const PROCS: usize = 4;
const ROUNDS: u64 = 250;
/// Shared layout: one counter word, then one result word per processor.
const COUNTER: u64 = 0;
const RESULTS: u64 = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = match std::env::args().nth(1) {
        None => ProtocolKind::LazyInvalidate,
        Some(label) => ProtocolKind::from_label(&label).unwrap_or_else(|| {
            eprintln!("quickstart: unknown protocol '{label}'");
            eprintln!("usage: quickstart [LI|LU|EI|EU]");
            std::process::exit(2);
        }),
    };

    let dsm = DsmBuilder::new(kind, PROCS, 1 << 16)
        .page_size(4096)
        .build()?;
    let lock = LockId::new(0);
    let barrier = BarrierId::new(0);

    dsm.parallel(|proc| {
        let me = proc.proc().index() as u64;
        let mut taken = 0u64;
        for _ in 0..ROUNDS {
            proc.acquire(lock)?;
            let v = proc.read_u64(COUNTER);
            proc.write_u64(COUNTER, v + 1);
            proc.release(lock)?;
            taken += 1;
            // Give the other processors a chance to grab the lock, so the
            // printout shows real lock migration instead of one thread
            // re-acquiring its own lock for free.
            std::thread::yield_now();
        }
        // Publish the per-processor tally, then synchronize so everyone
        // can read everyone else's.
        proc.write_u64(RESULTS + 8 * me, taken);
        proc.barrier(barrier)?;
        let total: u64 = (0..PROCS as u64)
            .map(|q| proc.read_u64(RESULTS + 8 * q))
            .sum();
        assert_eq!(total, PROCS as u64 * ROUNDS);
        Ok(())
    })?;

    let mut check = dsm.handle(ProcId::new(0));
    check.acquire(lock)?;
    let counter = check.read_u64(COUNTER);
    check.release(lock)?;
    println!(
        "protocol {kind}: counter = {counter} (expected {})",
        PROCS as u64 * ROUNDS
    );
    println!();
    println!("network traffic:");
    println!("{}", dsm.net_stats());
    Ok(())
}
