//! Recovery harness: what does a crash actually cost? Three numbers per
//! run — checkpoint cut latency on a warmed engine, death detection
//! latency (a spoke vanishes mid-run; the survivor's barrier-wait
//! failure detector declares it dead with zero manual calls), and full
//! kill-to-converged recovery latency (detection plus the restarted
//! incarnation's resumable hello, revival from the latest automatic cut,
//! and a first successful remote read). The crash/restart cycle is the
//! soak test's arc, instrumented.
//!
//! Results are written as machine-readable JSON to `BENCH_recovery.json`
//! (override with `--json PATH`). Flags: `--smoke` shrinks the cycle
//! count for CI; `--check` exits non-zero unless every cycle converged —
//! the revived processor's pre-crash writes are readable afterwards —
//! and recovery stayed under a generous wall-clock bound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lrc_dsm::{Dsm, DsmBuilder, NodeClient, NodeServer};
use lrc_net::{NodeId, TcpTransport};
use lrc_sim::ProtocolKind;
use lrc_sync::BarrierId;
use lrc_vclock::ProcId;

const PAGE: usize = 256;
const MEM: u64 = 1 << 13;
/// Iterations per crash cycle: enough barrier episodes that the latest
/// automatic cut follows earlier ones and holds several episodes of
/// history, not a trivial first cut.
const WARM_ITERS: u64 = 4;
/// How long a silent barrier absentee survives before the failure
/// detector declares it dead. Dominates detection latency.
const SUSPECT_AFTER: Duration = Duration::from_millis(100);

/// Per-cycle instrumented latencies, milliseconds.
struct Cycle {
    detect_ms: f64,
    recover_ms: f64,
}

/// Checkpoint cut latency and encoded size on an engine warmed with one
/// dirty page per processor.
fn bench_cut(iters: u64) -> (f64, u64) {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, MEM)
        .page_size(PAGE)
        .build()
        .unwrap();
    dsm.handle(ProcId::new(0)).write_u64(8, 0xa1);
    dsm.handle(ProcId::new(1)).write_u64(PAGE as u64 + 8, 0xb2);
    let bytes = dsm.checkpoint().encode().len() as u64;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(dsm.checkpoint().encode());
    }
    (start.elapsed().as_secs_f64() * 1e3 / iters as f64, bytes)
}

/// One kill-and-heal cycle over TCP, fully automatic: two processors in
/// barrier lockstep, the remote one crashes (its connection drops), the
/// local survivor's failure detector declares it dead, and a restarted
/// incarnation under a fresh node id resumes it from the latest
/// automatic cut. Returns the measured latencies plus the value the
/// revived processor reads back from its own pre-crash write — the
/// convergence proof.
fn kill_and_heal_cycle(crash_iter: u64) -> (Cycle, u64, Dsm) {
    let p0 = ProcId::new(0);
    let p1 = ProcId::new(1);
    let barrier = BarrierId::new(0);

    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, MEM)
        .page_size(PAGE)
        .gc_at_barriers()
        .death_lease(2)
        .wait_timeout(Duration::from_secs(30))
        .holder_timeout(SUSPECT_AFTER)
        .checkpoint_every(1)
        .build()
        .unwrap();

    let hub = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
    let addr = hub.local_addr();
    let serving = std::thread::spawn({
        let dsm = dsm.clone();
        move || {
            let transport = hub.accept_healing(1, Duration::from_secs(10)).unwrap();
            NodeServer::new(dsm, transport).serve()
        }
    });

    // Lockstep: the survivor must not race past the crash iteration
    // before the victim's death completes its episodes on its behalf.
    let sync = Arc::new(std::sync::Barrier::new(2));
    let victim_thread = std::thread::spawn({
        let dsm = dsm.clone();
        let sync = Arc::clone(&sync);
        let addr = addr.clone();
        move || {
            let transport = TcpTransport::connect(&addr, 1, 0).unwrap();
            let mut client = Some(NodeClient::connect(transport, 0, vec![p1]).unwrap());
            let mut cycle = None;
            for iter in 0..WARM_ITERS {
                sync.wait();
                if iter == crash_iter {
                    drop(client.take());
                    let crashed = Instant::now();
                    while !dsm.is_dead(p1) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let detect_ms = crashed.elapsed().as_secs_f64() * 1e3;
                    // Restart under a fresh node id (a new incarnation
                    // must not reuse the dead sequence space); the
                    // resumable hello revives p1 from the latest cut,
                    // and the probe read proves the revival completed.
                    let transport = TcpTransport::connect(&addr, 2 as NodeId, 0).unwrap();
                    let fresh = NodeClient::connect(transport, 0, vec![p1]).unwrap();
                    let echoed = fresh.handle(p1).read_u64(PAGE as u64 + 8).unwrap();
                    let recover_ms = crashed.elapsed().as_secs_f64() * 1e3;
                    client = Some(fresh);
                    cycle = Some((
                        Cycle {
                            detect_ms,
                            recover_ms,
                        },
                        echoed,
                    ));
                    continue; // the crashed iteration's write is lost
                }
                let mut h = client.as_ref().unwrap().handle(p1);
                h.write_u64(PAGE as u64 + 8, 0x100 + iter).unwrap();
                h.barrier(barrier).unwrap();
            }
            client.take().unwrap().shutdown().unwrap();
            cycle.expect("the crash iteration ran")
        }
    });

    let mut local = dsm.handle(p0);
    for iter in 0..WARM_ITERS {
        sync.wait();
        local.write_u64(8, 0x200 + iter);
        local.barrier(barrier).unwrap();
    }

    let (cycle, echoed) = victim_thread.join().unwrap();
    serving
        .join()
        .unwrap()
        .expect("the restart superseded the crashed peer; the server retires cleanly");
    (cycle, echoed, dsm)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            // Cargo runs benches with the package as CWD; the committed
            // results live at the workspace root.
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json").to_string()
        });
    let (cut_iters, cycles) = if smoke { (200u64, 1usize) } else { (5_000, 3) };
    // `cargo bench` passes --bench and harness flags; all are ignored.

    let (cut_ms, checkpoint_bytes) = bench_cut(cut_iters);
    println!("checkpoint cut: {cut_ms:.3}ms ({checkpoint_bytes} bytes encoded)");

    let mut runs = Vec::new();
    let mut converged = true;
    for cycle in 0..cycles {
        // Vary the crash point across cycles so recovery is measured
        // against cuts holding different amounts of history.
        let crash_iter = 1 + (cycle as u64) % (WARM_ITERS - 1);
        let (run, echoed, dsm) = kill_and_heal_cycle(crash_iter);
        // The revived incarnation must see p1's last pre-crash write —
        // delivered by catch-up from the automatic cut, not by luck.
        let expected = 0x100 + crash_iter - 1;
        if echoed != expected {
            eprintln!("cycle {cycle}: revived read {echoed:#x}, expected {expected:#x}");
            converged = false;
        }
        let counters = dsm.engine().core().counters();
        println!(
            "cycle {cycle}: detect {:.1}ms  recover {:.1}ms  \
             ({} cuts, {} checkpoint bytes, {} gc deferrals)",
            run.detect_ms,
            run.recover_ms,
            counters.checkpoints_cut,
            counters.checkpoint_bytes,
            counters.gc_deferrals,
        );
        runs.push(run);
    }
    let mean = |f: fn(&Cycle) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
    let max_recover = runs.iter().map(|r| r.recover_ms).fold(0.0f64, f64::max);
    let detect_ms = mean(|r| r.detect_ms);
    let recover_ms = mean(|r| r.recover_ms);
    println!(
        "kill-to-converged: detect {detect_ms:.1}ms  recover {recover_ms:.1}ms \
         (max {max_recover:.1}ms over {cycles} cycles)"
    );

    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"smoke\": {smoke},\n  \
         \"cut_ms\": {cut_ms:.4},\n  \"checkpoint_bytes\": {checkpoint_bytes},\n  \
         \"suspect_after_ms\": {},\n  \"detect_ms\": {detect_ms:.2},\n  \
         \"recover_ms\": {recover_ms:.2},\n  \"recover_max_ms\": {max_recover:.2},\n  \
         \"cycles\": {cycles},\n  \"converged\": {converged}\n}}\n",
        SUSPECT_AFTER.as_millis(),
    );
    std::fs::write(&json_path, &json).expect("write JSON results");
    println!("results written to {json_path}");

    if check {
        // The committed acceptance gate: every cycle converged (the
        // revived processor reads its own pre-crash history back), and
        // automatic recovery finished well inside the bound — loose
        // enough for CI jitter, tight enough to catch a revival path
        // that hangs until some unrelated timeout bails it out.
        assert!(converged, "a revived processor lost pre-crash history");
        assert!(
            max_recover < 5_000.0,
            "recovery took {max_recover:.0}ms — the automatic path stalled"
        );
        println!("check passed");
    }
}
