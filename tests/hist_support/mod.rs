//! Shared driver for the history-checking conformance suites
//! (`hist_threaded`, `hist_net`, `hist_mutations`): build a runtime DSM,
//! attach a history recorder, run a [`ThreadProgram`] on real threads
//! (locally or through the node runtime), and feed the recorded history
//! to the `lrc-hist` checker. On failure, shrink the program and render a
//! seed-plus-minimized-program report.
#![allow(dead_code)] // each suite uses a subset of the helpers

use std::sync::Arc;
use std::time::Duration;

use lrc::dsm::{Dsm, DsmBuilder, ProcHandle, RemoteHandle};
use lrc::hist::{CheckBudget, CheckReport, HistError, History, HistoryRecorder};
use lrc::net::{ChannelNet, TcpTransport, Transport};
use lrc::sim::ProtocolKind;
use lrc::vclock::ProcId;
use lrc::workloads::{HistCmd, ProgramShape, ThreadOp, ThreadProgram};

/// Deadline for every blocking wait: generous for CI, but a lost wake-up
/// fails with a stuck-waiter report instead of hanging the job.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// One protocol × ablation × page-size cell to run a program under.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Protocol.
    pub kind: ProtocolKind,
    /// Page size in bytes (small pages split regions, large pages force
    /// false sharing).
    pub page: usize,
    /// Barrier-time garbage collection (lazy only).
    pub gc: bool,
    /// Disable write-notice piggybacking (lazy only).
    pub no_piggyback: bool,
    /// Ship whole pages on warm misses (lazy only).
    pub full_pages: bool,
}

impl RunConfig {
    pub fn stock(kind: ProtocolKind, page: usize) -> RunConfig {
        RunConfig {
            kind,
            page,
            gc: false,
            no_piggyback: false,
            full_pages: false,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{}@{}{}{}{}",
            self.kind,
            self.page,
            if self.gc { " +gc" } else { "" },
            if self.no_piggyback { " -piggyback" } else { "" },
            if self.full_pages { " +full-pages" } else { "" },
        )
    }
}

/// A program whose cross-processor data flow is *forced by barriers*:
/// every phase, every processor publishes a slot and reads what everyone
/// published a phase earlier (plus a shared critical section). Thread
/// timing cannot hide a protocol that fails to propagate writes — the
/// happens-before edges demand the data on every run — which is what
/// lets one stock test kill every protocol mutant in `MUTANTS.txt`.
pub fn forced_flow_program(n_procs: usize, phases: usize) -> ThreadProgram {
    ThreadProgram {
        n_procs,
        n_locks: 1,
        phases: (0..phases)
            .map(|_| {
                (0..n_procs)
                    .map(|_| {
                        vec![
                            HistCmd::Exchange,
                            HistCmd::Critical {
                                lock: 0,
                                word: 0,
                                span: 2,
                            },
                        ]
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Builds the runtime for a program under a config (recorder not yet
/// attached).
pub fn build_dsm(prog: &ThreadProgram, cfg: &RunConfig) -> Dsm {
    let mut builder = DsmBuilder::new(cfg.kind, prog.n_procs, prog.mem_bytes())
        .page_size(cfg.page)
        .locks(prog.n_locks.max(1))
        .barriers(1)
        .wait_timeout(WAIT_TIMEOUT);
    if cfg.gc {
        builder = builder.gc_at_barriers();
    }
    if cfg.no_piggyback {
        builder = builder.no_piggyback();
    }
    if cfg.full_pages {
        builder = builder.full_page_misses();
    }
    builder.build().expect("program-derived config is valid")
}

/// Runs one processor's script through a local handle.
pub fn run_ops_local(handle: &mut ProcHandle, ops: &[ThreadOp]) {
    for op in ops {
        match op {
            ThreadOp::Acquire(l) => handle.acquire(*l).expect("legal script"),
            ThreadOp::Release(l) => handle.release(*l).expect("legal script"),
            ThreadOp::Read { addr } => {
                let _ = handle.read_u64(*addr);
            }
            ThreadOp::Write { addr, value } => handle.write_u64(*addr, *value),
            ThreadOp::Barrier(b) => handle.barrier(*b).expect("legal script"),
        }
    }
}

/// Runs one processor's script through the node runtime's wire-backed
/// handle.
pub fn run_ops_remote(handle: &mut RemoteHandle, ops: &[ThreadOp]) {
    for op in ops {
        match op {
            ThreadOp::Acquire(l) => handle.acquire(*l).expect("legal script"),
            ThreadOp::Release(l) => handle.release(*l).expect("legal script"),
            ThreadOp::Read { addr } => {
                let _ = handle.read_u64(*addr).expect("legal script");
            }
            ThreadOp::Write { addr, value } => {
                handle.write_u64(*addr, *value).expect("legal script")
            }
            ThreadOp::Barrier(b) => handle.barrier(*b).expect("legal script"),
        }
    }
}

/// Runs the program on real threads (one per processor) through a shared
/// engine and returns the recorded history.
pub fn run_threaded(prog: &ThreadProgram, cfg: &RunConfig) -> History {
    let dsm = build_dsm(prog, cfg);
    let recorder = HistoryRecorder::new(prog.n_procs);
    dsm.attach_recorder(Arc::clone(&recorder));
    dsm.parallel(|proc| {
        run_ops_local(proc, &prog.ops_for(proc.proc()));
        Ok(())
    })
    .expect("threaded run completes");
    recorder.finish()
}

/// Runs the program through the channel-transport node runtime:
/// processor 0 stays on the engine node, every other processor is hosted
/// by a peer node and drives its operations over the wire. Returns the
/// recorded history (the recorder sits on the engine, so remote
/// operations are logged where they execute).
pub fn run_over_channel_nodes(prog: &ThreadProgram, cfg: &RunConfig) -> History {
    let mut mesh = ChannelNet::mesh(2);
    let client_end = mesh.pop().expect("two endpoints");
    let server_end = mesh.pop().expect("two endpoints");
    run_over_nodes(prog, cfg, server_end, client_end)
}

/// Like [`run_over_channel_nodes`], but the two nodes talk over real
/// loopback sockets ([`TcpTransport`]): the recorded history must be
/// exactly as conformant as over the in-process mesh.
pub fn run_over_tcp_nodes(prog: &ThreadProgram, cfg: &RunConfig) -> History {
    let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind loopback");
    let addr = hub.local_addr();
    let connecting =
        std::thread::spawn(move || TcpTransport::connect(&addr, 1, 0).expect("connect"));
    let server_end = hub.accept(1).expect("accept");
    let client_end = connecting.join().expect("connect thread");
    run_over_nodes(prog, cfg, server_end, client_end)
}

/// The node-runtime run over whichever connected transport pair the
/// caller built (`server_end` is node 0, where the engine lives).
fn run_over_nodes(
    prog: &ThreadProgram,
    cfg: &RunConfig,
    server_end: impl Transport + 'static,
    client_end: impl Transport + 'static,
) -> History {
    let dsm = build_dsm(prog, cfg);
    let recorder = HistoryRecorder::new(prog.n_procs);
    dsm.attach_recorder(Arc::clone(&recorder));

    let server = lrc::dsm::NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    let remote_procs: Vec<ProcId> = (1..prog.n_procs).map(|i| ProcId::new(i as u16)).collect();
    let client =
        lrc::dsm::NodeClient::connect(client_end, 0, remote_procs.clone()).expect("connect");

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut local = dsm.handle(ProcId::new(0));
            run_ops_local(&mut local, &prog.ops_for(ProcId::new(0)));
        });
        for &p in &remote_procs {
            let mut remote = client.handle(p);
            let ops = prog.ops_for(p);
            scope.spawn(move || run_ops_remote(&mut remote, &ops));
        }
    });

    client.shutdown().expect("clean shutdown");
    serving
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
    recorder.finish()
}

/// Runs and checks in one step.
pub fn run_and_check(
    prog: &ThreadProgram,
    cfg: &RunConfig,
) -> (History, Result<CheckReport, HistError>) {
    let hist = run_threaded(prog, cfg);
    let verdict = hist.check(&CheckBudget::default());
    (hist, verdict)
}

/// The failure report the suites print: reproducing seed, config, checker
/// error, the (minimized) program, and the recorded history.
pub fn failure_report(
    seed: u64,
    cfg: &RunConfig,
    prog: &ThreadProgram,
    err: &HistError,
    hist: &History,
) -> String {
    format!(
        "history conformance failure\n\
         reproducing seed: {seed}\n\
         config: {}\n\
         error: {err}\n\
         minimized program:\n{}\
         recorded history:\n{}",
        cfg.label(),
        prog.render(),
        hist.render(24),
    )
}

/// Checks one seeded program under one config; on failure, shrinks the
/// program (against a fails-twice-in-a-row oracle, so timing-dependent
/// candidates don't survive) and panics with the seed + minimized trace.
pub fn check_seed_threaded(seed: u64, shape: &ProgramShape, cfg: &RunConfig) {
    let prog = ThreadProgram::generate(seed, shape);
    let (hist, verdict) = run_and_check(&prog, cfg);
    let Err(err) = verdict else { return };
    let fails_twice = |p: &ThreadProgram| {
        (0..2).all(|_| run_threaded(p, cfg).check(&CheckBudget::default()).is_err())
    };
    if !fails_twice(&prog) {
        // Not deterministic enough to shrink: report the original run.
        panic!("{}", failure_report(seed, cfg, &prog, &err, &hist));
    }
    let min = prog.shrink(fails_twice);
    match run_and_check(&min, cfg) {
        (min_hist, Err(min_err)) => {
            panic!("{}", failure_report(seed, cfg, &min, &min_err, &min_hist))
        }
        // The confirming re-run of the minimized program happened to
        // pass (timing): report the original failing run instead of
        // pairing its error with a passing history.
        _ => panic!("{}", failure_report(seed, cfg, &prog, &err, &hist)),
    }
}
