//! Lazy release consistency for software distributed shared memory.
//!
//! A full reproduction of *Keleher, Cox, Zwaenepoel: Lazy Release
//! Consistency for Software Distributed Shared Memory* (ISCA 1992) as a
//! Rust workspace. This facade crate re-exports every subsystem:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `lrc-core` | the LRC protocol engine (the paper's contribution) |
//! | [`eager`] | `lrc-eager` | the Munin-style eager RC baseline |
//! | [`sim`] | `lrc-sim` | trace-driven simulator, SC oracle, sweeps |
//! | [`dsm`] | `lrc-dsm` | threaded runtime DSM with locks/barriers, node runtime |
//! | [`hist`] | `lrc-hist` | recorded-history conformance checking (SC witness search) |
//! | [`net`] | `lrc-net` | wire protocol and pluggable transports |
//! | [`workloads`] | `lrc-workloads` | SPLASH-like trace generators |
//! | [`trace`] | `lrc-trace` | trace model, validation, race detection |
//! | [`pagemem`] | `lrc-pagemem` | pages, twins, diffs |
//! | [`simnet`] | `lrc-simnet` | message fabric and accounting |
//! | [`sync`] | `lrc-sync` | lock directory and barrier masters |
//! | [`vclock`] | `lrc-vclock` | vector timestamps and intervals |
//!
//! # Quickstart
//!
//! Reproduce a slice of the paper's evaluation in a few lines — generate a
//! SPLASH-like trace, sweep it across protocols and page sizes, and print
//! the figure:
//!
//! ```
//! use lrc::sim::{sweep, Metric, SweepConfig};
//! use lrc::workloads::{AppKind, Scale};
//!
//! let trace = AppKind::Cholesky.generate(&Scale::small(4));
//! let result = sweep(&trace, &SweepConfig::default())?;
//! println!("{}", result.render(Metric::Messages));
//! # Ok::<(), lrc::sim::SimError>(())
//! ```
//!
//! Or program against the runtime DSM directly — see [`dsm`] and the
//! `examples/` directory.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use lrc_core as core;
pub use lrc_dsm as dsm;
pub use lrc_eager as eager;
pub use lrc_hist as hist;
pub use lrc_net as net;
pub use lrc_pagemem as pagemem;
pub use lrc_sim as sim;
pub use lrc_simnet as simnet;
pub use lrc_sync as sync;
pub use lrc_trace as trace;
pub use lrc_vclock as vclock;
pub use lrc_workloads as workloads;

// The runtime shares one engine between every processor's thread behind
// its mutex, so an engine must be `Send`; the runtime, and the facade its
// `engine()` hands out, must be `Send + Sync`.
const _: () = {
    const fn send<T: Send>() {}
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<lrc_dsm::Dsm>();
    send_sync::<lrc_dsm::SharedEngine<'static>>();
    send::<lrc_sim::AnyEngine>();
    send::<lrc_core::LrcEngine>();
    send::<lrc_eager::EagerEngine>();
};
