//! `lrc-net` — the wire protocol and pluggable transports that run the
//! DSM as message-passing nodes.
//!
//! The paper's protocol was designed for message-passing multicomputers,
//! but the rest of this workspace executes it as in-process method calls
//! over a *simulated* fabric. This crate is the missing layer for a real
//! deployment, in three parts:
//!
//! * **Wire codec** ([`wire`]) — a versioned binary format for every
//!   protocol message: lock request/forward/grant, barrier arrival/exit,
//!   page-miss request/reply, write-notice batches (interval records),
//!   diffs, and the node runtime's RPC envelope. Payload encodings match
//!   `lrc-simnet`'s modeled sizes wherever the model is implementable
//!   byte for byte (clocks, notice records, diffs, the 32-byte header),
//!   turning the simulator's byte accounting into a measurement.
//! * **Transports** ([`Transport`]) — the in-process [`ChannelTransport`]
//!   (deterministic, loopback, used by the `net_vs_sim` conformance
//!   suite) and the [`TcpTransport`], the one socket backend
//!   (length-prefixed framing, connection management, per-peer send/recv
//!   threads, queued frames sharing a socket write). Both meter the bytes
//!   they actually move ([`WireStats`]).
//! * The **node runtime** lives in `lrc-dsm` (`lrc_dsm::node`): it hosts
//!   processors on nodes and services remote requests by decoding frames
//!   into [`lrc_core::EngineOp`]s and dispatching them into the engines.
//!
//! # Example
//!
//! ```
//! use lrc_net::{ChannelNet, Transport, WireCtx, WireMsg};
//! use lrc_vclock::ProcId;
//!
//! let mut mesh = ChannelNet::mesh(2);
//! let b = mesh.pop().unwrap();
//! let a = mesh.pop().unwrap();
//!
//! a.send(
//!     &WireMsg::Hello { node: 0, procs: vec![ProcId::new(0)] },
//!     1,
//!     0,
//! )?;
//! let frame = b.recv()?;
//! let msg = WireMsg::decode(frame.kind, &frame.body, &WireCtx { n_procs: 2 })?;
//! assert!(matches!(msg, WireMsg::Hello { node: 0, .. }));
//! assert_eq!(a.stats().bytes_sent, frame.wire_len() as u64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod fault;
mod heal;
mod tcp;
mod transport;
pub mod wire;

pub use channel::{ChannelNet, ChannelTransport};
pub use fault::{FaultPlan, FaultRule, FaultyTransport};
pub use heal::{Connector, SelfHealing};
pub use tcp::{TcpHub, TcpTransport};
pub use transport::{Backoff, NetError, NodeId, Transport, WireMeter, WireStats};
pub use wire::{
    Frame, NoticeBatch, NoticeInterval, WireCtx, WireDiff, WireError, WireKind, WireMsg,
    FRAME_HEADER_BYTES, MAX_BODY_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
