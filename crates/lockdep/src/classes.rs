//! The workspace lock hierarchy, one [`Class`] per lock family.
//!
//! This table is the machine-checked form of the README's "Lock order"
//! paragraph: levels ascend in acquisition order (a thread may acquire a
//! class only while every explicitly-leveled lock it holds has a strictly
//! lower level), and classes whose instances may nest (lock gates, page
//! gates) carry per-instance order keys at construction. Untagged locks
//! get per-callsite auto-classes and are covered by cycle detection only.
//!
//! Gaps between levels are deliberate: future tiers slot in without
//! renumbering the tree.
//!
//! The protocol engine itself holds no lock: it is plain data driven
//! through `&mut self`. The threaded runtime keeps it behind one mutex,
//! [`DSM_ENGINE`], together with everything else the runtime shares (the
//! checkpointer's newest cut, the per-barrier episode counts), and every
//! runtime wait — an acquire, a barrier arrival, a miss on a page being
//! fetched — parks on a condvar of that mutex. So the runtime's blocking
//! layer is one class, and the only lock taken under it is the history
//! recorder's log ([`HIST_LOG`]).
//!
//! The README's lockdep class table lists every class here with its
//! level; `tests/source_conformance.rs` checks the two agree.

use crate::Class;

// ---- runtime blocking layer (`lrc-dsm`), outermost ----

/// The runtime's shared state: the protocol engine, the automatic
/// checkpointer's newest cut and the barriers' completed-episode counts.
/// Taken once per operation (and released across a miss's fetch); every
/// runtime wait parks on one of its condvars, and a suspicion declares a
/// death in the hold that found it.
pub const DSM_ENGINE: Class = Class::new("dsm.engine", 18);
/// The node server's at-most-once reply cache (executed results plus
/// in-flight marks, keyed by client node and sequence number). Taken by
/// the dispatch loop before enqueueing and by workers after the engine
/// call returns — never held across engine locks.
pub const DSM_REPLY_CACHE: Class = Class::new("dsm.reply_cache", 22);

// ---- leaf instrumentation (held-nothing-else-after tiers) ----

/// The history recorder's per-processor event logs; the engines log
/// while the runtime holds them, so logs are the innermost class of the
/// protocol plane.
pub const HIST_LOG: Class = Class::new("hist.log", 90);

// ---- wire transports (disjoint from the protocol plane) ----

/// A self-healing transport's current-connection slot (a `RwLock`
/// around the live inner transport); the inner transport's own locks
/// (pending table, peer maps, queues) are taken while a snapshot of this
/// slot is held, so it sits just below them.
pub const NET_HEAL: Class = Class::new("net.heal", 79);
/// A node client's pending-reply table.
pub const NET_PENDING: Class = Class::new("net.pending", 80);
/// Fault-injection decision state (advanced per attempted send) and its
/// dropped-frame count.
pub const NET_FAULT_STATE: Class = Class::new("net.fault_state", 82);
/// A TCP endpoint's per-peer send-queue map.
pub const NET_PEERS: Class = Class::new("net.peers", 85);
/// A transport endpoint's incoming-frame queue (channel and TCP); held
/// across the blocking queue read, innermost of the transport classes.
pub const NET_INCOMING: Class = Class::new("net.incoming", 86);
