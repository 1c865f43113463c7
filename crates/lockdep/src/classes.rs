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

use crate::Class;

// ---- runtime blocking layer (`lrc-dsm`), outermost ----

/// Serializes concurrent failure-detector suspicions; held across
/// `declare_dead`, which takes the whole engine hierarchy below it.
pub const DSM_SUSPICION: Class = Class::new("dsm.suspicion", 10);
/// A lock's wait-queue generation counter. Held across the condvar wait
/// for a hand-off and, on the stuck-waiter diagnostic path, while reading
/// the lock table — so it sits below every engine class.
pub const DSM_LOCK_SLOT: Class = Class::new("dsm.lock_slot", 15);
/// The barrier episode counters (runtime parking).
pub const DSM_EPISODES: Class = Class::new("dsm.episodes", 16);
/// The automatic checkpointer's cut state (last episode, delta base,
/// shipped chain). Held across `checkpoint()` (the engine hierarchy
/// below), so it sits above the engine classes.
pub const DSM_CKPT_STATE: Class = Class::new("dsm.ckpt_state", 20);
/// The node server's at-most-once reply cache (executed results plus
/// in-flight marks, keyed by client node and sequence number). Taken by
/// the dispatch loop before enqueueing and by workers after the engine
/// call returns — never held across engine locks.
pub const DSM_REPLY_CACHE: Class = Class::new("dsm.reply_cache", 22);

// ---- engine slow-path gates ----

/// Per-lock gates (acquire/release of one DSM lock serialize here).
/// Instances carry the lock id as order key.
pub const ENGINE_LOCK_GATE: Class = Class::new("engine.lock_gate", 40);
/// Per-page gates (the in-flight-miss table). Instances carry the page
/// id as order key; the eager flush takes several in ascending order.
pub const ENGINE_PAGE_GATE: Class = Class::new("engine.page_gate", 45);

// ---- shared protocol structures ----

/// The lock table (`lrc_sync::LockTable` behind its engine mutex).
pub const SYNC_LOCK_TABLE: Class = Class::new("sync.lock_table", 50);
/// The barrier set (`lrc_sync::BarrierSet` behind its engine mutex).
pub const SYNC_BARRIER_SET: Class = Class::new("sync.barrier_set", 52);
/// The eager engines' page directory (copyset + owner per page).
pub const EAGER_DIRECTORY: Class = Class::new("eager.directory", 54);
/// EI's per-episode buffered modifications.
pub const EAGER_EPOCH_MODS: Class = Class::new("eager.epoch_mods", 56);
/// The lazy engine's interval/diff store (a `RwLock`).
pub const CORE_STORE: Class = Class::new("core.store", 60);
/// The post-GC authoritative-owner map; taken only under the store lock,
/// never held across acquiring anything else.
pub const CORE_GC_OWNER: Class = Class::new("core.gc_owner", 65);

// ---- per-processor shards (innermost protocol state) ----

/// A processor's private shard (page table, clock, dirty list). No path
/// holds two shards at once — cross-processor copies stage through
/// locals — so the class has no order key: nesting two is a violation.
pub const ENGINE_SHARD: Class = Class::new("engine.shard", 70);
/// The death-escrow page buffers (authoritative contents of pages whose
/// post-GC owner died, parked until garbage collection re-homes them).
/// Taken after a shard lock on the death and GC paths.
pub const CORE_ESCROW: Class = Class::new("core.escrow", 75);

// ---- leaf instrumentation (held-nothing-else-after tiers) ----

/// The history recorder's per-processor read-sampling counters.
pub const HIST_READS_SEEN: Class = Class::new("hist.reads_seen", 89);
/// The history recorder's per-processor event logs; the engines log
/// while holding shards, gates, or the store, so logs sit below only the
/// fabric trace.
pub const HIST_LOG: Class = Class::new("hist.log", 90);
/// The simulated fabric's optional per-message trace, charged from deep
/// inside both engines: the innermost class of the protocol plane.
pub const SIMNET_TRACE: Class = Class::new("simnet.trace", 95);

// ---- wire transports (disjoint from the protocol plane) ----

/// A self-healing transport's current-connection slot (a `RwLock`
/// around the live inner transport); the inner transport's own locks
/// (pending table, peer maps, queues) are taken while a snapshot of this
/// slot is held, so it sits just below them.
pub const NET_HEAL: Class = Class::new("net.heal", 79);
/// A node client's pending-reply table.
pub const NET_PENDING: Class = Class::new("net.pending", 80);
/// Fault-injection decision state (advanced per attempted send).
pub const NET_FAULT_STATE: Class = Class::new("net.fault_state", 82);
/// Fault-injection dropped-frame counter.
pub const NET_FAULT_DROPPED: Class = Class::new("net.fault_dropped", 83);
/// A TCP endpoint's per-peer send-queue map.
pub const NET_PEERS: Class = Class::new("net.peers", 85);
/// A transport endpoint's incoming-frame queue (channel and TCP); held
/// across the blocking queue read, innermost of the transport classes.
pub const NET_INCOMING: Class = Class::new("net.incoming", 86);
