//! The node runtime: hosting the DSM's processors across message-passing
//! nodes.
//!
//! A deployment has one **engine node** running a [`NodeServer`] around
//! the shared [`Dsm`], and any number of **peer nodes** whose processors
//! are driven through a [`NodeClient`]. A remote processor's operations no
//! longer call the engine directly: each one is encoded as a wire frame
//! ([`lrc_net::WireMsg::OpRequest`]), moved by a pluggable
//! [`lrc_net::Transport`] (in-process channels or TCP), decoded on the
//! engine node, and dispatched through [`ProcHandle::apply`] — the same
//! blocking lock/barrier semantics local threads get, because the server
//! runs one worker thread per remote processor.
//!
//! The simulated fabric keeps charging *modeled* message sizes inside the
//! engine; the transport meters the bytes its codec *actually* produces
//! ([`lrc_net::WireStats`]), so a run reports both sides of the
//! modeled-vs-measured cross-check.
//!
//! # Example (in-process channel transport)
//!
//! ```
//! use lrc_dsm::{DsmBuilder, NodeClient, NodeServer};
//! use lrc_net::ChannelNet;
//! use lrc_sim::ProtocolKind;
//! use lrc_vclock::ProcId;
//!
//! let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14).build()?;
//! let mut mesh = ChannelNet::mesh(2);
//! let client_end = mesh.pop().unwrap();
//! let server_end = mesh.pop().unwrap();
//!
//! let server = NodeServer::new(dsm.clone(), server_end);
//! let serving = std::thread::spawn(move || server.serve());
//!
//! // Node 1 hosts p1; p0 stays local to the engine node.
//! let client = NodeClient::connect(client_end, 0, vec![ProcId::new(1)])?;
//! let mut remote = client.handle(ProcId::new(1));
//! remote.write_u64(64, 7)?;
//! assert_eq!(remote.read_u64(64)?, 7);
//! client.shutdown()?;
//! serving.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::lockdep::classes;
use parking_lot::Mutex;
use std::thread::JoinHandle;

use lrc_core::EngineOp;
use lrc_net::{NetError, NodeId, Transport, WireCtx, WireKind, WireMsg, WireStats};
use lrc_sim::AnyCheckpoint;
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

use crate::cluster::Dsm;

/// Errors surfaced by the node runtime.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeError {
    /// The transport failed.
    Net(NetError),
    /// The peer violated the session protocol.
    Protocol(String),
    /// The engine node reported an operation failure (rendered; the typed
    /// error lives on the server side).
    Remote(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Net(e) => write!(f, "transport error: {e}"),
            NodeError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            NodeError::Remote(detail) => write!(f, "remote operation failed: {detail}"),
        }
    }
}

impl Error for NodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NodeError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for NodeError {
    fn from(e: NetError) -> Self {
        NodeError::Net(e)
    }
}

impl From<lrc_net::WireError> for NodeError {
    fn from(e: lrc_net::WireError) -> Self {
        NodeError::Net(NetError::Wire(e))
    }
}

/// How many executed results the server's at-most-once cache retains.
/// Replays arrive within a reconnect window (one link generation), so a
/// small bound suffices; older entries evict FIFO.
const REPLY_CACHE_CAP: usize = 1024;

/// The server's at-most-once layer: executed results (so a replayed
/// request is answered from cache instead of re-applied) and in-flight
/// marks (so a replay of a request still executing is dropped — its
/// eventual reply satisfies the same sequence number client-side).
///
/// Keys are `(client node, sequence number)`. A client that restarts its
/// sequence space must present a fresh node id (or the rejoin handshake);
/// the healing path — same incarnation, same id, monotonic sequences —
/// is the one this cache serves.
#[derive(Default)]
struct ReplyCache {
    executed: HashMap<(NodeId, u64), Result<Vec<u8>, String>>,
    order: VecDeque<(NodeId, u64)>,
    inflight: HashSet<(NodeId, u64)>,
}

/// The dispatch loop's verdict on an incoming operation request.
enum Admission {
    /// Never seen: execute it.
    Fresh,
    /// Executing right now: drop the replay, the reply is coming.
    InFlight,
    /// Already executed: answer from cache without re-applying.
    Replay(Result<Vec<u8>, String>),
}

impl ReplyCache {
    fn admit(&mut self, key: (NodeId, u64)) -> Admission {
        if let Some(result) = self.executed.get(&key) {
            return Admission::Replay(result.clone());
        }
        if !self.inflight.insert(key) {
            return Admission::InFlight;
        }
        Admission::Fresh
    }

    fn record(&mut self, key: (NodeId, u64), result: Result<Vec<u8>, String>) {
        self.inflight.remove(&key);
        if self.executed.insert(key, result).is_none() {
            self.order.push_back(key);
            if self.order.len() > REPLY_CACHE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.executed.remove(&old);
                }
            }
        }
    }

    /// Un-admits a request that never produced a result (dropped before
    /// dispatch, or its engine call panicked at a death boundary). Without
    /// this the key would stay in-flight forever and the client's replay
    /// would be dropped instead of executed.
    fn forget(&mut self, key: (NodeId, u64)) {
        self.inflight.remove(&key);
    }
}

/// A remote processor's worker: the sending end of its operation queue
/// `(seq, client node, op)` and the thread draining it.
type Worker = (Sender<(u64, NodeId, EngineOp)>, JoinHandle<()>);

/// The engine node's service loop: decodes incoming frames and dispatches
/// remote processors' operations into the shared [`Dsm`].
///
/// One worker thread runs per announced remote processor, owning that
/// processor's [`crate::ProcHandle`]; contended acquires and barrier
/// arrivals therefore block exactly like local threads, without stalling
/// the dispatch loop.
pub struct NodeServer {
    dsm: Dsm,
    transport: Arc<dyn Transport>,
    ctx: WireCtx,
    cache: Arc<Mutex<ReplyCache>>,
}

impl NodeServer {
    /// Wraps a running DSM and a transport endpoint into a server.
    pub fn new(dsm: Dsm, transport: impl Transport + 'static) -> NodeServer {
        let ctx = WireCtx {
            n_procs: dsm.n_procs(),
        };
        NodeServer {
            dsm,
            transport: Arc::new(transport),
            ctx,
            cache: Arc::new(Mutex::new_in(
                ReplyCache::default(),
                classes::DSM_REPLY_CACHE,
            )),
        }
    }

    /// Measured wire traffic of this node.
    pub fn wire_stats(&self) -> WireStats {
        self.transport.stats()
    }

    /// Spawns the worker thread that owns `proc`'s handle and drains its
    /// operation queue.
    fn spawn_worker(&self, proc: ProcId) -> Worker {
        let (tx, rx) = channel::<(u64, NodeId, EngineOp)>();
        let mut handle = self.dsm.handle(proc);
        let transport = Arc::clone(&self.transport);
        let cache = Arc::clone(&self.cache);
        let thread = std::thread::Builder::new()
            .name(format!("lrc-node-worker-{proc}"))
            .spawn(move || {
                while let Ok((seq, src, op)) = rx.recv() {
                    // Contain engine panics: declaring this processor dead
                    // mid-operation panics the blocked call (locks force-
                    // released, episodes completed on its behalf). The
                    // request is *forgotten* — not recorded as executed —
                    // so the client's replay after the revival handshake
                    // executes fresh instead of hitting a stale verdict.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle.apply(&op).map_err(|e| e.to_string())
                    }));
                    let result = match outcome {
                        Ok(result) => result,
                        Err(_) => {
                            cache.lock().forget((src, seq));
                            continue;
                        }
                    };
                    // Record before replying: once the result is cached,
                    // a replay of this request (the reply lost with a dead
                    // link) is answered from cache, never re-applied.
                    cache.lock().record((src, seq), result.clone());
                    let reply = WireMsg::OpReply { result };
                    // A failed reply send means the client's link is down
                    // right now — keep draining; the client replays after
                    // its link heals and hits the cache.
                    let _ = transport.send(&reply, src, seq);
                }
            })
            .expect("spawn node worker");
        (tx, thread)
    }

    /// Hands `proc` to `node`, superseding whatever incarnation drove it
    /// before. Returns `false` if `proc` is dead and cannot be revived.
    fn rehost(
        &self,
        workers: &mut HashMap<ProcId, Worker>,
        hosts: &mut HashMap<ProcId, NodeId>,
        peers: &mut Vec<NodeId>,
        proc: ProcId,
        node: NodeId,
    ) -> bool {
        // Retire the stale worker first: dropping its sender drains it to
        // exit. Its pending operations finished or panicked when the death
        // was declared (locks force-released, episodes completed), so the
        // join is bounded — and joining *before* the revival guarantees no
        // old-incarnation retry runs against the revived processor.
        if let Some((tx, thread)) = workers.remove(&proc) {
            drop(tx);
            let _ = thread.join();
        }
        // A dead processor must be revived in-engine before any operation
        // runs on its behalf (a rejoin handshake already did).
        if self.dsm.is_dead(proc) && !self.dsm.try_revive(proc) {
            return false;
        }
        workers.insert(proc, self.spawn_worker(proc));
        if let Some(old) = hosts.insert(proc, node) {
            // If the superseded node now hosts nothing, stop waiting for
            // its Shutdown — it is gone and will never send one.
            if old != node && !hosts.values().any(|&n| n == old) {
                peers.retain(|&n| n != old);
            }
        }
        true
    }

    /// Serves until every greeted peer has sent [`WireMsg::Shutdown`],
    /// then joins the workers and returns.
    ///
    /// The exit condition counts *greeted* peers (nodes whose `Hello`
    /// has been processed): a `Shutdown` from a never-greeted node is a
    /// protocol violation, and with several peers the caller must ensure
    /// every peer connects before the first one shuts down — otherwise
    /// the server can retire while a late `Hello` is still in flight.
    /// A crashed peer never sends `Shutdown`; it stops blocking the exit
    /// once a [`WireMsg::RejoinRequest`] from a different node takes over
    /// the last processor it hosted.
    ///
    /// # Errors
    ///
    /// [`NodeError`] on transport failures or protocol violations (an
    /// operation for an unannounced processor, a malformed frame, a
    /// `Shutdown` before any `Hello` from that node).
    pub fn serve(&self) -> Result<(), NodeError> {
        let mut workers: HashMap<ProcId, Worker> = HashMap::new();
        let mut greeted: Vec<NodeId> = Vec::new();
        let mut peers: Vec<NodeId> = Vec::new();
        // Which node hosts each remote processor — so a rejoin from a
        // *different* node supersedes the dead incarnation: once the old
        // node hosts nothing, it is no longer waited on for a Shutdown
        // (a crashed peer never sends one).
        let mut hosts: HashMap<ProcId, NodeId> = HashMap::new();
        let result = loop {
            let frame = match self.transport.recv() {
                Ok(frame) => frame,
                Err(e) => break Err(NodeError::from(e)),
            };
            let msg = match WireMsg::decode(frame.kind, &frame.body, &self.ctx) {
                Ok(msg) => msg,
                Err(e) => break Err(NodeError::from(e)),
            };
            match msg {
                WireMsg::Hello { node, procs } => {
                    if !greeted.contains(&node) {
                        greeted.push(node);
                    }
                    if !peers.contains(&node) {
                        peers.push(node);
                    }
                    if let Some(bad) = procs.iter().find(|p| p.index() >= self.dsm.n_procs()) {
                        break Err(NodeError::Protocol(format!(
                            "node {node} announced out-of-range processor {bad}"
                        )));
                    }
                    let mut failure = None;
                    for &proc in &procs {
                        let dead = self.dsm.is_dead(proc);
                        match hosts.get(&proc).copied() {
                            // A resumable hello: the same node re-announces
                            // after a link heal and its processor never
                            // died — the worker is intact, nothing to do.
                            Some(host) if host == node && !dead => continue,
                            // Two live nodes claiming one processor would
                            // let two threads drive it concurrently,
                            // breaking per-processor program order.
                            Some(host) if host != node && !dead => {
                                failure = Some(format!(
                                    "processor {proc} is already hosted by node {host}"
                                ));
                                break;
                            }
                            // Dead incarnation (either node) or a fresh
                            // announcement: supersede below.
                            _ => {}
                        }
                        if !self.rehost(&mut workers, &mut hosts, &mut peers, proc, node) {
                            failure = Some(format!(
                                "processor {proc} is dead and no shipped checkpoint \
                                 can revive it (configure a checkpoint policy, or \
                                 rejoin explicitly with a saved checkpoint)"
                            ));
                            break;
                        }
                    }
                    if let Some(detail) = failure {
                        break Err(NodeError::Protocol(detail));
                    }
                }
                WireMsg::OpRequest { proc, op } => {
                    let key = (frame.src, frame.seq);
                    match self.cache.lock().admit(key) {
                        Admission::Replay(result) => {
                            // Answered once already — the reply died with
                            // the old link. Resend from cache; if this
                            // send fails too, the next replay retries.
                            let _ = self.transport.send(
                                &WireMsg::OpReply { result },
                                frame.src,
                                frame.seq,
                            );
                            continue;
                        }
                        Admission::InFlight => continue,
                        Admission::Fresh => {}
                    }
                    // An operation acts only for a processor its sender
                    // hosts; anything else is refused, on the record.
                    let refusal = match hosts.get(&proc) {
                        Some(&host) if host == frame.src => {
                            // A request for a dead processor would panic
                            // the worker if dispatched. But an operation
                            // from the processor's *current* host is a live
                            // driver showing up — exactly the revival
                            // trigger. This covers both a request that
                            // outran its incarnation's resumable hello (the
                            // link healed mid-send) and a false suspicion
                            // (a slow-but-alive processor declared dead
                            // over a healthy link, which will never
                            // re-hello). If revival is impossible — no
                            // recovery configured — drop and forget, so a
                            // later replay of the same sequence number is
                            // admitted fresh.
                            if self.dsm.is_dead(proc) && !self.dsm.try_revive(proc) {
                                self.cache.lock().forget(key);
                                continue;
                            }
                            let queued = workers
                                .get(&proc)
                                .is_some_and(|(tx, _)| tx.send((frame.seq, frame.src, op)).is_ok());
                            if !queued {
                                break Err(NodeError::Protocol(format!(
                                    "worker for {proc} is gone"
                                )));
                            }
                            continue;
                        }
                        Some(host) => format!("processor {proc} is hosted by node {host}"),
                        None => format!("processor {proc} is not hosted remotely"),
                    };
                    let result = Err(refusal);
                    self.cache.lock().record(key, result.clone());
                    let reply = WireMsg::OpReply { result };
                    if let Err(e) = self.transport.send(&reply, frame.src, frame.seq) {
                        break Err(NodeError::from(e));
                    }
                }
                WireMsg::RejoinRequest {
                    node,
                    proc,
                    checkpoint,
                } => {
                    // A restarted incarnation announces itself. The rejoin
                    // handshake replaces the Hello: on success the node is
                    // greeted and the processor hosted fresh.
                    let outcome = if proc.index() >= self.dsm.n_procs() {
                        Err(format!("processor {proc} out of range"))
                    } else {
                        AnyCheckpoint::decode(&checkpoint)
                            .map_err(|e| e.to_string())
                            .and_then(|ckpt| {
                                self.dsm.rejoin(proc, &ckpt).map_err(|e| e.to_string())?;
                                Ok(match &ckpt {
                                    AnyCheckpoint::Lazy(c) => c.episode,
                                    AnyCheckpoint::Eager(_) => 0,
                                })
                            })
                    };
                    // The rejoin revived the processor, so this only swaps
                    // the dead incarnation's worker and host for the
                    // restarted one's — unless a waiter suspected the
                    // still-silent processor in between.
                    let outcome = outcome.and_then(|episode| {
                        if self.rehost(&mut workers, &mut hosts, &mut peers, proc, node) {
                            Ok(episode)
                        } else {
                            Err(format!("processor {proc} was declared dead again"))
                        }
                    });
                    if outcome.is_ok() {
                        if !greeted.contains(&node) {
                            greeted.push(node);
                        }
                        if !peers.contains(&node) {
                            peers.push(node);
                        }
                    }
                    let reply = WireMsg::RejoinReply { result: outcome };
                    if let Err(e) = self.transport.send(&reply, frame.src, frame.seq) {
                        break Err(NodeError::from(e));
                    }
                }
                WireMsg::Shutdown => {
                    if !greeted.contains(&frame.src) {
                        break Err(NodeError::Protocol(format!(
                            "node {} sent Shutdown before any Hello",
                            frame.src
                        )));
                    }
                    peers.retain(|&n| n != frame.src);
                    if peers.is_empty() {
                        break Ok(());
                    }
                }
                other => {
                    break Err(NodeError::Protocol(format!(
                        "unexpected {} from node {}",
                        other.kind(),
                        frame.src
                    )))
                }
            }
        };
        // Close every channel first, so the workers drain and exit.
        let threads: Vec<JoinHandle<()>> =
            workers.into_values().map(|(_, thread)| thread).collect();
        for thread in threads {
            let _ = thread.join();
        }
        result
    }
}

impl fmt::Debug for NodeServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NodeServer(node {}, {} procs)",
            self.transport.node(),
            self.dsm.n_procs()
        )
    }
}

/// A blocked caller's reply slot: `Ok(bytes)` or the rendered remote
/// error.
type ReplySlot = Sender<Result<Vec<u8>, String>>;

/// How often a blocked caller re-checks the link generation while waiting
/// for its reply. Legitimate waits (contended locks, barrier parking) can
/// be arbitrarily long, so a timeout alone never fails an operation —
/// only a *generation change* (the link died and healed under us)
/// triggers a replay of the same sequence number.
const REPLAY_POLL: Duration = Duration::from_millis(100);

struct ClientInner {
    transport: Arc<dyn Transport>,
    engine_node: NodeId,
    procs: Vec<ProcId>,
    next_seq: AtomicU64,
    /// The link generation this client last announced itself for. After a
    /// heal (generation moved) the first replaying caller re-sends the
    /// `Hello` — the *resumable hello* that supersedes the server's stale
    /// peer mapping and revives processors declared dead while the link
    /// was down — before replaying its operation.
    hello_generation: AtomicU64,
    pending: Mutex<HashMap<u64, ReplySlot>>,
}

impl ClientInner {
    /// Re-announces this node once per healed link generation (the first
    /// caller to observe the new generation wins the race; the rest see
    /// the updated marker and skip).
    fn resume_hello(&self, generation: u64) {
        let last = self.hello_generation.load(Ordering::Acquire);
        if generation <= last {
            return;
        }
        if self
            .hello_generation
            .compare_exchange(last, generation, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let hello = WireMsg::Hello {
                node: self.transport.node(),
                procs: self.procs.clone(),
            };
            // Best effort: if this send fails the link is down again and
            // the next replay round re-runs the handshake. Roll the
            // marker back so it does.
            if self.transport.send(&hello, self.engine_node, 0).is_err() {
                self.hello_generation.store(last, Ordering::Release);
            }
        }
    }
}

/// A peer node's connection to the engine node.
///
/// Announces its hosted processors with a `Hello`, then hands out
/// [`RemoteHandle`]s whose operations travel as wire frames. A background
/// demultiplexer routes replies back to blocked callers by sequence
/// number, so handles on different threads share one connection.
pub struct NodeClient {
    inner: Arc<ClientInner>,
    demux: Option<JoinHandle<()>>,
}

impl NodeClient {
    /// Announces `procs` as hosted by this node and starts the reply
    /// demultiplexer.
    ///
    /// # Errors
    ///
    /// [`NodeError::Net`] if the hello cannot be sent.
    pub fn connect(
        transport: impl Transport + 'static,
        engine_node: NodeId,
        procs: Vec<ProcId>,
    ) -> Result<NodeClient, NodeError> {
        let node = transport.node();
        let inner = Arc::new(ClientInner {
            transport: Arc::new(transport),
            engine_node,
            procs: procs.clone(),
            next_seq: AtomicU64::new(1),
            hello_generation: AtomicU64::new(0),
            pending: Mutex::new_in(HashMap::new(), classes::NET_PENDING),
        });
        inner
            .transport
            .send(&WireMsg::Hello { node, procs }, engine_node, 0)?;
        let demux_inner = Arc::clone(&inner);
        let demux = std::thread::Builder::new()
            .name(format!("lrc-node-demux-{node}"))
            .spawn(move || demux_loop(&demux_inner))
            .expect("spawn reply demultiplexer");
        Ok(NodeClient {
            inner,
            demux: Some(demux),
        })
    }

    /// Reconnects a restarted node: sends a [`WireMsg::RejoinRequest`]
    /// presenting `proc` and the node's last saved engine-encoded
    /// checkpoint, blocks for the server's verdict, and on success
    /// returns a working client (hosting `proc`) plus the barrier episode
    /// the checkpoint was cut at. The server replays the checkpoint into
    /// the engine and catches the processor up through the normal
    /// write-notice path — the restarted node itself ships only these two
    /// frames.
    ///
    /// # Errors
    ///
    /// [`NodeError::Remote`] if the server rejects the checkpoint
    /// (corrupt, incompatible, or the processor was never declared dead);
    /// [`NodeError::Net`] / [`NodeError::Protocol`] on transport trouble.
    pub fn rejoin(
        transport: impl Transport + 'static,
        engine_node: NodeId,
        proc: ProcId,
        checkpoint: Vec<u8>,
    ) -> Result<(NodeClient, u64), NodeError> {
        let node = transport.node();
        let inner = Arc::new(ClientInner {
            transport: Arc::new(transport),
            engine_node,
            procs: vec![proc],
            next_seq: AtomicU64::new(1),
            hello_generation: AtomicU64::new(0),
            pending: Mutex::new_in(HashMap::new(), classes::NET_PENDING),
        });
        inner.transport.send(
            &WireMsg::RejoinRequest {
                node,
                proc,
                checkpoint,
            },
            engine_node,
            0,
        )?;
        // The reply demultiplexer is not running yet, so the handshake
        // reply is read synchronously right here.
        let frame = inner.transport.recv()?;
        if frame.kind != WireKind::RejoinReply {
            return Err(NodeError::Protocol(format!(
                "expected RejoinReply, got {}",
                frame.kind
            )));
        }
        // Like OpReply, RejoinReply carries no vector clock: width 0
        // keeps the decode context-independent.
        let episode = match WireMsg::decode(frame.kind, &frame.body, &WireCtx { n_procs: 0 })? {
            WireMsg::RejoinReply { result: Ok(ep) } => ep,
            WireMsg::RejoinReply { result: Err(e) } => return Err(NodeError::Remote(e)),
            _ => unreachable!("kind was RejoinReply"),
        };
        let demux_inner = Arc::clone(&inner);
        let demux = std::thread::Builder::new()
            .name(format!("lrc-node-demux-{node}"))
            .spawn(move || demux_loop(&demux_inner))
            .expect("spawn reply demultiplexer");
        Ok((
            NodeClient {
                inner,
                demux: Some(demux),
            },
            episode,
        ))
    }

    /// The processors this node announced.
    pub fn procs(&self) -> &[ProcId] {
        &self.inner.procs
    }

    /// A handle driving `proc` over the wire.
    ///
    /// # Panics
    ///
    /// Panics if `proc` was not announced at connect time (the server
    /// would reject its operations).
    pub fn handle(&self, proc: ProcId) -> RemoteHandle {
        assert!(
            self.inner.procs.contains(&proc),
            "processor {proc} was not announced by this node"
        );
        RemoteHandle {
            inner: Arc::clone(&self.inner),
            proc,
        }
    }

    /// Measured wire traffic of this node.
    pub fn wire_stats(&self) -> WireStats {
        self.inner.transport.stats()
    }

    /// Ends the session: tells the engine node this peer is done.
    ///
    /// # Errors
    ///
    /// [`NodeError::Net`] if the shutdown cannot be sent.
    pub fn shutdown(mut self) -> Result<(), NodeError> {
        self.inner
            .transport
            .send(&WireMsg::Shutdown, self.inner.engine_node, 0)?;
        // The demultiplexer ends when the transport closes; do not block
        // on it here — for channel transports the far end outlives us.
        self.demux.take();
        Ok(())
    }
}

impl fmt::Debug for NodeClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NodeClient(node {}, {} procs)",
            self.inner.transport.node(),
            self.inner.procs.len()
        )
    }
}

/// Routes `OpReply` frames to the callers blocked on their sequence
/// numbers; exits when the transport closes.
fn demux_loop(inner: &ClientInner) {
    while let Ok(frame) = inner.transport.recv() {
        if frame.kind != WireKind::OpReply {
            continue; // tolerate stray traffic; requests carry the state
        }
        // `OpReply` is op-plane: its encoding carries no vector clock, so
        // the decode is context-independent. Width 0 makes that load-
        // bearing — if a clock-bearing field is ever added to `OpReply`,
        // a zero-width clock consumes nothing and the decoder's
        // trailing-bytes check fails loudly instead of mis-decoding.
        let msg = WireMsg::decode(frame.kind, &frame.body, &WireCtx { n_procs: 0 });
        let result = match msg {
            Ok(WireMsg::OpReply { result }) => result,
            _ => Err("malformed reply frame".to_string()),
        };
        let waiter = inner.pending.lock().remove(&frame.seq);
        if let Some(tx) = waiter {
            let _ = tx.send(result);
        }
    }
    // Unblock every caller still waiting.
    let mut pending = inner.pending.lock();
    for (_, tx) in pending.drain() {
        let _ = tx.send(Err("transport closed".to_string()));
    }
}

/// One remotely hosted processor: the wire-backed analogue of
/// [`crate::ProcHandle`].
///
/// Methods block until the engine node replies; locks and barriers block
/// server-side with the runtime's usual semantics.
pub struct RemoteHandle {
    inner: Arc<ClientInner>,
    proc: ProcId,
}

impl RemoteHandle {
    /// This handle's processor id.
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// Sends one operation and blocks for its outcome.
    ///
    /// Over a self-healing transport ([`lrc_net::SelfHealing`]) the
    /// operation survives link death: if the link's generation moves while
    /// this call waits, the reply is presumed lost with the old link and
    /// the *same* request (same sequence number) is replayed — preceded by
    /// a resumable `Hello` so the server supersedes its stale peer mapping
    /// and revives this processor if it was declared dead meanwhile. The
    /// server's at-most-once cache guarantees a replayed operation is
    /// never applied twice.
    ///
    /// # Errors
    ///
    /// [`NodeError::Remote`] for engine-side failures (lock/barrier
    /// misuse), [`NodeError::Net`] for transport failures (including
    /// [`NetError::ConnectTimeout`] when a healing transport's reconnect
    /// budget is spent).
    pub fn apply(&mut self, op: &EngineOp) -> Result<Vec<u8>, NodeError> {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        self.inner.pending.lock().insert(seq, tx);
        let request = WireMsg::OpRequest {
            proc: self.proc,
            op: op.clone(),
        };
        let result = loop {
            let generation = self.inner.transport.generation();
            if generation > 0 {
                // The link healed at least once since connect: make sure
                // the server has seen this incarnation's hello on the
                // current link before (re)sending the operation.
                self.inner.resume_hello(generation);
            }
            if let Err(e) = self
                .inner
                .transport
                .send(&request, self.inner.engine_node, seq)
            {
                break Err(NodeError::from(e));
            }
            match self.wait_reply(&rx, generation) {
                Some(result) => break result,
                None => continue, // generation moved: replay the same seq
            }
        };
        self.inner.pending.lock().remove(&seq);
        result
    }

    /// Blocks for the reply to an in-flight request sent on link
    /// generation `sent_on`. Returns `None` when the generation moved
    /// (replay), `Some` with the outcome otherwise.
    fn wait_reply(
        &self,
        rx: &Receiver<Result<Vec<u8>, String>>,
        sent_on: u64,
    ) -> Option<Result<Vec<u8>, NodeError>> {
        loop {
            match rx.recv_timeout(REPLAY_POLL) {
                Ok(Ok(bytes)) => return Some(Ok(bytes)),
                Ok(Err(remote)) => return Some(Err(NodeError::Remote(remote))),
                Err(RecvTimeoutError::Timeout) => {
                    if self.inner.transport.generation() != sent_on {
                        return None;
                    }
                    // Same link, no reply yet: a legitimately blocked
                    // operation (contended lock, barrier wait) — keep
                    // waiting.
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Some(Err(NodeError::Net(NetError::Closed)))
                }
            }
        }
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), NodeError> {
        let bytes = self.apply(&EngineOp::Read {
            addr,
            len: buf.len() as u32,
        })?;
        if bytes.len() != buf.len() {
            return Err(NodeError::Protocol(format!(
                "read returned {} bytes, wanted {}",
                bytes.len(),
                buf.len()
            )));
        }
        buf.copy_from_slice(&bytes);
        Ok(())
    }

    /// Writes `data` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), NodeError> {
        self.apply(&EngineOp::Write {
            addr,
            data: data.to_vec(),
        })
        .map(|_| ())
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, NodeError> {
        let mut raw = [0u8; 8];
        self.read_bytes(addr, &mut raw)?;
        Ok(u64::from_le_bytes(raw))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), NodeError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Acquires `lock`, blocking (server-side) while another processor
    /// holds it.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn acquire(&mut self, lock: LockId) -> Result<(), NodeError> {
        self.apply(&EngineOp::Acquire(lock)).map(|_| ())
    }

    /// Releases `lock`.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn release(&mut self, lock: LockId) -> Result<(), NodeError> {
        self.apply(&EngineOp::Release(lock)).map(|_| ())
    }

    /// Arrives at `barrier` and blocks (server-side) until every
    /// processor has arrived.
    ///
    /// # Errors
    ///
    /// See [`RemoteHandle::apply`].
    pub fn barrier(&mut self, barrier: BarrierId) -> Result<(), NodeError> {
        self.apply(&EngineOp::Barrier(barrier)).map(|_| ())
    }
}

impl fmt::Debug for RemoteHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RemoteHandle({})", self.proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsmBuilder;
    use lrc_net::ChannelNet;
    use lrc_sim::ProtocolKind;

    fn two_node_setup(
        kind: ProtocolKind,
    ) -> (
        Dsm,
        NodeClient,
        std::thread::JoinHandle<Result<(), NodeError>>,
    ) {
        let dsm = DsmBuilder::new(kind, 2, 1 << 14)
            .page_size(512)
            .build()
            .unwrap();
        let mut mesh = ChannelNet::mesh(2);
        let client_end = mesh.pop().unwrap();
        let server_end = mesh.pop().unwrap();
        let server = NodeServer::new(dsm.clone(), server_end);
        let serving = std::thread::spawn(move || server.serve());
        let client = NodeClient::connect(client_end, 0, vec![ProcId::new(1)]).unwrap();
        (dsm, client, serving)
    }

    #[test]
    fn remote_ops_round_trip_through_the_engine() {
        let (dsm, client, serving) = two_node_setup(ProtocolKind::LazyInvalidate);
        let mut remote = client.handle(ProcId::new(1));
        let lock = LockId::new(0);

        remote.acquire(lock).unwrap();
        remote.write_u64(8, 41).unwrap();
        let v = remote.read_u64(8).unwrap();
        remote.write_u64(8, v + 1).unwrap();
        remote.release(lock).unwrap();

        // The engine node sees the remote writes through the protocol.
        let mut local = dsm.handle(ProcId::new(0));
        local.acquire(LockId::new(0)).unwrap();
        assert_eq!(local.read_u64(8), 42);
        local.release(LockId::new(0)).unwrap();

        let wire = client.wire_stats();
        assert_eq!(wire.msgs_sent, 6, "hello + five operations");
        assert_eq!(
            wire.msgs_received,
            wire.msgs_sent - 1,
            "one reply per request; the hello has none"
        );
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn a_remote_empty_access_is_answered() {
        // The reply must come: an empty access that panicked the worker
        // was forgotten like a death, and the client waited forever.
        let (_dsm, client, serving) = two_node_setup(ProtocolKind::LazyInvalidate);
        let mut remote = client.handle(ProcId::new(1));
        let (done, answered) = std::sync::mpsc::channel();
        let asking = std::thread::spawn(move || {
            let read = remote.read_bytes(16, &mut []);
            let written = remote.write_bytes(16, &[]);
            let _ = done.send((read, written));
        });
        let (read, written) = answered
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("both empty operations are answered");
        assert!(read.is_ok() && written.is_ok(), "{read:?} {written:?}");
        asking.join().unwrap();
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn a_remote_out_of_range_access_is_refused_not_hung() {
        // Past the end of the space the worker's `apply` used to panic,
        // the request was forgotten like a death, and no reply ever came.
        let (_dsm, client, serving) = two_node_setup(ProtocolKind::LazyInvalidate);
        let mut remote = client.handle(ProcId::new(1));
        let (done, answered) = std::sync::mpsc::channel();
        let asking = std::thread::spawn(move || {
            let mem = 1u64 << 14;
            let mut refused = Vec::new();
            for addr in [mem, mem - 4, u64::MAX] {
                refused.push(remote.read_u64(addr).map(|_| ()));
                refused.push(remote.write_u64(addr, 1));
            }
            // The same handle keeps working.
            let in_range = remote
                .write_u64(mem - 8, 7)
                .and_then(|()| remote.read_u64(mem - 8));
            let _ = done.send((refused, in_range));
        });
        let (refused, in_range) = answered
            .recv_timeout(Duration::from_secs(10))
            .expect("every out-of-range operation is answered");
        for outcome in refused {
            assert!(
                matches!(&outcome, Err(NodeError::Remote(e)) if e.contains("outside")),
                "{outcome:?}"
            );
        }
        assert_eq!(in_range, Ok(7));
        asking.join().unwrap();
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn an_op_request_acts_only_for_a_processor_its_sender_hosts() {
        let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 3, 1 << 14)
            .page_size(512)
            .build()
            .unwrap();
        let mut mesh = ChannelNet::mesh(3);
        let intruder = mesh.pop().unwrap();
        let honest_end = mesh.pop().unwrap();
        let server = NodeServer::new(dsm.clone(), mesh.pop().unwrap());
        let serving = std::thread::spawn(move || server.serve());

        let (p1, p2, lock) = (ProcId::new(1), ProcId::new(2), LockId::new(0));
        let honest = NodeClient::connect(honest_end, 0, vec![p1]).unwrap();
        let mut counter = honest.handle(p1);
        let bump = |counter: &mut RemoteHandle| {
            counter.acquire(lock).unwrap();
            let v = counter.read_u64(8).unwrap();
            counter.write_u64(8, v + 1).unwrap();
            counter.release(lock).unwrap();
        };
        // The first round trip also proves node 1's hello was processed.
        for _ in 0..5 {
            bump(&mut counter);
        }

        // Node 2 greets with its own processor, then asks for node 1's:
        // raw frames, because `NodeClient::handle` refuses client-side.
        let (done, answered) = std::sync::mpsc::channel();
        let intruding = std::thread::spawn(move || {
            let hello = WireMsg::Hello {
                node: 2,
                procs: vec![p2],
            };
            intruder.send(&hello, 0, 0).unwrap();
            let clobber = WireMsg::OpRequest {
                proc: p1,
                op: EngineOp::Write {
                    addr: 8,
                    data: 999u64.to_le_bytes().to_vec(),
                },
            };
            intruder.send(&clobber, 0, 1).unwrap();
            let frame = intruder.recv().unwrap();
            let reply = WireMsg::decode(frame.kind, &frame.body, &WireCtx { n_procs: 0 });
            let _ = done.send((frame.seq, reply));
            intruder.send(&WireMsg::Shutdown, 0, 0).unwrap();
        });
        let (seq, reply) = answered
            .recv_timeout(Duration::from_secs(10))
            .expect("the foreign request is answered");
        assert_eq!(seq, 1);
        match reply {
            Ok(WireMsg::OpReply { result: Err(e) }) => {
                assert!(e.contains("hosted by node 1"), "{e}")
            }
            other => panic!("foreign request was not refused: {other:?}"),
        }
        intruding.join().unwrap();

        // The server keeps serving the honest peer, whose data is intact.
        for _ in 0..5 {
            bump(&mut counter);
        }
        counter.acquire(lock).unwrap();
        assert_eq!(counter.read_u64(8).unwrap(), 10);
        counter.release(lock).unwrap();
        honest.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn remote_errors_are_reported() {
        let (_dsm, client, serving) = two_node_setup(ProtocolKind::EagerInvalidate);
        let mut remote = client.handle(ProcId::new(1));
        let err = remote.release(LockId::new(0)).unwrap_err();
        assert!(matches!(err, NodeError::Remote(_)));
        assert!(err.to_string().contains("release"));
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    #[should_panic(expected = "not announced")]
    fn unannounced_processor_is_rejected_client_side() {
        let (_dsm, client, serving) = two_node_setup(ProtocolKind::LazyInvalidate);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            client.handle(ProcId::new(0));
        }));
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }
}
