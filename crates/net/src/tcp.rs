//! The TCP transport: framed wire messages over real sockets.
//!
//! Topology is hub-and-spoke around the engine-owning node (the shape the
//! node runtime uses): the hub [`TcpTransport::listen`]s and accepts one
//! connection per peer; each peer [`TcpTransport::connect`]s and
//! immediately sends a [`WireMsg::Hello`] identifying its node id, which
//! the hub reads synchronously during accept so it can address replies.
//!
//! Each connection runs a dedicated **send thread** (writes never block
//! the caller: [`Transport::send`] enqueues the encoded frame) and a
//! dedicated **recv thread** (reads the 32-byte header, validates it,
//! reads the declared body, checksums it, and pushes the frame onto the
//! endpoint's single incoming queue). Frames are length-prefixed by their
//! own header, so the stream needs no extra framing bytes and measured
//! bytes equal encoded bytes.
//!
//! The send thread writes whatever is already queued for its peer in one
//! socket write: an idle link (one request, one reply) issues one write
//! per frame, a burst to one peer shares writes. [`WireStats::flushes`]
//! counts the writes.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::lockdep::classes;
use parking_lot::Mutex;
use std::thread;

use crate::transport::{Backoff, NetError, NodeId, Transport, WireMeter, WireStats};
use crate::wire::{Frame, WireKind, WireMsg, FRAME_HEADER_BYTES};

/// The send thread stops adding queued frames to a write once it holds
/// this many bytes: past a socket buffer's worth the syscall is amortized
/// and more would only grow the copy.
const MAX_FLUSH_BYTES: usize = 64 * 1024;

/// One peer link: its send queue plus a death flag poisoned by whichever
/// I/O thread notices the link die first (recv EOF/corruption, or a
/// failed write). A send to a poisoned peer reports [`NetError::Closed`]
/// instead of silently queueing bytes no one will read — without the
/// flag, a caller could send a request into a dead link and then block
/// forever waiting for the reply.
struct PeerLink {
    tx: Sender<Vec<u8>>,
    dead: Arc<AtomicBool>,
}

/// A TCP endpoint (hub or spoke).
pub struct TcpTransport {
    node: NodeId,
    /// Per-peer send queues (consumed by that peer's send thread). Shared
    /// with a healing hub's acceptor thread, which re-attaches
    /// reconnecting spokes ([`TcpHub::accept_healing`]).
    peers: Arc<Mutex<HashMap<NodeId, PeerLink>>>,
    incoming: Mutex<Receiver<Frame>>,
    /// Held only during setup; [`TcpTransport::seal`] drops it so that
    /// once every peer's recv thread exits (EOF, error), the incoming
    /// channel closes and [`Transport::recv`] reports
    /// [`NetError::Closed`] instead of blocking forever. A healing hub's
    /// acceptor thread keeps its own clone, so such a hub stays open
    /// while it can still heal.
    incoming_tx: Option<Sender<Frame>>,
    meter: Arc<WireMeter>,
    /// Set on drop; a healing hub's acceptor thread polls it and exits.
    stop: Arc<AtomicBool>,
}

impl TcpTransport {
    fn new(node: NodeId) -> TcpTransport {
        let (incoming_tx, incoming_rx) = channel();
        TcpTransport {
            node,
            peers: Arc::new(Mutex::new_in(HashMap::new(), classes::NET_PEERS)),
            incoming: Mutex::new_in(incoming_rx, classes::NET_INCOMING),
            incoming_tx: Some(incoming_tx),
            meter: Arc::new(WireMeter::default()),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Ends the setup phase: after this, the recv threads hold the only
    /// senders into the incoming queue, so a dead session surfaces as
    /// [`NetError::Closed`].
    fn seal(&mut self) {
        self.incoming_tx = None;
    }

    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// returns a hub handle whose [`TcpHub::local_addr`] peers can
    /// connect to. Call [`TcpHub::accept`] to take the connections.
    ///
    /// # Errors
    ///
    /// I/O failures binding the listener.
    pub fn bind(addr: &str, node: NodeId) -> Result<TcpHub, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(TcpHub { node, listener })
    }

    /// Connects to a hub at `addr` as `node`. Opens with a
    /// transport-level [`WireMsg::Hello`] (empty processor list) so the
    /// hub can address replies to this node.
    ///
    /// # Errors
    ///
    /// I/O failures reaching the hub.
    pub fn connect(addr: &str, node: NodeId, hub: NodeId) -> Result<TcpTransport, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut transport = TcpTransport::new(node);
        transport.attach(hub, stream);
        transport.seal();
        transport.send(
            &WireMsg::Hello {
                node,
                procs: Vec::new(),
            },
            hub,
            0,
        )?;
        Ok(transport)
    }

    /// Like [`TcpTransport::connect`], but retries refused or failed
    /// connection attempts under `backoff` — the shape a spoke starting
    /// concurrently with (or reconnecting to) its hub needs, since a
    /// single `connect()` races the hub's `bind`.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectTimeout`] once the backoff budget is spent.
    pub fn connect_retry(
        addr: &str,
        node: NodeId,
        hub: NodeId,
        backoff: &Backoff,
    ) -> Result<TcpTransport, NetError> {
        backoff.retry(|| TcpTransport::connect(addr, node, hub))
    }

    /// Wires up the send and recv threads for one connected peer.
    fn attach(&self, peer: NodeId, stream: TcpStream) {
        let incoming = self
            .incoming_tx
            .as_ref()
            .expect("attach only runs during setup, before seal()");
        attach_link(self.node, peer, stream, incoming, &self.peers, &self.meter);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Wires up the send and recv threads for one connected peer and
/// installs (or **replaces**) its entry in the shared peer map. On
/// replacement the old link's queue sender drops, so its send thread
/// exits; its recv thread exits on EOF when the stale socket dies —
/// a reconnecting spoke thereby supersedes its own stale mapping.
fn attach_link(
    node: NodeId,
    peer: NodeId,
    stream: TcpStream,
    incoming_tx: &Sender<Frame>,
    peers: &Mutex<HashMap<NodeId, PeerLink>>,
    meter: &Arc<WireMeter>,
) {
    let (tx, rx): (Sender<Vec<u8>>, Receiver<Vec<u8>>) = channel();
    let dead = Arc::new(AtomicBool::new(false));
    let write_half = stream.try_clone().expect("clone TCP stream");
    let send_dead = Arc::clone(&dead);
    let send_meter = Arc::clone(meter);
    thread::Builder::new()
        .name(format!("lrc-net-send-{node}-{peer}"))
        .spawn(move || send_loop(write_half, &rx, &send_dead, &send_meter))
        .expect("spawn send thread");
    let incoming = incoming_tx.clone();
    let recv_dead = Arc::clone(&dead);
    thread::Builder::new()
        .name(format!("lrc-net-recv-{node}-{peer}"))
        .spawn(move || recv_loop(stream, incoming, recv_dead))
        .expect("spawn recv thread");
    peers.lock().insert(peer, PeerLink { tx, dead });
}

/// A bound-but-not-yet-connected hub (see [`TcpTransport::bind`]).
pub struct TcpHub {
    node: NodeId,
    listener: TcpListener,
}

impl TcpHub {
    /// The address peers should connect to.
    ///
    /// # Panics
    ///
    /// Panics if the socket's local address cannot be read (never on a
    /// freshly bound listener).
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
            .to_string()
    }

    /// Accepts exactly `n_peers` connections and returns the hub
    /// endpoint. Each accepted peer must open with a transport-level
    /// [`WireMsg::Hello`] identifying its node id ([`TcpTransport::connect`]
    /// sends it); the hello addresses the link and is consumed here —
    /// application-level handshakes (the node runtime's `Hello` carrying
    /// hosted processors) travel as ordinary frames afterwards.
    ///
    /// # Errors
    ///
    /// I/O failures, or a first frame that is not a valid `Hello`.
    pub fn accept(self, n_peers: usize) -> Result<TcpTransport, NetError> {
        let mut transport = self.accept_initial(n_peers, None)?;
        transport.seal();
        Ok(transport)
    }

    /// Accepts the initial peer set and attaches every link. The endpoint
    /// comes back unsealed: the caller either seals it or hands its
    /// incoming sender to a healing acceptor.
    fn accept_initial(
        &self,
        n_peers: usize,
        deadline: Option<Instant>,
    ) -> Result<TcpTransport, NetError> {
        let conns = self.accept_spokes(n_peers, deadline)?;
        let transport = TcpTransport::new(self.node);
        for (peer, stream, hello_len) in conns {
            transport.meter.count_received(hello_len);
            transport.attach(peer, stream);
        }
        Ok(transport)
    }

    /// Accepts `n_peers` spoke connections and consumes each spoke's
    /// opening transport-level [`WireMsg::Hello`], returning
    /// `(peer id, stream, hello wire length)` triples. `None` deadline
    /// blocks forever; with a deadline, both the accepts and the hello
    /// reads are bounded, and expiry reports the peers collected so far.
    /// A hello announcing an id already taken — by an earlier spoke or by
    /// the hub — fails the accept with [`NetError::DuplicatePeer`]: one
    /// link per id is what lets the hub address replies.
    fn accept_spokes(
        &self,
        n_peers: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<(NodeId, TcpStream, usize)>, NetError> {
        let timed_out = |conns: &[(NodeId, TcpStream, usize)]| NetError::AcceptTimeout {
            wanted: n_peers,
            connected: conns.iter().map(|&(peer, _, _)| peer).collect(),
        };
        if deadline.is_some() {
            self.listener.set_nonblocking(true)?;
        }
        let mut conns: Vec<(NodeId, TcpStream, usize)> = Vec::with_capacity(n_peers);
        while conns.len() < n_peers {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline.expect("WouldBlock only under a deadline") {
                        return Err(timed_out(&conns));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            // Read the opening Hello synchronously to learn the peer id;
            // under a deadline, a connected-but-silent spoke must not
            // wedge the hub either.
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                return Err(timed_out(&conns));
            }
            // A failure at the deadline is the silent-spoke case;
            // anything earlier is a genuine I/O error.
            let hello = read_hello(&stream, remaining).map_err(|e| {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    timed_out(&conns)
                } else {
                    e
                }
            })?;
            if hello.src == self.node || conns.iter().any(|&(peer, _, _)| peer == hello.src) {
                return Err(NetError::DuplicatePeer(hello.src));
            }
            conns.push((hello.src, stream, hello.wire_len()));
        }
        Ok(conns)
    }

    /// Like [`TcpHub::accept`], but bounded, and the hub keeps healing
    /// after setup. If the full peer set has not connected (and identified
    /// itself) within `timeout`, returns [`NetError::AcceptTimeout`]
    /// naming the peers that did make it — a spoke that never starts
    /// surfaces as a typed error instead of a hub blocked in `accept`
    /// forever. After setup the listener moves to a background acceptor thread that
    /// accepts late connections for as long as the transport lives, reads
    /// each one's transport-level [`WireMsg::Hello`], and **re-attaches**
    /// the peer — a reconnecting spoke supersedes its stale link, so a
    /// severed spoke can dial back in ([`TcpTransport::connect_retry`])
    /// without the hub restarting.
    ///
    /// Because the acceptor holds a sender into the incoming queue, a
    /// healing hub's [`Transport::recv`] never reports
    /// [`NetError::Closed`] merely because every current link died; it
    /// closes when the transport is dropped.
    ///
    /// # Errors
    ///
    /// [`NetError::AcceptTimeout`] on expiry; otherwise as
    /// [`TcpHub::accept`].
    pub fn accept_healing(
        self,
        n_peers: usize,
        timeout: Duration,
    ) -> Result<TcpTransport, NetError> {
        let mut transport = self.accept_initial(n_peers, Some(Instant::now() + timeout))?;
        // Taking the sender seals the endpoint; the acceptor now holds
        // the one sender that outlives the current links.
        let incoming_tx = transport
            .incoming_tx
            .take()
            .expect("accept_initial returns the endpoint unsealed");
        let node = self.node;
        let peers = Arc::clone(&transport.peers);
        let meter = Arc::clone(&transport.meter);
        let stop = Arc::clone(&transport.stop);
        // accept_spokes left the listener nonblocking, which is exactly
        // what the polling acceptor loop needs.
        thread::Builder::new()
            .name(format!("lrc-net-heal-accept-{node}"))
            .spawn(move || heal_accept_loop(node, self.listener, incoming_tx, peers, meter, stop))
            .expect("spawn healing acceptor");
        Ok(transport)
    }
}

/// The healing hub's background acceptor: accepts late spokes off the
/// (nonblocking) listener, consumes each one's transport-level Hello
/// under a bounded read, and re-attaches the peer link. Exits when the
/// owning transport drops (`stop`) or the listener dies.
fn heal_accept_loop(
    node: NodeId,
    listener: TcpListener,
    incoming_tx: Sender<Frame>,
    peers: Arc<Mutex<HashMap<NodeId, PeerLink>>>,
    meter: Arc<WireMeter>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => break,
        };
        // A malformed or silent late connection is dropped, not fatal:
        // the hub must survive anything a flaky reconnect throws at it.
        let Ok(hello) = read_hello(&stream, Some(Duration::from_secs(5))) else {
            continue;
        };
        meter.count_received(hello.wire_len());
        attach_link(node, hello.src, stream, &incoming_tx, &peers, &meter);
    }
}

/// Readies a freshly accepted connection and reads the transport-level
/// [`WireMsg::Hello`] every spoke opens with, within `timeout` if given.
fn read_hello(stream: &TcpStream, timeout: Option<Duration>) -> Result<Frame, NetError> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(timeout)?;
    let hello = read_frame(&mut &*stream)?;
    if hello.kind != WireKind::Hello {
        return Err(NetError::Io(format!(
            "peer opened with {} instead of Hello",
            hello.kind
        )));
    }
    stream.set_read_timeout(None)?;
    Ok(hello)
}

/// Drains the send queue onto the socket; exits when the queue closes or
/// a write fails (poisoning the peer's death flag). Frames already queued
/// behind the one just dequeued ride in the same write, up to
/// [`MAX_FLUSH_BYTES`]; a lone frame is written from its own buffer.
fn send_loop(mut stream: TcpStream, rx: &Receiver<Vec<u8>>, dead: &AtomicBool, meter: &WireMeter) {
    while let Ok(mut batch) = rx.recv() {
        while batch.len() < MAX_FLUSH_BYTES {
            let Ok(frame) = rx.try_recv() else { break };
            batch.extend_from_slice(&frame);
        }
        // Counted before the write: whoever has seen these frames arrive
        // then also sees their flush.
        meter.count_flush();
        if stream.write_all(&batch).is_err() {
            dead.store(true, Ordering::Release);
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Reads frames off the socket into the shared incoming queue; exits on
/// EOF, error, or when the endpoint is dropped. EOF and corruption poison
/// the peer's death flag so later sends fail instead of queueing into the
/// void.
fn recv_loop(stream: TcpStream, incoming: Sender<Frame>, dead: Arc<AtomicBool>) {
    while let Ok(frame) = read_frame(&mut &stream) {
        if incoming.send(frame).is_err() {
            break;
        }
    }
    dead.store(true, Ordering::Release);
    let _ = stream.shutdown(std::net::Shutdown::Read);
}

/// Reads exactly one frame from the stream: 32-byte header, declared
/// body. The body is read once into its final buffer and moved into the
/// frame — no re-copy.
fn read_frame(stream: &mut &TcpStream) -> Result<Frame, NetError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    stream.read_exact(&mut header)?;
    let body_len = Frame::peek_body_len(&header)?;
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body)?;
    Ok(Frame::from_wire_parts(&header, body)?)
}

impl Transport for TcpTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&self, msg: &WireMsg, dst: NodeId, seq: u64) -> Result<(), NetError> {
        let bytes = crate::transport::encode_frame_checked(msg, self.node, dst, seq)?;
        let len = bytes.len();
        let peers = self.peers.lock();
        let link = peers.get(&dst).ok_or(NetError::UnknownPeer(dst))?;
        if link.dead.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        link.tx.send(bytes).map_err(|_| NetError::Closed)?;
        self.meter.count_sent(len);
        Ok(())
    }

    fn recv(&self) -> Result<Frame, NetError> {
        let frame = self.incoming.lock().recv().map_err(|_| NetError::Closed)?;
        self.meter.count_received(frame.wire_len());
        Ok(frame)
    }

    fn stats(&self) -> WireStats {
        self.meter.stats()
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let peers = self.peers.lock();
        write!(f, "TcpTransport(node {}, {} peers)", self.node, peers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback (hub, spoke) pair. `accept` returns only
    /// after reading the spoke's Hello, so that frame's flush is behind
    /// both endpoints.
    fn loopback_pair() -> (TcpTransport, TcpTransport) {
        let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind");
        let addr = hub.local_addr();
        let spoke_thread =
            thread::spawn(move || TcpTransport::connect(&addr, 1, 0).expect("connect"));
        let hub = hub.accept(1).expect("accept");
        (hub, spoke_thread.join().unwrap())
    }

    #[test]
    fn hub_and_spoke_exchange_frames_on_loopback() {
        let (hub, spoke) = loopback_pair();

        // Request/reply round trip (the link-level Hello was consumed by
        // accept and does not surface here).
        spoke.send(&WireMsg::Shutdown, 0, 5).unwrap();
        let frame = hub.recv().unwrap();
        assert_eq!((frame.kind, frame.seq), (WireKind::Shutdown, 5));
        hub.send(&WireMsg::Shutdown, 1, 6).unwrap();
        let frame = spoke.recv().unwrap();
        assert_eq!(
            (frame.kind, frame.src, frame.seq),
            (WireKind::Shutdown, 0, 6)
        );

        // Both directions were metered, hello included.
        assert!(spoke.stats().bytes_sent >= 2 * 32);
        assert_eq!(spoke.stats().msgs_sent, 2);
        assert_eq!(hub.stats().msgs_received, 2);
        assert_eq!(hub.stats().msgs_sent, 1);
    }

    #[test]
    fn peer_death_surfaces_as_closed_not_a_hang() {
        let (hub, spoke) = loopback_pair();
        // The spoke dies without a Shutdown message.
        drop(spoke);
        // The hub's recv thread sees EOF and exits; because the incoming
        // channel was sealed after setup, recv reports Closed.
        assert_eq!(hub.recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn send_after_peer_death_errors_instead_of_queueing_into_the_void() {
        let (hub, spoke) = loopback_pair();
        // Sever the link: the hub endpoint goes away without a Shutdown.
        drop(hub);
        // recv observing Closed proves the spoke's recv thread exited and
        // poisoned the peer's death flag...
        assert_eq!(spoke.recv().unwrap_err(), NetError::Closed);
        // ...so a subsequent send must error. Before the death flag, it
        // returned Ok (the bytes sat in the dead link's queue) and a
        // caller blocking for the reply hung forever.
        assert_eq!(spoke.send(&WireMsg::Shutdown, 0, 1), Err(NetError::Closed));
    }

    #[test]
    fn in_flight_blocking_fetch_unblocks_when_the_peer_dies() {
        let (hub, spoke) = loopback_pair();
        // The spoke issues a request and blocks for the reply — the shape
        // of every remote page fetch.
        spoke.send(&WireMsg::Shutdown, 0, 9).unwrap();
        let fetch = thread::spawn(move || spoke.recv());
        // The hub reads the request, then dies mid-fetch.
        hub.recv().unwrap();
        drop(hub);
        // The blocked fetch must resolve to Closed, not hang.
        assert_eq!(fetch.join().unwrap().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn oversized_body_is_refused_at_the_sender() {
        let t = TcpTransport::new(3);
        let msg = WireMsg::OpReply {
            result: Ok(vec![0u8; crate::wire::MAX_BODY_BYTES + 1]),
        };
        assert!(matches!(
            t.send(&msg, 7, 0),
            Err(NetError::Wire(crate::wire::WireError::Malformed(_)))
        ));
    }

    #[test]
    fn send_to_unconnected_peer_errors() {
        let t = TcpTransport::new(3);
        assert_eq!(
            t.send(&WireMsg::Shutdown, 7, 0),
            Err(NetError::UnknownPeer(7))
        );
    }

    #[test]
    fn accept_within_times_out_when_a_spoke_never_connects() {
        let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind");
        let err = hub
            .accept_healing(2, std::time::Duration::from_millis(100))
            .unwrap_err();
        assert_eq!(
            err,
            NetError::AcceptTimeout {
                wanted: 2,
                connected: Vec::new()
            }
        );
        assert!(err.to_string().contains("2 still missing"), "{err}");
    }

    #[test]
    fn accept_within_names_the_peers_that_did_connect() {
        let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind");
        let addr = hub.local_addr();
        let spoke_thread =
            thread::spawn(move || TcpTransport::connect(&addr, 3, 0).expect("connect"));
        let err = hub
            .accept_healing(2, std::time::Duration::from_millis(400))
            .unwrap_err();
        assert_eq!(
            err,
            NetError::AcceptTimeout {
                wanted: 2,
                connected: vec![3]
            },
            "the one spoke that connected is named; the missing one is deducible"
        );
        drop(spoke_thread.join().unwrap());
    }

    #[test]
    fn healing_hub_reattaches_a_reconnecting_spoke() {
        let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind");
        let addr = hub.local_addr();
        let connect_addr = addr.clone();
        let spoke_thread =
            thread::spawn(move || TcpTransport::connect(&connect_addr, 1, 0).expect("connect"));
        let hub = hub
            .accept_healing(1, Duration::from_secs(5))
            .expect("accept");
        let spoke = spoke_thread.join().unwrap();
        spoke.send(&WireMsg::Shutdown, 0, 1).unwrap();
        assert_eq!(hub.recv().unwrap().seq, 1);
        // The spoke dies without warning...
        drop(spoke);
        // ...and a replacement dials back in under the same node id,
        // superseding the stale link.
        let spoke =
            TcpTransport::connect_retry(&addr, 1, 0, &Backoff::default()).expect("reconnect");
        spoke.send(&WireMsg::Shutdown, 0, 2).unwrap();
        let frame = hub.recv().unwrap();
        assert_eq!((frame.src, frame.seq), (1, 2));
        // The hub's reply routes over the new link.
        hub.send(&WireMsg::Shutdown, 1, 3).unwrap();
        assert_eq!(spoke.recv().unwrap().seq, 3);
    }

    #[test]
    fn connect_retry_times_out_with_a_typed_error() {
        // Reserve an ephemeral port, then free it so nothing listens.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(2), 2);
        let err = TcpTransport::connect_retry(&addr, 1, 0, &backoff).unwrap_err();
        assert!(
            matches!(err, NetError::ConnectTimeout { attempts: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn a_burst_shares_flushes_and_a_ping_pong_does_not() {
        let (hub, spoke) = loopback_pair();
        let frame_len = WireMsg::Shutdown.encode_frame(1, 0, 0).wire_len() as u64;
        let before = spoke.stats();
        assert_eq!((before.msgs_sent, before.flushes), (1, 1), "the Hello");

        // Sent faster than the send thread drains: order and accounting
        // are exact, and no frame costs more than one write.
        const BURST: u64 = 256;
        for seq in 0..BURST {
            spoke.send(&WireMsg::Shutdown, 0, seq).unwrap();
        }
        for seq in 0..BURST {
            let frame = hub.recv().unwrap();
            assert_eq!((frame.kind, frame.seq), (WireKind::Shutdown, seq));
        }
        let burst = spoke.stats();
        assert_eq!(burst.msgs_sent - before.msgs_sent, BURST);
        assert_eq!(burst.bytes_sent - before.bytes_sent, BURST * frame_len);
        assert_eq!(
            hub.stats().bytes_received,
            burst.bytes_sent,
            "Hello included"
        );
        let burst_flushes = burst.flushes - before.flushes;
        assert!(
            (1..=BURST).contains(&burst_flushes),
            "{burst_flushes} writes for {BURST} frames"
        );

        // A strict request→reply exchange never finds a second frame
        // queued: the idle path is one write per frame, as before the
        // drain existed.
        const ROUNDS: u64 = 32;
        for seq in 0..ROUNDS {
            spoke.send(&WireMsg::Shutdown, 0, seq).unwrap();
            assert_eq!(hub.recv().unwrap().seq, seq);
            hub.send(&WireMsg::Shutdown, 1, seq).unwrap();
            assert_eq!(spoke.recv().unwrap().seq, seq);
        }
        assert_eq!(spoke.stats().flushes - burst.flushes, ROUNDS);
        assert_eq!(hub.stats().flushes, ROUNDS);
        assert_eq!(hub.stats().msgs_sent, ROUNDS);
    }

    /// Runs `send_loop` over a loopback socket with `queued` already in
    /// its queue; returns the writes it issued and the bytes that arrived.
    fn flush_prequeued(queued: &[Vec<u8>]) -> (u64, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let write_half = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut read_half, _) = listener.accept().unwrap();
        let reader = thread::spawn(move || {
            let mut arrived = Vec::new();
            read_half.read_to_end(&mut arrived).unwrap();
            arrived
        });
        let (tx, rx) = channel();
        for frame in queued {
            tx.send(frame.clone()).unwrap();
        }
        drop(tx);
        let meter = WireMeter::default();
        send_loop(write_half, &rx, &AtomicBool::new(false), &meter);
        (meter.stats().flushes, reader.join().unwrap())
    }

    #[test]
    fn frames_queued_before_the_send_thread_runs_share_writes_up_to_the_bound() {
        let small: Vec<Vec<u8>> = (0..100)
            .map(|seq| WireMsg::Shutdown.encode_frame(1, 0, seq).encode())
            .collect();
        let (flushes, arrived) = flush_prequeued(&small);
        assert_eq!(flushes, 1, "100 header-only frames fit one write");
        assert_eq!(arrived, small.concat(), "in order, byte for byte");

        // Each frame is just over half the bound, so a write takes two.
        let reply = WireMsg::OpReply {
            result: Ok(vec![7u8; MAX_FLUSH_BYTES / 2]),
        };
        let big = vec![reply.encode_frame(1, 0, 0).encode(); 6];
        let (flushes, arrived) = flush_prequeued(&big);
        assert_eq!(flushes, 3);
        assert_eq!(arrived, big.concat());
    }

    #[test]
    fn a_second_spoke_announcing_a_taken_id_fails_the_accept() {
        // Before the check both spokes counted toward `n_peers`, the
        // second silently superseded the first in the peer map, and the
        // first blocked forever on replies routed to the other.
        for taken in [1, 0] {
            let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind");
            let addr = hub.local_addr();
            let first = TcpTransport::connect(&addr, 1, 0).expect("connect");
            let second = TcpTransport::connect(&addr, taken, 0).expect("connect");
            let err = hub.accept_healing(2, Duration::from_secs(5)).unwrap_err();
            assert_eq!(err, NetError::DuplicatePeer(taken));
            assert!(err.to_string().contains("already in use"), "{err}");
            drop((first, second));
        }
    }

    #[test]
    fn accept_within_bounds_a_connected_but_silent_spoke() {
        let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind");
        let addr = hub.local_addr();
        // A raw connection that never sends its Hello: without the
        // deadline this wedged accept forever.
        let _silent = std::net::TcpStream::connect(&addr).expect("connect");
        let err = hub
            .accept_healing(1, std::time::Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(
            err,
            NetError::AcceptTimeout {
                wanted: 1,
                connected: Vec::new()
            }
        );
    }
}
