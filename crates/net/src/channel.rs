//! The in-process channel transport: loopback links over `std::sync::mpsc`.
//!
//! Messages are *really* serialized — every send encodes a full frame and
//! every receive decodes and checksum-verifies it — so the channel backend
//! measures exactly the bytes TCP would move, while staying deterministic
//! enough for conformance tests: one incoming queue per node, FIFO per
//! sender, no sockets, no timing.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::transport::{NetError, NodeId, Transport, WireMeter, WireStats};
use crate::wire::{Frame, WireMsg};

/// One endpoint of an in-process mesh built by [`ChannelNet::mesh`].
pub struct ChannelTransport {
    node: NodeId,
    /// Encoded-frame queues into every *other* node. The own slot is
    /// `None`: an endpoint deliberately holds no sender into its own
    /// queue, so once every other endpoint is dropped, [`recv`] reports
    /// [`NetError::Closed`] instead of blocking forever (which is what
    /// lets a client's reply demultiplexer thread exit).
    ///
    /// [`recv`]: Transport::recv
    peers: Vec<Option<Sender<Vec<u8>>>>,
    incoming: Mutex<Receiver<Vec<u8>>>,
    meter: Arc<WireMeter>,
}

/// Builder for fully connected in-process meshes.
pub struct ChannelNet;

impl ChannelNet {
    /// Creates `n_nodes` mutually connected endpoints; index `i` of the
    /// returned vector is node `i`'s transport.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    pub fn mesh(n_nodes: usize) -> Vec<ChannelTransport> {
        assert!(n_nodes > 0, "a mesh needs at least one node");
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_nodes).map(|_| channel::<Vec<u8>>()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(i, rx)| ChannelTransport {
                node: i as NodeId,
                peers: txs
                    .iter()
                    .enumerate()
                    .map(|(j, tx)| (j != i).then(|| tx.clone()))
                    .collect(),
                incoming: Mutex::new_in(rx, classes::NET_INCOMING),
                meter: Arc::new(WireMeter::default()),
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&self, msg: &WireMsg, dst: NodeId, seq: u64) -> Result<(), NetError> {
        let tx = self
            .peers
            .get(dst as usize)
            .and_then(Option::as_ref)
            .ok_or(NetError::UnknownPeer(dst))?;
        let bytes = crate::transport::encode_frame_checked(msg, self.node, dst, seq)?;
        let len = bytes.len();
        tx.send(bytes).map_err(|_| NetError::Closed)?;
        self.meter.count_sent(len);
        Ok(())
    }

    fn recv(&self) -> Result<Frame, NetError> {
        let bytes = self.incoming.lock().recv().map_err(|_| NetError::Closed)?;
        let len = bytes.len();
        let frame = Frame::from_wire(bytes)?;
        self.meter.count_received(len);
        Ok(frame)
    }

    fn stats(&self) -> WireStats {
        self.meter.stats()
    }
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelTransport(node {})", self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireKind;

    #[test]
    fn mesh_delivers_in_order_with_metering() {
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        assert_eq!((a.node(), b.node()), (0, 1));
        for seq in 0..3 {
            a.send(&WireMsg::Shutdown, 1, seq).unwrap();
        }
        for seq in 0..3 {
            let frame = b.recv().unwrap();
            assert_eq!(frame.kind, WireKind::Shutdown);
            assert_eq!((frame.src, frame.dst, frame.seq), (0, 1, seq));
        }
        let sent = a.stats();
        let received = b.stats();
        assert_eq!(sent.msgs_sent, 3);
        assert_eq!(sent.bytes_sent, 3 * 32, "empty bodies cost the header");
        assert_eq!(received.msgs_received, 3);
        assert_eq!(received.bytes_received, sent.bytes_sent);
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let mesh = ChannelNet::mesh(1);
        assert_eq!(
            mesh[0].send(&WireMsg::Shutdown, 9, 0),
            Err(NetError::UnknownPeer(9))
        );
    }

    #[test]
    fn oversized_body_is_refused_at_the_sender() {
        let mesh = ChannelNet::mesh(2);
        let msg = WireMsg::OpReply {
            result: Ok(vec![0u8; crate::wire::MAX_BODY_BYTES + 1]),
        };
        assert!(matches!(
            mesh[0].send(&msg, 1, 0),
            Err(NetError::Wire(crate::wire::WireError::Malformed(_)))
        ));
        assert_eq!(mesh[0].stats().msgs_sent, 0, "nothing was queued");
    }

    #[test]
    fn self_send_is_rejected_and_closed_surfaces() {
        // No endpoint holds a sender into its own queue: self-sends are
        // errors, and once every other endpoint is gone, recv reports
        // Closed instead of blocking forever.
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        assert_eq!(
            b.send(&WireMsg::Shutdown, 1, 0),
            Err(NetError::UnknownPeer(1))
        );
        drop(mesh); // node 0 held the only sender into b's queue
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
    }
}
