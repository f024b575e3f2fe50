//! The per-rank handle: typed point-to-point messaging with tag matching
//! and a virtual clock fed by the network cost model.

use simnet::Network;
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Message tag, MPI-style. Collectives reserve tags >= `Tag::RESERVED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

impl Tag {
    /// First tag value reserved for internal (collective) traffic.
    pub(crate) const RESERVED: u32 = 0xFFFF_0000;
}

/// A wire message.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: Tag,
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Sender's virtual clock at send time plus transfer cost (arrival time).
    pub arrival_vt: u64,
}

/// Reduction operators for the `*_i64` collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Product (wrapping).
    Prod,
}

impl Reduce {
    /// Apply the operator.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            Reduce::Sum => a.wrapping_add(b),
            Reduce::Min => a.min(b),
            Reduce::Max => a.max(b),
            Reduce::Prod => a.wrapping_mul(b),
        }
    }

    /// The operator's identity element.
    pub fn identity(self) -> i64 {
        match self {
            Reduce::Sum => 0,
            Reduce::Min => i64::MAX,
            Reduce::Max => i64::MIN,
            Reduce::Prod => 1,
        }
    }
}

/// Message-passing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Destination or source rank outside the world.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// World size.
        size: usize,
    },
    /// The peer's endpoint is gone (its thread panicked or returned early).
    Disconnected {
        /// The peer rank involved.
        peer: usize,
    },
    /// Payload could not be decoded as the requested type.
    Decode {
        /// What was expected.
        expected: &'static str,
        /// Payload length found.
        len: usize,
    },
    /// Routing/cost model failure from the network layer.
    Network(String),
    /// Send to self (unsupported; use local state instead).
    SelfSend,
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range (size {size})")
            }
            MpiError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            MpiError::Decode { expected, len } => {
                write!(f, "cannot decode {len}-byte payload as {expected}")
            }
            MpiError::Network(m) => write!(f, "network error: {m}"),
            MpiError::SelfSend => f.write_str("send to self is not supported"),
        }
    }
}

impl std::error::Error for MpiError {}

/// The handle a rank's closure receives: MPI-ish API surface.
pub struct Proc {
    rank: usize,
    size: usize,
    /// Senders to every rank's inbox (index = destination).
    pub(crate) txs: Vec<Option<Sender<Msg>>>,
    /// This rank's inbox.
    pub(crate) rx: Receiver<Msg>,
    /// Unexpected-message queue (arrived but not yet matched).
    pending: VecDeque<Msg>,
    /// Shared read-only cost model.
    net: Arc<Network>,
    /// Accumulated virtual (simulated-cluster) nanoseconds.
    vt: u64,
    /// Messages sent.
    sent: u64,
    /// Bytes sent.
    bytes: u64,
}

impl Proc {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        txs: Vec<Option<Sender<Msg>>>,
        rx: Receiver<Msg>,
        net: Arc<Network>,
    ) -> Proc {
        Proc {
            rank,
            size,
            txs,
            rx,
            pending: VecDeque::new(),
            net,
            vt: 0,
            sent: 0,
            bytes: 0,
        }
    }

    /// This process's rank (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Accumulated virtual time in simulated nanoseconds.
    pub fn virtual_time(&self) -> u64 {
        self.vt
    }

    /// Add local compute time to the virtual clock (ns).
    pub fn compute(&mut self, ns: u64) {
        self.vt = self.vt.saturating_add(ns);
    }

    /// Messages sent so far.
    pub(crate) fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Payload bytes sent so far.
    pub(crate) fn sent_bytes(&self) -> u64 {
        self.bytes
    }

    /// Blocking tagged send of raw bytes.
    pub fn send(&mut self, dst: usize, tag: Tag, data: Vec<u8>) -> Result<(), MpiError> {
        if dst == self.rank {
            return Err(MpiError::SelfSend);
        }
        if dst >= self.size {
            return Err(MpiError::RankOutOfRange {
                rank: dst,
                size: self.size,
            });
        }
        let cost = self
            .net
            .message_cost(self.rank, dst, data.len() as u64)
            .map_err(|e| MpiError::Network(e.to_string()))?;
        // Sender is busy for the serialization part; full cost lands at the
        // receiver as arrival time (alpha-beta model, store-and-forward).
        let arrival_vt = self.vt + cost.total.nanos();
        self.vt = self
            .vt
            .saturating_add(cost.total.nanos() / (cost.hops.max(1) as u64));
        self.sent += 1;
        self.bytes += data.len() as u64;
        let msg = Msg {
            src: self.rank,
            tag,
            data,
            arrival_vt,
        };
        self.txs[dst]
            .as_ref()
            .ok_or(MpiError::Disconnected { peer: dst })?
            .send(msg)
            .map_err(|_| MpiError::Disconnected { peer: dst })
    }

    /// Blocking receive matching `(src, tag)`. Messages from other sources/
    /// tags are buffered, preserving arrival order per match key.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Result<Msg, MpiError> {
        if src >= self.size {
            return Err(MpiError::RankOutOfRange {
                rank: src,
                size: self.size,
            });
        }
        // Check the unexpected-message queue first.
        if let Some(i) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            let msg = self.pending.remove(i).expect("position valid");
            self.vt = self.vt.max(msg.arrival_vt);
            return Ok(msg);
        }
        loop {
            let msg = self
                .rx
                .recv()
                .map_err(|_| MpiError::Disconnected { peer: src })?;
            if msg.src == src && msg.tag == tag {
                self.vt = self.vt.max(msg.arrival_vt);
                return Ok(msg);
            }
            self.pending.push_back(msg);
        }
    }

    /// Receive from any source with the given tag; returns the message.
    pub fn recv_any(&mut self, tag: Tag) -> Result<Msg, MpiError> {
        if let Some(i) = self.pending.iter().position(|m| m.tag == tag) {
            let msg = self.pending.remove(i).expect("position valid");
            self.vt = self.vt.max(msg.arrival_vt);
            return Ok(msg);
        }
        loop {
            let msg = self
                .rx
                .recv()
                .map_err(|_| MpiError::Disconnected { peer: self.size })?;
            if msg.tag == tag {
                self.vt = self.vt.max(msg.arrival_vt);
                return Ok(msg);
            }
            self.pending.push_back(msg);
        }
    }

    // ---- typed helpers -----------------------------------------------------

    /// Send one i64.
    pub fn send_i64(&mut self, dst: usize, tag: Tag, v: i64) -> Result<(), MpiError> {
        self.send(dst, tag, v.to_le_bytes().to_vec())
    }

    /// Receive one i64.
    pub(crate) fn recv_i64(&mut self, src: usize, tag: Tag) -> Result<i64, MpiError> {
        let m = self.recv(src, tag)?;
        decode_i64(&m.data)
    }

    /// Send a slice of i64s.
    pub fn send_vec_i64(&mut self, dst: usize, tag: Tag, vs: &[i64]) -> Result<(), MpiError> {
        let mut data = Vec::with_capacity(vs.len() * 8);
        for v in vs {
            data.extend_from_slice(&v.to_le_bytes());
        }
        self.send(dst, tag, data)
    }

    /// Receive a vector of i64s.
    pub fn recv_vec_i64(&mut self, src: usize, tag: Tag) -> Result<Vec<i64>, MpiError> {
        let m = self.recv(src, tag)?;
        decode_vec_i64(&m.data)
    }
}

/// Decode a single little-endian i64.
pub(crate) fn decode_i64(data: &[u8]) -> Result<i64, MpiError> {
    let arr: [u8; 8] = data.try_into().map_err(|_| MpiError::Decode {
        expected: "i64",
        len: data.len(),
    })?;
    Ok(i64::from_le_bytes(arr))
}

/// Decode a packed little-endian i64 vector.
pub(crate) fn decode_vec_i64(data: &[u8]) -> Result<Vec<i64>, MpiError> {
    if !data.len().is_multiple_of(8) {
        return Err(MpiError::Decode {
            expected: "Vec<i64>",
            len: data.len(),
        });
    }
    Ok(data
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_ops() {
        assert_eq!(Reduce::Sum.apply(2, 3), 5);
        assert_eq!(Reduce::Min.apply(2, 3), 2);
        assert_eq!(Reduce::Max.apply(2, 3), 3);
        assert_eq!(Reduce::Prod.apply(2, 3), 6);
        for op in [Reduce::Sum, Reduce::Min, Reduce::Max, Reduce::Prod] {
            assert_eq!(op.apply(op.identity(), 42), 42);
        }
    }

    #[test]
    fn decode_roundtrip() {
        assert_eq!(decode_i64(&(-7i64).to_le_bytes()).unwrap(), -7);
        assert!(decode_i64(&[1, 2, 3]).is_err());
        let packed: Vec<u8> = [1i64, -2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(decode_vec_i64(&packed).unwrap(), vec![1, -2, 3]);
        assert!(decode_vec_i64(&[0; 9]).is_err());
    }
}
