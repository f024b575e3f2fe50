//! The world: spawn one OS thread per rank, wire up inboxes, run SPMD code.

use crate::proc::{Msg, Proc};
use simnet::{LinkProfile, Network, Topology};
use std::fmt;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Per-rank execution statistics returned alongside results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankStats {
    /// The rank.
    pub rank: usize,
    /// Final virtual clock (simulated ns).
    pub virtual_time_ns: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
}

/// World execution failures.
#[derive(Debug)]
pub enum WorldError {
    /// A rank's thread panicked; the panic payload is rendered if stringy.
    RankPanicked {
        /// Which rank died.
        rank: usize,
        /// Panic message when recoverable.
        message: String,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for WorldError {}

/// An SPMD execution context: `n` ranks over a costed topology.
pub struct World {
    size: usize,
    net: Arc<Network>,
}

impl World {
    /// A world of `size` ranks mapped 1:1 onto the first `size` nodes of
    /// `topo`, every link using `profile`.
    ///
    /// Panics if `size` is zero or exceeds the topology (programming error).
    pub fn new(size: usize, topo: Topology, profile: LinkProfile) -> World {
        assert!(size >= 1, "world needs at least one rank");
        assert!(
            size <= topo.len(),
            "world of {size} ranks exceeds {} nodes",
            topo.len()
        );
        World {
            size,
            net: Arc::new(Network::new(topo, profile)),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The shared cost model.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Run `f` on every rank concurrently; returns rank-ordered results.
    ///
    /// `f` must not panic; a panicking rank turns into
    /// [`WorldError::RankPanicked`] (other ranks may then fail with
    /// disconnection errors, which their closures surface as they wish).
    pub fn run<F, R>(&self, f: F) -> Result<Vec<R>, WorldError>
    where
        F: Fn(&mut Proc) -> R + Send + Sync,
        R: Send,
    {
        self.run_stats(f).map(|(results, _)| results)
    }

    /// Like [`World::run`], also returning per-rank statistics.
    pub fn run_stats<F, R>(&self, f: F) -> Result<(Vec<R>, Vec<RankStats>), WorldError>
    where
        F: Fn(&mut Proc) -> R + Send + Sync,
        R: Send,
    {
        let size = self.size;
        let mut txs_all = Vec::with_capacity(size);
        let mut rxs = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel::<Msg>();
            txs_all.push(tx);
            rxs.push(rx);
        }
        let results: Vec<Option<(R, RankStats)>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, rx) in rxs.into_iter().enumerate() {
                let txs: Vec<_> = txs_all.iter().map(|t| Some(t.clone())).collect();
                let net = Arc::clone(&self.net);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut proc = Proc::new(rank, size, txs, rx, net);
                    let r = f(&mut proc);
                    let stats = RankStats {
                        rank,
                        virtual_time_ns: proc.virtual_time(),
                        messages_sent: proc.sent_count(),
                        bytes_sent: proc.sent_bytes(),
                    };
                    (r, stats)
                }));
            }
            // Senders held by the spawning thread must drop so rank threads
            // can observe disconnection of *finished* peers only.
            drop(txs_all);
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        let mut out = Vec::with_capacity(size);
        let mut stats = Vec::with_capacity(size);
        for (rank, slot) in results.into_iter().enumerate() {
            match slot {
                Some((r, s)) => {
                    out.push(r);
                    stats.push(s);
                }
                None => {
                    return Err(WorldError::RankPanicked {
                        rank,
                        message: "rank thread panicked".to_string(),
                    })
                }
            }
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{MpiError, Tag};

    fn ring4() -> World {
        World::new(4, Topology::ring(4), LinkProfile::new(1_000, 1 << 30))
    }

    #[test]
    fn rank_identity() {
        let w = ring4();
        let ranks = w.run(|p| (p.rank(), p.size())).unwrap();
        assert_eq!(ranks, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn pingpong() {
        let w = World::new(2, Topology::ring(2), LinkProfile::new(500, 1 << 30));
        let out = w
            .run(|p| {
                if p.rank() == 0 {
                    p.send_i64(1, Tag(0), 41).unwrap();
                    p.recv_i64(1, Tag(0)).unwrap()
                } else {
                    let v = p.recv_i64(0, Tag(0)).unwrap();
                    p.send_i64(0, Tag(0), v + 1).unwrap();
                    v
                }
            })
            .unwrap();
        assert_eq!(out, vec![42, 41]);
    }

    #[test]
    fn tag_matching_buffers_unexpected() {
        let w = World::new(2, Topology::ring(2), LinkProfile::new(1, 1 << 30));
        let out = w
            .run(|p| {
                if p.rank() == 0 {
                    // Send tag 2 first, then tag 1; receiver asks for 1 first.
                    p.send_i64(1, Tag(2), 222).unwrap();
                    p.send_i64(1, Tag(1), 111).unwrap();
                    0
                } else {
                    let first = p.recv_i64(0, Tag(1)).unwrap();
                    let second = p.recv_i64(0, Tag(2)).unwrap();
                    first * 1000 + second
                }
            })
            .unwrap();
        assert_eq!(out[1], 111_222);
    }

    #[test]
    fn virtual_time_accumulates_network_cost() {
        // Two hops on a ring with 1µs latency: receiver's clock must be at
        // least the arrival time of the message.
        let w = World::new(4, Topology::ring(4), LinkProfile::new(1_000, 1 << 30));
        let (_, stats) = w
            .run_stats(|p| {
                if p.rank() == 0 {
                    p.send_i64(2, Tag(0), 1).unwrap();
                } else if p.rank() == 2 {
                    p.recv_i64(0, Tag(0)).unwrap();
                }
            })
            .unwrap();
        assert!(
            stats[2].virtual_time_ns >= 2_000,
            "vt {}",
            stats[2].virtual_time_ns
        );
        assert_eq!(stats[0].messages_sent, 1);
        assert_eq!(stats[0].bytes_sent, 8);
        assert_eq!(stats[3].messages_sent, 0);
    }

    #[test]
    fn self_send_rejected() {
        let w = ring4();
        let errs = w
            .run(|p| p.send_i64(p.rank(), Tag(0), 0).unwrap_err())
            .unwrap();
        assert!(errs.iter().all(|e| *e == MpiError::SelfSend));
    }

    #[test]
    fn bad_rank_rejected() {
        let w = ring4();
        let errs = w.run(|p| p.send_i64(99, Tag(0), 0).unwrap_err()).unwrap();
        assert!(matches!(
            errs[0],
            MpiError::RankOutOfRange { rank: 99, size: 4 }
        ));
    }

    #[test]
    fn compute_advances_virtual_clock() {
        let w = ring4();
        let (_, stats) = w.run_stats(|p| p.compute(5_000)).unwrap();
        assert!(stats.iter().all(|s| s.virtual_time_ns == 5_000));
    }
}
