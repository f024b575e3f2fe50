//! The UMA/NUMA memory-access cost model — Lab 3's substrate.
//!
//! Lab 3 has students "use Pthread and MPI to simulate and evaluate the
//! access times to local shared memory and the access times to remote
//! memory": UMA among threads on one multi-core processor, NUMA when a
//! process reads data on a remote processor (§III.B). This module assigns a
//! [`MemoryDomain`] to every access and costs it:
//!
//! * `LocalCache`   — hit in the accessing core's cache;
//! * `LocalDram`    — same node, uniform access (the UMA case);
//! * `RemoteSocket` — another socket on the same node (on-node NUMA);
//! * `RemoteNode`   — another cluster node, paid through the network
//!   (message-passing NUMA, the case Lab 3 measures with MPI).

use crate::cache::{AccessKind, CacheSystem, CoherenceProtocol};
use simnet::{Network, NetworkError, NodeId, SimDuration};
use std::fmt;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryDomain {
    /// The accessing core's own cache.
    LocalCache,
    /// DRAM attached to the accessing socket (UMA).
    LocalDram,
    /// DRAM attached to a different socket on the same node.
    RemoteSocket,
    /// Memory on a different cluster node, reached via the interconnect.
    RemoteNode,
}

impl fmt::Display for MemoryDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryDomain::LocalCache => "local-cache",
            MemoryDomain::LocalDram => "local-dram (UMA)",
            MemoryDomain::RemoteSocket => "remote-socket (NUMA)",
            MemoryDomain::RemoteNode => "remote-node (NUMA/MPI)",
        };
        f.write_str(s)
    }
}

/// Nanosecond costs per domain (excluding the network part of RemoteNode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NumaCostModel {
    /// Cache hit.
    pub cache_ns: u64,
    /// Local DRAM access.
    pub dram_ns: u64,
    /// Cross-socket access on one node.
    pub remote_socket_ns: u64,
    /// Software overhead of a remote (MPI) access on top of network time.
    pub remote_sw_overhead_ns: u64,
}

impl Default for NumaCostModel {
    fn default() -> Self {
        // Commodity 2010s numbers: ~1ns L1, ~80ns DRAM, ~130ns remote socket.
        NumaCostModel {
            cache_ns: 1,
            dram_ns: 80,
            remote_socket_ns: 130,
            remote_sw_overhead_ns: 2_000,
        }
    }
}

/// One costed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessReport {
    /// Where it was satisfied.
    pub domain: MemoryDomain,
    /// Total simulated time.
    pub time: SimDuration,
}

/// A node-local memory system: `sockets` sockets of `cores_per_socket`
/// cores, one coherent cache system per node, plus remote-node access via
/// a network reference.
#[derive(Debug)]
pub struct MemorySystem {
    sockets: usize,
    cores_per_socket: usize,
    /// Address space split: addresses are owned round-robin by socket
    /// (`(addr / interleave) % sockets`).
    interleave: u64,
    cost: NumaCostModel,
    caches: CacheSystem,
}

impl MemorySystem {
    /// A memory system with `sockets` x `cores_per_socket` cores and
    /// 4 KiB socket interleaving.
    pub fn new(sockets: usize, cores_per_socket: usize) -> MemorySystem {
        assert!(
            sockets >= 1 && cores_per_socket >= 1,
            "need at least one core"
        );
        MemorySystem {
            sockets,
            cores_per_socket,
            interleave: 4096,
            cost: NumaCostModel::default(),
            caches: CacheSystem::new(sockets * cores_per_socket, 64, CoherenceProtocol::Mesi),
        }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Which socket owns `addr`.
    pub fn home_socket(&self, addr: u64) -> usize {
        ((addr / self.interleave) % self.sockets as u64) as usize
    }

    /// Which socket a core sits on.
    pub(crate) fn socket_of_core(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    /// The coherent cache system (for inspecting coherence stats).
    pub fn caches(&self) -> &CacheSystem {
        &self.caches
    }

    /// Access local (on-node) memory from `core`; returns domain and time.
    ///
    /// A cache hit is `LocalCache` regardless of the line's home socket;
    /// misses pay DRAM or remote-socket cost depending on the home.
    pub fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> AccessReport {
        assert!(core < self.cores(), "core {core} out of range");
        let was_hit_state = self.caches.line_state(core, addr);
        let hit = match (kind, was_hit_state) {
            (AccessKind::Read, s) => s != crate::cache::LineState::Invalid,
            (AccessKind::Write, crate::cache::LineState::Modified)
            | (AccessKind::Write, crate::cache::LineState::Exclusive) => true,
            (AccessKind::Write, _) => false,
        };
        self.caches.access(core, addr, kind);
        if hit {
            return AccessReport {
                domain: MemoryDomain::LocalCache,
                time: SimDuration::from_nanos(self.cost.cache_ns),
            };
        }
        let home = self.home_socket(addr);
        if home == self.socket_of_core(core) {
            AccessReport {
                domain: MemoryDomain::LocalDram,
                time: SimDuration::from_nanos(self.cost.dram_ns),
            }
        } else {
            AccessReport {
                domain: MemoryDomain::RemoteSocket,
                time: SimDuration::from_nanos(self.cost.remote_socket_ns),
            }
        }
    }

    /// Access memory living on a *different cluster node*: the MPI-style
    /// NUMA case. Pays request+response network messages plus software
    /// overhead; `bytes` is the payload pulled or pushed.
    pub fn access_remote_node(
        &self,
        net: &Network,
        from: NodeId,
        owner: NodeId,
        bytes: u64,
        kind: AccessKind,
    ) -> Result<AccessReport, NetworkError> {
        // Request carries the address (small); response carries data for
        // reads. Writes push data out and get a small ack back.
        let (req_bytes, resp_bytes) = match kind {
            AccessKind::Read => (64, bytes.max(1)),
            AccessKind::Write => (bytes.max(1), 64),
        };
        let req = net.message_cost(from, owner, req_bytes)?;
        let resp = net.message_cost(owner, from, resp_bytes)?;
        let time =
            req.total + resp.total + SimDuration::from_nanos(self.cost.remote_sw_overhead_ns);
        Ok(AccessReport {
            domain: MemoryDomain::RemoteNode,
            time,
        })
    }

    /// Convenience: sweep `n` sequential word accesses from `core` starting
    /// at `base`, returning mean nanoseconds per access. Used by Lab 3 and
    /// the `uma_numa` bench.
    pub fn sweep(
        &mut self,
        core: usize,
        base: u64,
        n: usize,
        stride: u64,
        kind: AccessKind,
    ) -> f64 {
        let mut total = 0u64;
        for i in 0..n {
            let r = self.access(core, base + i as u64 * stride, kind);
            total += r.time.nanos();
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{LinkProfile, Topology};

    #[test]
    fn cache_hit_after_first_touch() {
        let mut m = MemorySystem::new(1, 2);
        let first = m.access(0, 0x0, AccessKind::Read);
        let second = m.access(0, 0x8, AccessKind::Read); // same 64B line
        assert_eq!(first.domain, MemoryDomain::LocalDram);
        assert_eq!(second.domain, MemoryDomain::LocalCache);
        assert!(second.time < first.time);
    }

    #[test]
    fn remote_socket_costs_more_than_local() {
        let mut m = MemorySystem::new(2, 2);
        // Address homed on socket 1, accessed from core 0 (socket 0).
        let addr_remote = 4096;
        let addr_local = 0;
        assert_eq!(m.home_socket(addr_remote), 1);
        assert_eq!(m.home_socket(addr_local), 0);
        let remote = m.access(0, addr_remote, AccessKind::Read);
        let local = m.access(0, addr_local, AccessKind::Read);
        assert_eq!(remote.domain, MemoryDomain::RemoteSocket);
        assert_eq!(local.domain, MemoryDomain::LocalDram);
        assert!(remote.time > local.time);
    }

    #[test]
    fn write_to_shared_line_is_not_a_hit() {
        let mut m = MemorySystem::new(1, 2);
        m.access(0, 0, AccessKind::Read);
        m.access(1, 0, AccessKind::Read); // both Shared now
        let w = m.access(0, 0, AccessKind::Write); // upgrade: pays DRAM-class cost
        assert_ne!(w.domain, MemoryDomain::LocalCache);
    }

    #[test]
    fn remote_node_dwarfs_local() {
        let m = MemorySystem::new(1, 2);
        let net = Network::new(
            Topology::segmented_cluster(2, 2),
            LinkProfile::gigabit_ethernet(),
        );
        let a = net.topology().segment_slave(0, 0).unwrap();
        let b = net.topology().segment_slave(1, 0).unwrap();
        let r = m
            .access_remote_node(&net, a, b, 4096, AccessKind::Read)
            .unwrap();
        assert_eq!(r.domain, MemoryDomain::RemoteNode);
        // Four hops of 50µs latency each way: far above the 80ns DRAM cost.
        assert!(r.time.nanos() > 100_000);
    }

    #[test]
    fn remote_write_costs_similar_shape() {
        let m = MemorySystem::new(1, 1);
        let net = Network::new(Topology::ring(4), LinkProfile::new(1_000, 1 << 30));
        let rd = m
            .access_remote_node(&net, 0, 2, 1 << 20, AccessKind::Read)
            .unwrap();
        let wr = m
            .access_remote_node(&net, 0, 2, 1 << 20, AccessKind::Write)
            .unwrap();
        // Read pulls the megabyte back, write pushes it out: equal payloads.
        assert_eq!(rd.time, wr.time);
    }

    #[test]
    fn sweep_mean_reflects_caching() {
        let mut m = MemorySystem::new(1, 1);
        // 64 accesses with stride 8 touch 8 lines: 8 misses + 56 hits.
        let mean = m.sweep(0, 0, 64, 8, AccessKind::Read);
        let expect = (8.0 * 80.0 + 56.0 * 1.0) / 64.0;
        assert!((mean - expect).abs() < 1e-9, "mean {mean} vs {expect}");
    }

    #[test]
    fn sweep_empty_is_zero() {
        let mut m = MemorySystem::new(1, 1);
        assert_eq!(m.sweep(0, 0, 0, 8, AccessKind::Read), 0.0);
    }
}
