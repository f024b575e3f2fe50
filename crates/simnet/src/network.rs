//! The network: a topology plus link profiles, producing message costs.
//!
//! [`Network::message_cost`] is the workhorse: given source, destination and
//! payload size it routes the message and sums per-hop costs. A store-and-
//! forward model is used (each hop pays full latency + serialization), which
//! matches the switched-Ethernet fabric of the paper's cluster.

use crate::link::{Link, LinkProfile};
use crate::routing::{route, RouteError};
use crate::time::SimDuration;
use crate::topology::{NodeId, Topology};
use std::collections::HashMap;
use std::fmt;

/// Errors from network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Underlying routing failed.
    Route(RouteError),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Route(e) => write!(f, "routing failed: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Route(e) => Some(e),
        }
    }
}

impl From<RouteError> for NetworkError {
    fn from(e: RouteError) -> Self {
        NetworkError::Route(e)
    }
}

/// The result of costing one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageCost {
    /// Total simulated transfer time.
    pub total: SimDuration,
    /// Number of links crossed.
    pub hops: usize,
    /// The full node path, endpoints inclusive.
    pub path: Vec<NodeId>,
}

/// A simulated interconnect: topology + per-link-class profiles + stats.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    default_profile: LinkProfile,
    /// Overrides for specific directed links (from, to).
    overrides: HashMap<(NodeId, NodeId), LinkProfile>,
    /// Live per-directed-link state (created lazily).
    links: HashMap<(NodeId, NodeId), Link>,
}

impl Network {
    /// A network where every link uses `profile`.
    pub fn new(topo: Topology, profile: LinkProfile) -> Network {
        Network {
            topo,
            default_profile: profile,
            overrides: HashMap::new(),
            links: HashMap::new(),
        }
    }

    /// The paper's cluster fabric with realistic tiered links: backplane
    /// within a segment, campus uplinks from segment masters to the head.
    pub fn uhd_cluster() -> Network {
        let topo = Topology::segmented_cluster(4, 16);
        let mut net = Network::new(topo, LinkProfile::backplane());
        // Master <-> head links are slower campus uplinks.
        let heads: Vec<NodeId> = net.topo.neighbors(0);
        for m in heads {
            net.set_link_profile(0, m, LinkProfile::campus_uplink());
            net.set_link_profile(m, 0, LinkProfile::campus_uplink());
        }
        net
    }

    /// The topology backing this network.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Override the profile of the directed link `from -> to`.
    ///
    /// Takes effect for future messages; any accumulated stats for the link
    /// are preserved.
    pub fn set_link_profile(&mut self, from: NodeId, to: NodeId, profile: LinkProfile) {
        self.overrides.insert((from, to), profile);
        if let Some(l) = self.links.get(&(from, to)) {
            let replacement = Link::with_history(profile, l.bytes_carried(), l.messages_carried());
            self.links.insert((from, to), replacement);
        }
    }

    fn profile_for(&self, from: NodeId, to: NodeId) -> LinkProfile {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_profile)
    }

    /// Route and cost a message of `bytes` from `from` to `to`, updating
    /// per-link statistics.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<MessageCost, NetworkError> {
        let path = route(&self.topo, from, to)?;
        let mut total = SimDuration::ZERO;
        for w in path.windows(2) {
            let key = (w[0], w[1]);
            let profile = self.profile_for(w[0], w[1]);
            let link = self.links.entry(key).or_insert_with(|| Link::new(profile));
            total += link.carry(bytes);
        }
        Ok(MessageCost {
            total,
            hops: path.len() - 1,
            path,
        })
    }

    /// Cost a message without mutating statistics (pure query).
    pub fn message_cost(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<MessageCost, NetworkError> {
        let path = route(&self.topo, from, to)?;
        let mut total = SimDuration::ZERO;
        for w in path.windows(2) {
            total += self.profile_for(w[0], w[1]).transfer_time(bytes);
        }
        Ok(MessageCost {
            total,
            hops: path.len() - 1,
            path,
        })
    }

    /// The busiest directed link so far, as `((from, to), bytes)`.
    pub fn hottest_link(&self) -> Option<((NodeId, NodeId), u64)> {
        self.links
            .iter()
            .max_by_key(|(k, l)| (l.bytes_carried(), std::cmp::Reverse(*k)))
            .map(|(k, l)| (*k, l.bytes_carried()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_sums_per_hop() {
        let net = Network::new(Topology::ring(8), LinkProfile::new(100, 1_000_000_000));
        // 0 -> 2 is two hops; 1000 bytes at 1 GB/s = 1000ns serialization/hop.
        let c = net.message_cost(0, 2, 1000).unwrap();
        assert_eq!(c.hops, 2);
        assert_eq!(c.total, SimDuration(2 * (100 + 1000)));
    }

    #[test]
    fn self_send_is_free() {
        let mut net = Network::new(Topology::ring(4), LinkProfile::new(100, 1_000));
        let c = net.send(1, 1, 4096).unwrap();
        assert_eq!(c.hops, 0);
        assert_eq!(c.total, SimDuration::ZERO);
    }

    #[test]
    fn send_tracks_stats() {
        let mut net = Network::new(Topology::star(4), LinkProfile::new(10, 1_000_000_000));
        net.send(1, 2, 100).unwrap();
        net.send(1, 3, 50).unwrap();
        // Both went via the hub, so the spoke-to-hub link carried both.
        assert_eq!(net.hottest_link(), Some(((1, 0), 150)));
    }

    #[test]
    fn overrides_change_cost() {
        let mut net = Network::new(Topology::ring(4), LinkProfile::new(100, 1_000_000_000));
        let before = net.message_cost(0, 1, 0).unwrap().total;
        net.set_link_profile(0, 1, LinkProfile::new(5_000, 1_000_000_000));
        let after = net.message_cost(0, 1, 0).unwrap().total;
        assert_eq!(before, SimDuration(100));
        assert_eq!(after, SimDuration(5_000));
    }

    #[test]
    fn uhd_cluster_cross_segment_is_slower() {
        let net = Network::uhd_cluster();
        let t = net.topology().clone();
        let a = t.segment_slave(0, 0).unwrap();
        let b = t.segment_slave(0, 1).unwrap();
        let c = t.segment_slave(1, 0).unwrap();
        let local = net.message_cost(a, b, 4096).unwrap();
        let remote = net.message_cost(a, c, 4096).unwrap();
        assert_eq!(local.hops, 2);
        assert_eq!(remote.hops, 4);
        // Remote pays two campus-uplink hops; should be much slower.
        assert!(remote.total.nanos() > 5 * local.total.nanos());
    }

    #[test]
    fn route_error_propagates() {
        let net = Network::new(Topology::ring(3), LinkProfile::new(1, 1));
        assert!(net.message_cost(0, 10, 1).is_err());
    }
}
