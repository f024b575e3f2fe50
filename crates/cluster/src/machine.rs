//! The live cluster: node health, core allocation, utilization accounting.
//!
//! This is the resource layer the job distributor (`sched`) allocates from.
//! Identity scheme: every slave node has a [`SlaveId`] `(segment, slot)`;
//! mapping to network node ids goes through the spec-built topology.

use crate::spec::{ClusterSpec, NodeSpec};
use obs::Obs;
use simnet::Network;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A slave node's identity: segment index and slot within the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlaveId {
    /// Segment index (0-based).
    pub segment: usize,
    /// Slot within the segment (0-based).
    pub slot: usize,
}

impl fmt::Display for SlaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}n{}", self.segment, self.slot)
    }
}

/// Health of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Accepting work.
    Up,
    /// Finishing current work; no new allocations.
    Draining,
    /// Offline.
    Down,
}

/// Errors from cluster resource operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Requested more cores than the cluster can ever provide.
    RequestExceedsCapacity {
        /// Cores requested.
        requested: u32,
        /// Total schedulable cores when every node is up.
        capacity: u32,
    },
    /// Not enough free cores right now.
    InsufficientFreeCores {
        /// Cores requested.
        requested: u32,
        /// Cores currently free on Up nodes.
        free: u32,
    },
    /// Unknown slave id.
    NoSuchNode(SlaveId),
    /// Releasing cores that were not allocated (double release or corruption).
    BadRelease(SlaveId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::RequestExceedsCapacity {
                requested,
                capacity,
            } => {
                write!(
                    f,
                    "requested {requested} cores exceeds cluster capacity {capacity}"
                )
            }
            ClusterError::InsufficientFreeCores { requested, free } => {
                write!(f, "requested {requested} cores but only {free} free")
            }
            ClusterError::NoSuchNode(id) => write!(f, "no such node {id}"),
            ClusterError::BadRelease(id) => write!(f, "bad release on node {id}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A set of cores granted to one job: node -> cores taken on that node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Cores held, per slave node.
    pub cores: BTreeMap<SlaveId, u32>,
}

impl Allocation {
    /// Total cores in the allocation.
    pub fn total_cores(&self) -> u32 {
        self.cores.values().sum()
    }

    /// Number of distinct nodes involved.
    pub fn node_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of distinct segments involved.
    pub fn segment_count(&self) -> usize {
        let mut segs: Vec<usize> = self.cores.keys().map(|s| s.segment).collect();
        segs.sort_unstable();
        segs.dedup();
        segs.len()
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    spec: NodeSpec,
    health: NodeHealth,
    busy_cores: u32,
}

/// Cached metric handles, created once when an [`Obs`] is attached.
#[derive(Debug, Clone)]
struct ClusterMetrics {
    allocations: obs::Counter,
    alloc_fail_capacity: obs::Counter,
    alloc_fail_busy: obs::Counter,
    releases: obs::Counter,
    alloc_cores: obs::Histogram,
    cores_busy: obs::Gauge,
    cores_total: obs::Gauge,
    nodes_up: obs::Gauge,
    nodes_draining: obs::Gauge,
    nodes_down: obs::Gauge,
    health_to_up: obs::Counter,
    health_to_draining: obs::Counter,
    health_to_down: obs::Counter,
}

impl ClusterMetrics {
    fn new(o: &Obs) -> ClusterMetrics {
        let m = &o.metrics;
        m.describe(
            "ccp_cluster_allocations_total",
            "successful core allocations",
        );
        m.describe(
            "ccp_cluster_alloc_failures_total",
            "rejected core allocations by reason",
        );
        m.describe(
            "ccp_cluster_alloc_cores",
            "cores granted per successful allocation",
        );
        m.describe("ccp_cluster_cores_busy", "cores currently allocated");
        m.describe("ccp_cluster_cores_total", "schedulable cores on Up nodes");
        m.describe("ccp_cluster_nodes", "slave nodes by health state");
        m.describe(
            "ccp_cluster_health_transitions_total",
            "node health transitions by target state",
        );
        ClusterMetrics {
            allocations: m.counter("ccp_cluster_allocations_total", &[]),
            alloc_fail_capacity: m.counter(
                "ccp_cluster_alloc_failures_total",
                &[("reason", "capacity")],
            ),
            alloc_fail_busy: m.counter("ccp_cluster_alloc_failures_total", &[("reason", "busy")]),
            releases: m.counter("ccp_cluster_releases_total", &[]),
            alloc_cores: m.histogram("ccp_cluster_alloc_cores", &[], obs::SMALL_COUNT_BOUNDS),
            cores_busy: m.gauge("ccp_cluster_cores_busy", &[]),
            cores_total: m.gauge("ccp_cluster_cores_total", &[]),
            nodes_up: m.gauge("ccp_cluster_nodes", &[("state", "up")]),
            nodes_draining: m.gauge("ccp_cluster_nodes", &[("state", "draining")]),
            nodes_down: m.gauge("ccp_cluster_nodes", &[("state", "down")]),
            health_to_up: m.counter("ccp_cluster_health_transitions_total", &[("to", "up")]),
            health_to_draining: m.counter(
                "ccp_cluster_health_transitions_total",
                &[("to", "draining")],
            ),
            health_to_down: m.counter("ccp_cluster_health_transitions_total", &[("to", "down")]),
        }
    }
}

/// The live cluster: spec + network + per-node state.
#[derive(Debug)]
pub struct Cluster {
    spec: ClusterSpec,
    network: Network,
    nodes: BTreeMap<SlaveId, NodeState>,
    metrics: Option<ClusterMetrics>,
}

impl Cluster {
    /// Boot a cluster from its spec; all nodes start Up.
    pub fn new(spec: ClusterSpec) -> Cluster {
        let network = spec.build_network();
        let mut nodes = BTreeMap::new();
        for (si, seg) in spec.segments.iter().enumerate() {
            for (ni, ns) in seg.slaves.iter().enumerate() {
                nodes.insert(
                    SlaveId {
                        segment: si,
                        slot: ni,
                    },
                    NodeState {
                        spec: ns.clone(),
                        health: NodeHealth::Up,
                        busy_cores: 0,
                    },
                );
            }
        }
        Cluster {
            spec,
            network,
            nodes,
            metrics: None,
        }
    }

    /// Attach a telemetry domain: registers the `ccp_cluster_*` families and
    /// seeds the node/core gauges from current state. Idempotent per `Obs`.
    pub fn set_obs(&mut self, obs: &Arc<Obs>) {
        self.metrics = Some(ClusterMetrics::new(obs));
        self.publish_gauges();
    }

    /// Refresh the node-health and core gauges from the authoritative node
    /// map, so the exposition can never disagree with `/api/health`.
    pub fn publish_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        let count = |h: NodeHealth| self.nodes.values().filter(|n| n.health == h).count() as i64;
        m.nodes_up.set(count(NodeHealth::Up));
        m.nodes_draining.set(count(NodeHealth::Draining));
        m.nodes_down.set(count(NodeHealth::Down));
        m.cores_total.set(self.total_cores() as i64);
        m.cores_busy
            .set(self.nodes.values().map(|n| n.busy_cores as i64).sum());
    }

    /// The originating spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The interconnect model.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Total schedulable cores on Up slaves.
    pub fn total_cores(&self) -> u32 {
        self.nodes
            .values()
            .filter(|n| n.health == NodeHealth::Up)
            .map(|n| n.spec.cores)
            .sum()
    }

    /// Cores currently free on Up slaves.
    pub fn free_cores(&self) -> u32 {
        self.nodes
            .values()
            .filter(|n| n.health == NodeHealth::Up)
            .map(|n| n.spec.cores - n.busy_cores)
            .sum()
    }

    /// Fraction of Up capacity in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.total_cores();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.free_cores() as f64 / total as f64
    }

    /// All slave ids in deterministic (segment, slot) order.
    pub fn slave_ids(&self) -> Vec<SlaveId> {
        self.nodes.keys().copied().collect()
    }

    /// Health of a node.
    pub fn health(&self, id: SlaveId) -> Result<NodeHealth, ClusterError> {
        self.nodes
            .get(&id)
            .map(|n| n.health)
            .ok_or(ClusterError::NoSuchNode(id))
    }

    /// Set a node's health. Allocations on the node are unaffected (the
    /// scheduler decides whether to migrate).
    pub fn set_health(&mut self, id: SlaveId, health: NodeHealth) -> Result<(), ClusterError> {
        let n = self
            .nodes
            .get_mut(&id)
            .ok_or(ClusterError::NoSuchNode(id))?;
        let changed = n.health != health;
        n.health = health;
        if changed {
            if let Some(m) = &self.metrics {
                match health {
                    NodeHealth::Up => m.health_to_up.inc(),
                    NodeHealth::Draining => m.health_to_draining.inc(),
                    NodeHealth::Down => m.health_to_down.inc(),
                }
            }
            self.publish_gauges();
        }
        Ok(())
    }

    /// The node's spec.
    pub fn node_spec(&self, id: SlaveId) -> Result<&NodeSpec, ClusterError> {
        self.nodes
            .get(&id)
            .map(|n| &n.spec)
            .ok_or(ClusterError::NoSuchNode(id))
    }

    /// Greedily allocate `cores` packing nodes in (segment, slot) order,
    /// preferring to fill a node completely before spilling (minimizes the
    /// segment spread of parallel jobs, i.e. prefers UMA over NUMA traffic).
    pub fn allocate_cores(&mut self, cores: u32) -> Result<Allocation, ClusterError> {
        self.allocate_cores_filtered(cores, |_, _| true)
    }

    /// Like [`Cluster::allocate_cores`] but restricted to nodes for which
    /// `pred(id, spec)` holds (e.g. only accelerator nodes, only quad-cores).
    pub fn allocate_cores_filtered<F>(
        &mut self,
        cores: u32,
        pred: F,
    ) -> Result<Allocation, ClusterError>
    where
        F: Fn(SlaveId, &NodeSpec) -> bool,
    {
        if cores == 0 {
            return Ok(Allocation {
                cores: BTreeMap::new(),
            });
        }
        let capacity: u32 = self
            .nodes
            .iter()
            .filter(|(id, n)| pred(**id, &n.spec))
            .map(|(_, n)| n.spec.cores)
            .sum();
        if cores > capacity {
            if let Some(m) = &self.metrics {
                m.alloc_fail_capacity.inc();
            }
            return Err(ClusterError::RequestExceedsCapacity {
                requested: cores,
                capacity,
            });
        }
        let free: u32 = self
            .nodes
            .iter()
            .filter(|(id, n)| n.health == NodeHealth::Up && pred(**id, &n.spec))
            .map(|(_, n)| n.spec.cores - n.busy_cores)
            .sum();
        if cores > free {
            if let Some(m) = &self.metrics {
                m.alloc_fail_busy.inc();
            }
            return Err(ClusterError::InsufficientFreeCores {
                requested: cores,
                free,
            });
        }
        let mut remaining = cores;
        let mut grant = BTreeMap::new();
        for (id, n) in self.nodes.iter_mut() {
            if remaining == 0 {
                break;
            }
            if n.health != NodeHealth::Up || !pred(*id, &n.spec) {
                continue;
            }
            let avail = n.spec.cores - n.busy_cores;
            if avail == 0 {
                continue;
            }
            let take = avail.min(remaining);
            n.busy_cores += take;
            grant.insert(*id, take);
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0, "free-core accounting out of sync");
        if let Some(m) = &self.metrics {
            m.allocations.inc();
            m.alloc_cores.record(cores as u64);
            m.cores_busy.add(cores as i64);
        }
        Ok(Allocation { cores: grant })
    }

    /// Return an allocation's cores to the pool.
    pub fn release(&mut self, alloc: &Allocation) -> u32 {
        let mut released = 0;
        for (&id, &take) in &alloc.cores {
            if let Some(n) = self.nodes.get_mut(&id) {
                let give_back = take.min(n.busy_cores);
                n.busy_cores -= give_back;
                released += give_back;
            }
        }
        if let Some(m) = &self.metrics {
            if released > 0 {
                m.releases.inc();
            }
            m.cores_busy.sub(released as i64);
        }
        released
    }

    /// Re-mark an allocation's cores as busy — the inverse of
    /// [`Cluster::release`], used when rebuilding scheduler state during
    /// crash recovery. Per-node takes are capped at remaining capacity so a
    /// stale allocation cannot push `busy_cores` past the node's core count.
    pub fn occupy(&mut self, alloc: &Allocation) -> u32 {
        let mut occupied = 0;
        for (&id, &take) in &alloc.cores {
            if let Some(n) = self.nodes.get_mut(&id) {
                let grab = take.min(n.spec.cores - n.busy_cores);
                n.busy_cores += grab;
                occupied += grab;
            }
        }
        if let Some(m) = &self.metrics {
            m.cores_busy.add(occupied as i64);
        }
        occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, NodeClass};

    #[test]
    fn boot_counts() {
        let c = Cluster::new(ClusterSpec::uhd());
        assert_eq!(c.network().topology().len(), 69);
        assert_eq!(c.total_cores(), 192);
        assert_eq!(c.free_cores(), 192);
        assert_eq!(c.utilization(), 0.0);
    }

    #[test]
    fn allocate_packs_nodes() {
        let mut c = Cluster::new(ClusterSpec::small(2, 2)); // 4 quad nodes
        let a = c.allocate_cores(6).unwrap();
        assert_eq!(a.total_cores(), 6);
        // Packed: first node full (4), second partial (2).
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.segment_count(), 1);
        assert_eq!(c.free_cores(), 10);
        c.release(&a);
        assert_eq!(c.free_cores(), 16);
    }

    #[test]
    fn allocate_spills_across_segments() {
        let mut c = Cluster::new(ClusterSpec::small(2, 1)); // 2 nodes, 4 cores each
        let a = c.allocate_cores(8).unwrap();
        assert_eq!(a.segment_count(), 2);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut c = Cluster::new(ClusterSpec::small(1, 1));
        assert!(matches!(
            c.allocate_cores(100),
            Err(ClusterError::RequestExceedsCapacity { capacity: 4, .. })
        ));
    }

    #[test]
    fn busy_cluster_reports_insufficient() {
        let mut c = Cluster::new(ClusterSpec::small(1, 1));
        let _a = c.allocate_cores(3).unwrap();
        assert!(matches!(
            c.allocate_cores(2),
            Err(ClusterError::InsufficientFreeCores { free: 1, .. })
        ));
    }

    #[test]
    fn down_nodes_excluded() {
        let mut c = Cluster::new(ClusterSpec::small(1, 2));
        let ids = c.slave_ids();
        c.set_health(ids[0], NodeHealth::Down).unwrap();
        assert_eq!(c.total_cores(), 4);
        let a = c.allocate_cores(4).unwrap();
        assert!(a.cores.keys().all(|id| *id == ids[1]));
    }

    #[test]
    fn draining_refuses_new_work() {
        let mut c = Cluster::new(ClusterSpec::small(1, 1));
        let id = c.slave_ids()[0];
        c.set_health(id, NodeHealth::Draining).unwrap();
        assert!(c.allocate_cores(1).is_err());
    }

    #[test]
    fn release_is_idempotent_cap() {
        let mut c = Cluster::new(ClusterSpec::small(1, 1));
        let a = c.allocate_cores(2).unwrap();
        assert_eq!(c.release(&a), 2);
        // Second release finds nothing busy to give back.
        assert_eq!(c.release(&a), 0);
        assert_eq!(c.free_cores(), 4);
    }

    #[test]
    fn occupy_restores_released_allocation() {
        let mut c = Cluster::new(ClusterSpec::small(2, 1));
        let a = c.allocate_cores(8).unwrap();
        assert_eq!(c.free_cores(), 0);
        c.release(&a);
        assert_eq!(c.occupy(&a), 8);
        assert_eq!(c.free_cores(), 0);
        // Re-occupying caps at node capacity rather than over-counting.
        assert_eq!(c.occupy(&a), 0);
        assert_eq!(c.free_cores(), 0);
    }

    #[test]
    fn filtered_allocation_targets_class() {
        let mut c = Cluster::new(ClusterSpec::uhd());
        let a = c
            .allocate_cores_filtered(4, |_, spec| spec.class == NodeClass::Accelerator)
            .unwrap();
        assert_eq!(a.node_count(), 1);
        let id = *a.cores.keys().next().unwrap();
        assert_eq!(c.node_spec(id).unwrap().class, NodeClass::Accelerator);
    }

    #[test]
    fn utilization_moves() {
        let mut c = Cluster::new(ClusterSpec::small(1, 2));
        let _a = c.allocate_cores(4).unwrap();
        assert!((c.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn obs_tracks_allocations_and_health() {
        let obs = Arc::new(Obs::new());
        let mut c = Cluster::new(ClusterSpec::small(1, 2)); // 2 nodes, 8 cores
        c.set_obs(&obs);
        assert_eq!(
            obs.metrics
                .gauge("ccp_cluster_nodes", &[("state", "up")])
                .get(),
            2
        );
        assert_eq!(obs.metrics.gauge("ccp_cluster_cores_total", &[]).get(), 8);

        let a = c.allocate_cores(6).unwrap();
        assert_eq!(
            obs.metrics
                .counter("ccp_cluster_allocations_total", &[])
                .get(),
            1
        );
        assert_eq!(obs.metrics.gauge("ccp_cluster_cores_busy", &[]).get(), 6);
        assert!(c.allocate_cores(3).is_err());
        assert_eq!(
            obs.metrics
                .counter("ccp_cluster_alloc_failures_total", &[("reason", "busy")])
                .get(),
            1
        );
        c.release(&a);
        assert_eq!(obs.metrics.gauge("ccp_cluster_cores_busy", &[]).get(), 0);

        let id = c.slave_ids()[0];
        c.set_health(id, NodeHealth::Down).unwrap();
        assert_eq!(
            obs.metrics
                .gauge("ccp_cluster_nodes", &[("state", "up")])
                .get(),
            1
        );
        assert_eq!(
            obs.metrics
                .gauge("ccp_cluster_nodes", &[("state", "down")])
                .get(),
            1
        );
        assert_eq!(obs.metrics.gauge("ccp_cluster_cores_total", &[]).get(), 4);
        assert_eq!(
            obs.metrics
                .counter("ccp_cluster_health_transitions_total", &[("to", "down")])
                .get(),
            1
        );
        // Re-setting the same health is not a transition.
        c.set_health(id, NodeHealth::Down).unwrap();
        assert_eq!(
            obs.metrics
                .counter("ccp_cluster_health_transitions_total", &[("to", "down")])
                .get(),
            1
        );
    }

    #[test]
    fn zero_core_request_is_empty() {
        let mut c = Cluster::new(ClusterSpec::small(1, 1));
        let a = c.allocate_cores(0).unwrap();
        assert_eq!(a.total_cores(), 0);
        assert_eq!(a.node_count(), 0);
    }
}
