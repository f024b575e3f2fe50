//! Cluster specifications: what hardware exists before we turn it on.
//!
//! The paper's cluster "has four segments, composed of different types of
//! computers acquired in different times" (§I), with "duo-core and quad-core
//! machines and a GPU machine" (§III.B). [`ClusterSpec::uhd`] reproduces
//! that: four heterogeneous segments, one of which hosts the accelerator.

use simnet::{LinkProfile, Network, Topology};

/// The broad class of a node, which fixes its default core count and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// A dual-core compute node (the older segments).
    DuoCore,
    /// A quad-core compute node (the newer segments).
    QuadCore,
    /// The SIMD accelerator ("GPU machine").
    Accelerator,
}

impl NodeClass {
    /// Default number of schedulable cores for the class.
    pub(crate) fn default_cores(self) -> u32 {
        match self {
            NodeClass::DuoCore => 2,
            NodeClass::QuadCore => 4,
            NodeClass::Accelerator => 4,
        }
    }
}

/// Specification of one physical node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Node class (duo/quad/accelerator).
    pub class: NodeClass,
    /// Schedulable cores.
    pub cores: u32,
    /// Main memory in MiB.
    pub memory_mib: u64,
}

impl NodeSpec {
    /// A node of `class` with its class defaults.
    pub(crate) fn of_class(class: NodeClass) -> NodeSpec {
        let memory_mib = match class {
            NodeClass::DuoCore => 2_048,
            NodeClass::QuadCore => 8_192,
            NodeClass::Accelerator => 4_096,
        };
        NodeSpec {
            class,
            cores: class.default_cores(),
            memory_mib,
        }
    }
}

/// Specification of one segment: a master plus its slave nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSpec {
    /// Human-readable segment name ("segment-0", ...).
    pub name: String,
    /// Slave node specs, in slot order.
    pub slaves: Vec<NodeSpec>,
}

impl SegmentSpec {
    /// A homogeneous segment of `n` slaves of `class`.
    pub(crate) fn homogeneous(name: impl Into<String>, class: NodeClass, n: usize) -> SegmentSpec {
        SegmentSpec {
            name: name.into(),
            slaves: vec![NodeSpec::of_class(class); n],
        }
    }
}

/// Specification of the whole cluster (grid head implied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Cluster display name.
    pub name: String,
    /// The segments, in id order.
    pub segments: Vec<SegmentSpec>,
    /// Link profile within a segment (slave <-> master).
    pub intra_segment_link: LinkProfile,
    /// Link profile between segment masters and the grid head.
    pub uplink: LinkProfile,
}

impl ClusterSpec {
    /// The UHD cluster from the paper: four 16-slave segments (two duo-core,
    /// two quad-core), with one accelerator replacing the last slave of the
    /// final segment. 69 nodes total.
    pub fn uhd() -> ClusterSpec {
        let mut segments = vec![
            SegmentSpec::homogeneous("segment-0", NodeClass::DuoCore, 16),
            SegmentSpec::homogeneous("segment-1", NodeClass::DuoCore, 16),
            SegmentSpec::homogeneous("segment-2", NodeClass::QuadCore, 16),
            SegmentSpec::homogeneous("segment-3", NodeClass::QuadCore, 16),
        ];
        let last = segments[3].slaves.len() - 1;
        segments[3].slaves[last] = NodeSpec::of_class(NodeClass::Accelerator);
        ClusterSpec {
            name: "uhd-grid".to_string(),
            segments,
            intra_segment_link: LinkProfile::backplane(),
            uplink: LinkProfile::campus_uplink(),
        }
    }

    /// A small homogeneous cluster for tests: `segments` x `slaves` quad-cores.
    pub fn small(segments: usize, slaves: usize) -> ClusterSpec {
        ClusterSpec {
            name: "test-cluster".to_string(),
            segments: (0..segments)
                .map(|i| {
                    SegmentSpec::homogeneous(format!("segment-{i}"), NodeClass::QuadCore, slaves)
                })
                .collect(),
            intra_segment_link: LinkProfile::backplane(),
            uplink: LinkProfile::campus_uplink(),
        }
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Maximum slave count across segments (the topology is built with this
    /// uniform width; missing slots are marked permanently down).
    pub(crate) fn max_slaves(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.slaves.len())
            .max()
            .unwrap_or(0)
    }

    /// Total schedulable cores across all slaves.
    pub fn total_cores(&self) -> u32 {
        self.segments
            .iter()
            .flat_map(|s| &s.slaves)
            .map(|n| n.cores)
            .sum()
    }

    /// Build the simnet [`Network`] matching this spec, with tiered link
    /// profiles (intra-segment vs uplink).
    pub(crate) fn build_network(&self) -> Network {
        let topo =
            Topology::segmented_cluster(self.segment_count().max(1), self.max_slaves().max(1));
        let mut net = Network::new(topo, self.intra_segment_link);
        let masters: Vec<usize> = net.topology().neighbors(0);
        for m in masters {
            net.set_link_profile(0, m, self.uplink);
            net.set_link_profile(m, 0, self.uplink);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uhd_matches_paper_shape() {
        let s = ClusterSpec::uhd();
        assert_eq!(s.segment_count(), 4);
        assert_eq!(
            s.segments.iter().map(|seg| seg.slaves.len()).sum::<usize>(),
            64
        );
        // 2 segments x 16 x 2 cores + 1 segment x 16 x 4 + (15 x 4 + 4 accel)
        assert_eq!(s.total_cores(), 64 + 64 + 64);
        let accel: Vec<_> = s
            .segments
            .iter()
            .flat_map(|seg| &seg.slaves)
            .filter(|n| n.class == NodeClass::Accelerator)
            .collect();
        assert_eq!(accel.len(), 1);
    }

    #[test]
    fn network_layout_matches_spec() {
        let s = ClusterSpec::uhd();
        let net = s.build_network();
        assert_eq!(net.topology().len(), 69);
    }

    #[test]
    fn class_defaults() {
        assert_eq!(NodeClass::DuoCore.default_cores(), 2);
        assert_eq!(NodeClass::QuadCore.default_cores(), 4);
        assert_eq!(NodeSpec::of_class(NodeClass::QuadCore).memory_mib, 8_192);
    }

    #[test]
    fn small_cluster_helper() {
        let s = ClusterSpec::small(2, 3);
        assert_eq!(
            s.segments.iter().map(|seg| seg.slaves.len()).sum::<usize>(),
            6
        );
        assert_eq!(s.total_cores(), 24);
        assert_eq!(s.build_network().topology().len(), 1 + 2 * 4);
    }
}
