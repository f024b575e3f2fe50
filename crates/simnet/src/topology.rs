//! Interconnect topologies.
//!
//! The course's message-passing module covers "topology, latency, and
//! routing" (§III.A); this module provides the topology catalogue. Each
//! topology knows its node count, the neighbour set of every node, and a
//! human-readable kind tag. Routing lives in [`crate::routing`].

use std::fmt;

/// Index of a node within a topology (0-based, dense).
pub type NodeId = usize;

/// Discriminant describing the shape of a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Every node connected to a single hub (node 0).
    Star,
    /// Nodes in a cycle, each with two neighbours.
    Ring,
    /// A `rows x cols` grid without wraparound.
    Mesh2D,
    /// A `2^d`-node binary hypercube.
    Hypercube,
    /// A complete binary tree (node 0 the root).
    Tree,
    /// Every pair of nodes directly connected.
    FullyConnected,
    /// The paper's cluster fabric: `segments` stars whose hubs (segment
    /// masters) all connect to one grid head node.
    SegmentedCluster,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Star => "star",
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh2D => "mesh2d",
            TopologyKind::Hypercube => "hypercube",
            TopologyKind::Tree => "tree",
            TopologyKind::FullyConnected => "fully-connected",
            TopologyKind::SegmentedCluster => "segmented-cluster",
        };
        f.write_str(s)
    }
}

/// A concrete interconnect topology instance.
///
/// Construction is via the named constructors ([`Topology::ring`],
/// [`Topology::hypercube`], [`Topology::segmented_cluster`], ...). Adjacency
/// is computed on demand from the parameters rather than stored, so even
/// large fully-connected topologies are cheap to hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    nodes: usize,
    /// Grid rows (mesh) or hypercube dimension, otherwise 0.
    dim_a: usize,
    /// Grid cols (mesh), otherwise 0.
    dim_b: usize,
    /// SegmentedCluster: number of segments.
    segments: usize,
    /// SegmentedCluster: slave nodes per segment.
    slaves_per_segment: usize,
}

impl Topology {
    /// A star of `n` nodes; node 0 is the hub. `n >= 1`.
    pub fn star(n: usize) -> Topology {
        assert!(n >= 1, "star needs at least one node");
        Topology {
            kind: TopologyKind::Star,
            nodes: n,
            dim_a: 0,
            dim_b: 0,
            segments: 0,
            slaves_per_segment: 0,
        }
    }

    /// A ring of `n` nodes. `n >= 2` to have distinct neighbours.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 2, "ring needs at least two nodes");
        Topology {
            kind: TopologyKind::Ring,
            nodes: n,
            dim_a: 0,
            dim_b: 0,
            segments: 0,
            slaves_per_segment: 0,
        }
    }

    /// A `rows x cols` mesh without wraparound.
    pub fn mesh2d(rows: usize, cols: usize) -> Topology {
        assert!(rows >= 1 && cols >= 1, "mesh dimensions must be positive");
        Topology {
            kind: TopologyKind::Mesh2D,
            nodes: rows * cols,
            dim_a: rows,
            dim_b: cols,
            segments: 0,
            slaves_per_segment: 0,
        }
    }

    /// A binary hypercube of dimension `d` (so `2^d` nodes). `d <= 20`.
    pub fn hypercube(d: usize) -> Topology {
        assert!(d <= 20, "hypercube dimension unreasonably large");
        Topology {
            kind: TopologyKind::Hypercube,
            nodes: 1 << d,
            dim_a: d,
            dim_b: 0,
            segments: 0,
            slaves_per_segment: 0,
        }
    }

    /// A complete binary tree of `n` nodes rooted at node 0.
    pub fn tree(n: usize) -> Topology {
        assert!(n >= 1, "tree needs at least one node");
        Topology {
            kind: TopologyKind::Tree,
            nodes: n,
            dim_a: 0,
            dim_b: 0,
            segments: 0,
            slaves_per_segment: 0,
        }
    }

    /// A clique of `n` nodes.
    pub fn fully_connected(n: usize) -> Topology {
        assert!(n >= 1, "clique needs at least one node");
        Topology {
            kind: TopologyKind::FullyConnected,
            nodes: n,
            dim_a: 0,
            dim_b: 0,
            segments: 0,
            slaves_per_segment: 0,
        }
    }

    /// The paper's cluster fabric: a grid head node (id 0), `segments`
    /// segment masters (ids `1..=segments`), and `slaves` slave nodes per
    /// segment attached to their master.
    ///
    /// With `segments = 4, slaves = 16` this is the UHD cluster: 4 segments,
    /// "each having sixteen slave nodes and a master node", joined by "a
    /// master server node" (§II).
    pub fn segmented_cluster(segments: usize, slaves: usize) -> Topology {
        assert!(
            segments >= 1 && slaves >= 1,
            "cluster needs segments and slaves"
        );
        Topology {
            kind: TopologyKind::SegmentedCluster,
            nodes: 1 + segments * (1 + slaves),
            dim_a: 0,
            dim_b: 0,
            segments,
            slaves_per_segment: slaves,
        }
    }

    /// The shape tag.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// True for the degenerate zero-node topology (never constructible via
    /// the public constructors, but required by convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Grid rows / hypercube dimension, when meaningful.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.dim_a, self.dim_b)
    }

    /// For a segmented cluster: the id of segment `s`'s master node.
    pub(crate) fn segment_master(&self, s: usize) -> Option<NodeId> {
        if self.kind == TopologyKind::SegmentedCluster && s < self.segments {
            Some(1 + s * (1 + self.slaves_per_segment))
        } else {
            None
        }
    }

    /// For a segmented cluster: the id of slave `i` of segment `s`.
    pub fn segment_slave(&self, s: usize, i: usize) -> Option<NodeId> {
        if self.kind == TopologyKind::SegmentedCluster
            && s < self.segments
            && i < self.slaves_per_segment
        {
            Some(1 + s * (1 + self.slaves_per_segment) + 1 + i)
        } else {
            None
        }
    }

    /// For a segmented cluster: which segment a node belongs to (`None` for
    /// the grid head node 0 or out-of-range ids).
    pub fn segment_of(&self, node: NodeId) -> Option<usize> {
        if self.kind != TopologyKind::SegmentedCluster || node == 0 || node >= self.nodes {
            return None;
        }
        Some((node - 1) / (1 + self.slaves_per_segment))
    }

    /// The neighbour set of `node`. Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        assert!(
            node < self.nodes,
            "node {node} out of range ({} nodes)",
            self.nodes
        );
        match self.kind {
            TopologyKind::Star => {
                if node == 0 {
                    (1..self.nodes).collect()
                } else {
                    vec![0]
                }
            }
            TopologyKind::Ring => {
                let n = self.nodes;
                let prev = (node + n - 1) % n;
                let next = (node + 1) % n;
                if prev == next {
                    vec![prev]
                } else {
                    vec![prev, next]
                }
            }
            TopologyKind::Mesh2D => self.grid_neighbors(node),
            TopologyKind::Hypercube => (0..self.dim_a).map(|b| node ^ (1 << b)).collect(),
            TopologyKind::Tree => {
                let mut v = Vec::new();
                if node > 0 {
                    v.push((node - 1) / 2);
                }
                let l = 2 * node + 1;
                let r = 2 * node + 2;
                if l < self.nodes {
                    v.push(l);
                }
                if r < self.nodes {
                    v.push(r);
                }
                v
            }
            TopologyKind::FullyConnected => (0..self.nodes).filter(|&m| m != node).collect(),
            TopologyKind::SegmentedCluster => self.cluster_neighbors(node),
        }
    }

    fn grid_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let (rows, cols) = (self.dim_a, self.dim_b);
        let (r, c) = (node / cols, node % cols);
        let mut v = Vec::with_capacity(4);
        // Up, left, right, down: ascending node order.
        if r > 0 {
            v.push((r - 1) * cols + c);
        }
        if c > 0 {
            v.push(r * cols + (c - 1));
        }
        if c + 1 < cols {
            v.push(r * cols + (c + 1));
        }
        if r + 1 < rows {
            v.push((r + 1) * cols + c);
        }
        v
    }

    fn cluster_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let span = 1 + self.slaves_per_segment;
        if node == 0 {
            // Grid head node: connected to every segment master.
            (0..self.segments).map(|s| 1 + s * span).collect()
        } else {
            let seg = (node - 1) / span;
            let master = 1 + seg * span;
            if node == master {
                // Segment master: head node plus its slaves.
                let mut v = vec![0];
                v.extend((0..self.slaves_per_segment).map(|i| master + 1 + i));
                v
            } else {
                // Slave: only its segment master.
                vec![master]
            }
        }
    }

    /// True when `a` and `b` share a direct link.
    pub(crate) fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.neighbors(a).contains(&b)
    }

    /// Network diameter (longest shortest path), computed by BFS from every
    /// node. Intended for tests and reporting, not hot paths.
    pub fn diameter(&self) -> usize {
        (0..self.nodes)
            .map(|s| *self.bfs_distances(s).iter().max().expect("nonempty"))
            .max()
            .unwrap_or(0)
    }

    /// BFS distances from `src` to every node.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_hub_sees_all() {
        let t = Topology::star(5);
        assert_eq!(t.neighbors(0), vec![1, 2, 3, 4]);
        assert_eq!(t.neighbors(3), vec![0]);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn ring_neighbors_wrap() {
        let t = Topology::ring(4);
        assert_eq!(t.neighbors(0), vec![3, 1]);
        assert_eq!(t.neighbors(3), vec![2, 0]);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn two_node_ring_dedups() {
        let t = Topology::ring(2);
        assert_eq!(t.neighbors(0), vec![1]);
    }

    #[test]
    fn mesh_corner_and_center() {
        let t = Topology::mesh2d(3, 3);
        assert_eq!(t.neighbors(0), vec![1, 3]);
        let mut c = t.neighbors(4);
        c.sort_unstable();
        assert_eq!(c, vec![1, 3, 5, 7]);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn hypercube_dim4() {
        let t = Topology::hypercube(4);
        assert_eq!(t.len(), 16);
        assert_eq!(t.neighbors(0), vec![1, 2, 4, 8]);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn tree_parent_child() {
        let t = Topology::tree(7);
        assert_eq!(t.neighbors(0), vec![1, 2]);
        assert_eq!(t.neighbors(1), vec![0, 3, 4]);
        assert_eq!(t.neighbors(6), vec![2]);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn clique_all_pairs_adjacent() {
        let t = Topology::fully_connected(5);
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(t.are_adjacent(a, b), a != b);
            }
        }
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn segmented_cluster_layout_matches_paper() {
        // The UHD cluster: 4 segments x 16 slaves + 4 masters + head = 69.
        let t = Topology::segmented_cluster(4, 16);
        assert_eq!(t.len(), 69);
        assert_eq!(t.segment_master(0), Some(1));
        assert_eq!(t.segment_master(3), Some(52));
        assert_eq!(t.segment_slave(0, 0), Some(2));
        assert_eq!(t.segment_slave(3, 15), Some(68));
        // Head connects to the four masters.
        assert_eq!(t.neighbors(0), vec![1, 18, 35, 52]);
        // A slave connects only to its master.
        assert_eq!(t.neighbors(2), vec![1]);
        // Slave in segment 0 to slave in segment 3: slave->master->head->master->slave.
        assert_eq!(t.bfs_distances(2)[68], 4);
        assert_eq!(t.segment_of(2), Some(0));
        assert_eq!(t.segment_of(68), Some(3));
        assert_eq!(t.segment_of(0), None);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn mesh_1xn_is_a_path() {
        let t = Topology::mesh2d(1, 5);
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(2), vec![1, 3]);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbors_out_of_range_panics() {
        Topology::ring(3).neighbors(3);
    }
}
