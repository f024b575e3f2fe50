//! Routing: computing the hop path a message takes through a topology.
//!
//! Structured topologies get closed-form deterministic routes (dimension-
//! ordered for meshes and hypercubes, direction-of-shortest-arc for rings,
//! up-then-down for trees and the segmented cluster); anything else falls
//! back to BFS. All routes are deterministic so message costs are replayable.

use crate::topology::{NodeId, Topology, TopologyKind};
use std::fmt;

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Source or destination id is outside the topology.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the topology.
        nodes: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (topology has {nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Compute the full hop path from `from` to `to`, inclusive of both ends.
///
/// `route(t, a, a)` returns `vec![a]` (zero hops). The number of *hops* is
/// `path.len() - 1`.
pub fn route(topo: &Topology, from: NodeId, to: NodeId) -> Result<Vec<NodeId>, RouteError> {
    let n = topo.len();
    for node in [from, to] {
        if node >= n {
            return Err(RouteError::NodeOutOfRange { node, nodes: n });
        }
    }
    if from == to {
        return Ok(vec![from]);
    }
    let path = match topo.kind() {
        TopologyKind::Star => route_star(from, to),
        TopologyKind::Ring => route_ring(n, from, to),
        TopologyKind::Mesh2D => route_mesh(topo, from, to),
        TopologyKind::Hypercube => route_hypercube(from, to),
        TopologyKind::Tree => route_tree(n, from, to),
        TopologyKind::FullyConnected => vec![from, to],
        TopologyKind::SegmentedCluster => route_cluster(topo, from, to),
    };
    debug_assert!(
        validate_path(topo, &path),
        "generated route is not a valid walk"
    );
    Ok(path)
}

fn route_star(from: NodeId, to: NodeId) -> Vec<NodeId> {
    if from == 0 || to == 0 {
        vec![from, to]
    } else {
        vec![from, 0, to]
    }
}

fn route_ring(n: usize, from: NodeId, to: NodeId) -> Vec<NodeId> {
    // Walk around the shorter arc; break distance ties clockwise (ascending).
    let cw = (to + n - from) % n;
    let ccw = (from + n - to) % n;
    let mut path = vec![from];
    let mut cur = from;
    if cw <= ccw {
        while cur != to {
            cur = (cur + 1) % n;
            path.push(cur);
        }
    } else {
        while cur != to {
            cur = (cur + n - 1) % n;
            path.push(cur);
        }
    }
    path
}

/// Dimension-ordered (X-then-Y) routing for meshes.
fn route_mesh(topo: &Topology, from: NodeId, to: NodeId) -> Vec<NodeId> {
    let (_, cols) = topo.dims();
    let (mut r, mut c) = (from / cols, from % cols);
    let (tr, tc) = (to / cols, to % cols);
    let mut path = vec![from];
    let step_toward = |cur: usize, target: usize| if target > cur { cur + 1 } else { cur - 1 };
    while c != tc {
        c = step_toward(c, tc);
        path.push(r * cols + c);
    }
    while r != tr {
        r = step_toward(r, tr);
        path.push(r * cols + c);
    }
    path
}

/// E-cube routing: correct differing address bits from least significant up.
fn route_hypercube(from: NodeId, to: NodeId) -> Vec<NodeId> {
    let mut path = vec![from];
    let mut cur = from;
    let mut diff = from ^ to;
    while diff != 0 {
        let bit = diff.trailing_zeros();
        cur ^= 1 << bit;
        diff &= diff - 1;
        path.push(cur);
    }
    path
}

/// Tree routing: climb both endpoints to their common ancestor.
fn route_tree(_n: usize, from: NodeId, to: NodeId) -> Vec<NodeId> {
    let ancestors = |mut x: NodeId| -> Vec<NodeId> {
        let mut v = vec![x];
        while x > 0 {
            x = (x - 1) / 2;
            v.push(x);
        }
        v
    };
    let ua = ancestors(from);
    let ub = ancestors(to);
    // Find lowest common ancestor: first element of ua present in ub.
    let lca = *ua
        .iter()
        .find(|a| ub.contains(a))
        .expect("root is a common ancestor of every pair");
    let mut path: Vec<NodeId> = ua.iter().copied().take_while(|&x| x != lca).collect();
    path.push(lca);
    let down: Vec<NodeId> = ub.iter().copied().take_while(|&x| x != lca).collect();
    path.extend(down.into_iter().rev());
    path
}

/// Cluster routing: slave -> its master -> head -> target master -> slave,
/// shortcutting when endpoints share a segment or are infrastructure nodes.
fn route_cluster(topo: &Topology, from: NodeId, to: NodeId) -> Vec<NodeId> {
    let master_of = |node: NodeId| -> Option<NodeId> {
        topo.segment_of(node)
            .map(|s| topo.segment_master(s).expect("segment exists"))
    };
    let mut path = vec![from];
    let mut cur = from;
    // Ascend: slave to master (unless already infra or the target).
    if let Some(m) = master_of(cur) {
        if cur != m && to != cur {
            if to == m {
                path.push(m);
                return path;
            }
            path.push(m);
            cur = m;
        }
    }
    let from_seg = topo.segment_of(from);
    let to_seg = topo.segment_of(to);
    if cur != 0 && (to_seg != from_seg || to == 0) {
        // Cross-segment (or to the head): go through the head node.
        path.push(0);
        cur = 0;
    }
    if to == cur {
        return path;
    }
    if let Some(tm) = master_of(to) {
        if cur != tm {
            path.push(tm);
        }
        if to != tm {
            path.push(to);
        }
    } else {
        // Target is the head node, already handled above.
        debug_assert_eq!(to, 0);
    }
    path
}

/// Check every consecutive pair in `path` is an actual link and the walk has
/// no immediate repeats.
pub fn validate_path(topo: &Topology, path: &[NodeId]) -> bool {
    if path.is_empty() {
        return false;
    }
    path.iter().all(|&n| n < topo.len()) && path.windows(2).all(|w| topo.are_adjacent(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_shortest(topo: &Topology, from: NodeId, to: NodeId) {
        let p = route(topo, from, to).unwrap();
        assert!(validate_path(topo, &p), "invalid walk {p:?}");
        let d = topo.bfs_distances(from)[to];
        assert_eq!(p.len() - 1, d, "route {p:?} not shortest (bfs={d})");
    }

    #[test]
    fn self_route_is_single_node() {
        let t = Topology::ring(5);
        assert_eq!(route(&t, 2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn out_of_range_rejected() {
        let t = Topology::ring(3);
        assert!(matches!(
            route(&t, 0, 9),
            Err(RouteError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn ring_takes_short_arc() {
        let t = Topology::ring(8);
        assert_eq!(route(&t, 0, 2).unwrap(), vec![0, 1, 2]);
        assert_eq!(route(&t, 0, 6).unwrap(), vec![0, 7, 6]);
        for a in 0..8 {
            for b in 0..8 {
                assert_shortest(&t, a, b);
            }
        }
    }

    #[test]
    fn mesh_routes_x_then_y() {
        let t = Topology::mesh2d(4, 4);
        let p = route(&t, 0, 15).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3, 7, 11, 15]);
        for a in 0..16 {
            for b in 0..16 {
                assert_shortest(&t, a, b);
            }
        }
    }

    #[test]
    fn hypercube_ecube_shortest() {
        let t = Topology::hypercube(4);
        let p = route(&t, 0b0000, 0b1011).unwrap();
        assert_eq!(p, vec![0b0000, 0b0001, 0b0011, 0b1011]);
        for a in 0..16 {
            for b in 0..16 {
                assert_shortest(&t, a, b);
            }
        }
    }

    #[test]
    fn tree_routes_via_lca() {
        let t = Topology::tree(15);
        assert_eq!(route(&t, 7, 8).unwrap(), vec![7, 3, 8]);
        assert_eq!(route(&t, 7, 4).unwrap(), vec![7, 3, 1, 4]);
        for a in 0..15 {
            for b in 0..15 {
                assert_shortest(&t, a, b);
            }
        }
    }

    #[test]
    fn star_and_clique_shortest() {
        for t in [Topology::star(6), Topology::fully_connected(6)] {
            for a in 0..6 {
                for b in 0..6 {
                    assert_shortest(&t, a, b);
                }
            }
        }
    }

    #[test]
    fn cluster_routes_match_hierarchy() {
        let t = Topology::segmented_cluster(4, 16);
        // Same-segment slaves meet at their master.
        let s00 = t.segment_slave(0, 0).unwrap();
        let s01 = t.segment_slave(0, 1).unwrap();
        let m0 = t.segment_master(0).unwrap();
        assert_eq!(route(&t, s00, s01).unwrap(), vec![s00, m0, s01]);
        // Cross-segment goes through the head.
        let s30 = t.segment_slave(3, 0).unwrap();
        let m3 = t.segment_master(3).unwrap();
        assert_eq!(route(&t, s00, s30).unwrap(), vec![s00, m0, 0, m3, s30]);
        // Exhaustive shortest-path check.
        for a in 0..t.len() {
            for b in 0..t.len() {
                assert_shortest(&t, a, b);
            }
        }
    }

    #[test]
    fn cluster_head_and_master_endpoints() {
        let t = Topology::segmented_cluster(2, 3);
        let m1 = t.segment_master(1).unwrap();
        let s10 = t.segment_slave(1, 0).unwrap();
        assert_eq!(route(&t, 0, s10).unwrap(), vec![0, m1, s10]);
        assert_eq!(route(&t, s10, 0).unwrap(), vec![s10, m1, 0]);
        assert_eq!(route(&t, m1, s10).unwrap(), vec![m1, s10]);
        assert_eq!(route(&t, s10, m1).unwrap(), vec![s10, m1]);
    }
}
