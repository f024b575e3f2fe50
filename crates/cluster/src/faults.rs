//! Failure injection: scripted node outages for scheduler robustness tests.
//!
//! A [`FaultPlan`] is a deterministic script of health transitions indexed
//! by a logical tick; the scheduler (`sched::Scheduler::with_fault_plan`)
//! applies due transitions as it ticks. Used by `sched` tests and the
//! failure-injection integration tests.

use crate::machine::{NodeHealth, SlaveId};
use rng::SplitMix64;

/// One scripted transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Logical tick at which the transition applies.
    pub at_tick: u64,
    /// Node affected.
    pub node: SlaveId,
    /// New health.
    pub health: NodeHealth,
}

/// A deterministic script of node-health transitions.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add one transition; events may be added in any order.
    pub fn push(&mut self, at_tick: u64, node: SlaveId, health: NodeHealth) -> &mut Self {
        self.events.push(FaultEvent {
            at_tick,
            node,
            health,
        });
        self
    }

    /// A random crash/recover plan: each selected node goes Down at a random
    /// tick in `[0, horizon)` and comes back `outage` ticks later.
    /// Deterministic per seed. The `count` victims are sampled *without*
    /// replacement (partial Fisher-Yates), so a plan for `count` outages
    /// always hits `count` distinct nodes — sampling with replacement could
    /// silently script fewer, weaker failures than requested.
    pub fn random_outages(
        nodes: &[SlaveId],
        count: usize,
        horizon: u64,
        outage: u64,
        seed: u64,
    ) -> FaultPlan {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut plan = FaultPlan::default();
        let mut pool: Vec<SlaveId> = nodes.to_vec();
        for picked in 0..count.min(pool.len()) {
            let swap_with = rng.gen_range(picked..pool.len());
            pool.swap(picked, swap_with);
            let node = pool[picked];
            let down_at = rng.gen_range(0..horizon.max(1));
            plan.push(down_at, node, NodeHealth::Down);
            plan.push(down_at + outage, node, NodeHealth::Up);
        }
        plan
    }

    /// Scripted events, in insertion order (not sorted by tick).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cluster;
    use crate::spec::ClusterSpec;

    #[test]
    fn random_plan_is_deterministic() {
        let c = Cluster::new(ClusterSpec::small(2, 4));
        let ids = c.slave_ids();
        let a = FaultPlan::random_outages(&ids, 3, 100, 10, 42);
        let b = FaultPlan::random_outages(&ids, 3, 100, 10, 42);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 6); // down + up per outage
        let c2 = FaultPlan::random_outages(&ids, 3, 100, 10, 43);
        // Different seed gives a (very likely) different script; compare via
        // the events' ticks.
        let ticks = |p: &FaultPlan| p.events.iter().map(|e| e.at_tick).collect::<Vec<_>>();
        assert_eq!(ticks(&a), ticks(&b));
        assert_ne!(ticks(&a), ticks(&c2));
    }

    #[test]
    fn random_plan_hits_distinct_nodes() {
        let c = Cluster::new(ClusterSpec::small(2, 4));
        let ids = c.slave_ids();
        for seed in 0..32 {
            let p = FaultPlan::random_outages(&ids, 5, 100, 10, seed);
            let mut downed: Vec<SlaveId> = p
                .events()
                .iter()
                .filter(|e| e.health == NodeHealth::Down)
                .map(|e| e.node)
                .collect();
            downed.sort();
            downed.dedup();
            assert_eq!(downed.len(), 5, "seed {seed} reused a node");
        }
        // Asking for more outages than nodes exist clamps to the node count.
        let p = FaultPlan::random_outages(&ids, 100, 100, 10, 7);
        assert_eq!(p.len(), ids.len() * 2);
    }
}
