//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the substrate beneath the simulated cluster: it provides a
//! deterministic discrete-event engine ([`engine::Engine`]), a catalogue of
//! interconnect topologies ([`topology::Topology`]), shortest-path and
//! dimension-ordered routing ([`routing`]), a latency/bandwidth link model
//! ([`link::Link`]), and a message-cost model ([`network::Network`]) used by
//! the cluster model, the MPI kernel and the UMA/NUMA labs.
//!
//! The paper's cluster connects four 16-node segments through segment masters
//! to a grid head node; the message-passing course module additionally covers
//! "topology, latency, and routing" (§III.A). This crate supplies all of
//! those as first-class, benchmarkable objects.
//!
//! ## Determinism
//!
//! All simulated time is integer nanoseconds ([`time::SimTime`]); the event
//! queue breaks ties by insertion sequence, so a simulation run is a pure
//! function of its inputs. Randomized workloads take explicit RNG seeds.
//!
//! ## Example
//!
//! ```
//! use simnet::prelude::*;
//!
//! // A 16-node hypercube with 1µs links and 1 GiB/s bandwidth.
//! let net = Network::new(Topology::hypercube(4), LinkProfile::new(1_000, 1 << 30));
//! let cost = net.message_cost(0, 15, 4096).unwrap();
//! assert!(cost.hops >= 1 && cost.hops <= 4);
//! ```

pub mod engine;
pub mod event;
pub mod link;
pub mod network;
pub mod routing;
pub mod time;
pub mod topology;
pub mod traffic;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::engine::{Engine, EngineError};
    pub use crate::event::{EventId, Scheduled};
    pub use crate::link::{Link, LinkProfile};
    pub use crate::network::{MessageCost, Network, NetworkError};
    pub use crate::routing::{route, RouteError};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{NodeId, Topology, TopologyKind};
    pub use crate::traffic::{Flow, Pattern};
}

pub use prelude::*;
