//! # mpik — a message-passing kernel in the MPI mold
//!
//! Lab 3 uses "Pthread and MPI to simulate and evaluate the access times to
//! local shared memory and the access times to remote memory" (§III.B), and
//! the course's message-passing module covers "topology, latency, and
//! routing" (§III.A). This crate is the MPI substrate: SPMD programs run as
//! real OS threads (one per rank), communicating through typed point-to-
//! point messages and the barrier, broadcast and reduce collectives, while
//! a per-rank *virtual clock* accumulates simulated network costs from a
//! [`simnet::Network`] cost model — so benches measure both real wall time
//! and modeled cluster time.
//!
//! ```
//! use mpik::{World, Reduce};
//! use simnet::{Topology, LinkProfile};
//!
//! let world = World::new(4, Topology::ring(4), LinkProfile::backplane());
//! let sums = world.run(|p| {
//!     let mine = (p.rank() as i64 + 1) * 10;
//!     p.allreduce_i64(mine, Reduce::Sum).unwrap()
//! }).unwrap();
//! assert_eq!(sums, vec![100, 100, 100, 100]);
//! ```

pub mod collectives;
pub mod proc;
pub mod world;

pub use proc::{MpiError, Msg, Proc, Reduce, Tag};
pub use world::{RankStats, World, WorldError};
