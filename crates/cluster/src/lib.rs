//! # cluster — the simulated compute cluster
//!
//! A software model of the hardware the paper's portal fronts: four segments
//! of sixteen slave nodes each plus segment masters and a grid head node,
//! with "duo-core and quad-core machines and a GPU machine" (§III.B).
//!
//! The crate provides:
//!
//! * [`spec`] — node/segment/cluster specifications and the UHD default;
//! * [`machine`] — the live cluster: node state, core allocation, utilization;
//! * [`cache`] — a MESI (and write-through, for ablation) cache-coherence
//!   simulator with invalidation/traffic counters (Lab 2's substrate);
//! * [`memory`] — the UMA/NUMA memory-access cost model (Lab 3's substrate);
//! * [`faults`] — failure injection for scheduler robustness tests.
//!
//! ```
//! use cluster::prelude::*;
//!
//! let spec = ClusterSpec::uhd();
//! let mut cluster = Cluster::new(spec);
//! assert_eq!(cluster.network().topology().len(), 69); // 1 head + 4*(1+16)
//! assert!(cluster.total_cores() > 0);
//! let alloc = cluster.allocate_cores(8).unwrap();
//! cluster.release(&alloc);
//! ```

pub mod cache;
pub mod faults;
pub mod machine;
pub mod memory;
pub mod spec;

/// Common re-exports.
pub mod prelude {
    pub use crate::cache::{AccessKind, CacheSystem, CoherenceProtocol, CoherenceStats};
    pub use crate::faults::{FaultEvent, FaultPlan};
    pub use crate::machine::{Allocation, Cluster, ClusterError, NodeHealth, SlaveId};
    pub use crate::memory::{MemoryDomain, MemorySystem};
    pub use crate::spec::{ClusterSpec, NodeClass, NodeSpec, SegmentSpec};
}

pub use prelude::*;
