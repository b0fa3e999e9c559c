//! # iba-topology
//!
//! Subnet topologies for the iba-far reproduction.
//!
//! The paper evaluates on *irregular* networks "randomly generated
//! following some restrictions" (§5.1): every switch has the same number
//! of ports (8 or 10), the same number of end nodes attached (4), and
//! neighboring switches are interconnected by exactly one link. Ten
//! random instances are generated per network size (8/16/32/64 switches)
//! and results are reported as min/max/avg over them.
//!
//! This crate provides:
//!
//! * [`graph::Topology`] — the wired subnet: switches with fixed port
//!   counts, point-to-point links, hosts hanging off switch ports;
//! * [`graph::TopologyBuilder`] — safe incremental construction;
//! * [`irregular`] — the paper's random generator (configuration model
//!   with deterministic edge-swap repair, seeded, always connected);
//! * [`regular`] — reference topologies (ring, 2-D mesh/torus, hypercube,
//!   fully connected) used by tests, examples and ablations;
//! * [`spec`] — [`TopologySpec`], the unified shape
//!   description dispatching to the generators above, plus the
//!   dragonfly generator used by the routing-engine zoo;
//! * [`metrics`] — diameter, average distance, link counts;
//! * [`partition`] — deterministic fabric sharding for the parallel
//!   simulation engine (balanced BFS regions).

#![warn(missing_docs)]

pub mod graph;
pub mod irregular;
pub mod metrics;
pub mod partition;
pub mod regular;
pub mod spec;

pub use graph::{Topology, TopologyBuilder};
pub use irregular::IrregularConfig;
pub use metrics::TopologyMetrics;
pub use partition::Partition;
pub use spec::TopologySpec;
