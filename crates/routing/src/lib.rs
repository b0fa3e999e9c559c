//! # iba-routing
//!
//! Routing for the iba-far reproduction: everything between the topology
//! and the simulator.
//!
//! * [`engine`] — the [`EscapeEngine`] contract every escape layer
//!   implements: deterministic per-destination next hops that certify
//!   acyclic through [`check_escape_routes`]. `FaRouting` and the SM
//!   are generic over it; the simulator holds the non-generic
//!   [`FaTables`] through a [`TableSource`].
//! * [`updown`] — the up\*/down\* routing algorithm \[Schroeder et al.,
//!   Autonet\]: BFS spanning tree, up/down link orientation, and a
//!   destination-based deterministic next-hop function whose paths never
//!   take a forbidden down→up turn. This is both the paper's baseline
//!   (deterministic routing, 0 % adaptive traffic) and the *default*
//!   escape layer of the FA algorithm.
//! * [`outflank`] — dateline-free dimension-order escape for 2-D tori:
//!   deadlock-free without extra virtual channels because the escape
//!   layer never crosses a wrap-around link.
//! * [`fullmesh`] — direct single-hop escape for complete switch
//!   graphs; trivially acyclic, no VCs needed.
//! * [`minimal`] — minimal-path routing options: every output port on a
//!   shortest path to the destination. These are the *adaptive* options
//!   of the FA algorithm.
//! * [`fa`] — the Fully Adaptive routing function of §3: minimal adaptive
//!   options + one up\*/down\* escape option per destination, materialized
//!   into per-switch forwarding tables through the LMC virtual-addressing
//!   scheme.
//! * [`table`] — the paper's core mechanism (§4.1): a *linear* forwarding
//!   table physically organized as an interleaved memory so one access
//!   returns all `2^LMC` routing options of a destination at once, while
//!   the subnet-manager-facing interface stays a plain LID-indexed array.
//! * [`sl2vl`] — the SLtoVL table (§4.4) computing the VL from (input
//!   port, output port, SL).
//! * [`analysis`] — static routing analysis: the routing-option
//!   distribution of Table 2 and path-length statistics.
//! * [`delta`] — the link-failure rebuild entry point the benchmark's
//!   probes import, a shim over [`FaRouting::resweep`], the one
//!   re-sweep.

#![warn(missing_docs)]

pub mod analysis;
mod columns;
pub mod delta;
pub mod engine;
pub mod fa;
pub mod fullmesh;
pub mod minimal;
pub mod outflank;
pub mod sl2vl;
pub mod table;
pub mod updown;

pub use analysis::{check_escape_routes, OptionDistribution, PathLengthStats};
pub use engine::{certify_engine, EscapeEngine};
pub use fa::{FaRouting, FaTables, RouteId, RouteOptions, RoutingConfig, TableSource};
pub use fullmesh::FullMeshRouting;
pub use minimal::MinimalRouting;
pub use outflank::OutflankRouting;
pub use sl2vl::SlToVlTable;
pub use table::{InterleavedForwardingTable, UNPROGRAMMED};
pub use updown::UpDownRouting;
