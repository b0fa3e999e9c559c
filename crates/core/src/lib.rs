//! # iba-core
//!
//! Core vocabulary types shared by every crate of the `iba-far` workspace,
//! the reproduction of *"Supporting Fully Adaptive Routing in InfiniBand
//! Networks"* (Martínez, Flich, Robles, López, Duato — IPPS 2003).
//!
//! The crate is deliberately dependency-light: it defines
//!
//! * identifiers for switches, hosts and ports ([`ids`]),
//! * IBA local identifiers and the LMC virtual-addressing scheme that the
//!   paper's mechanism is built on ([`lid`]),
//! * packets and their routing mode ([`packet`]),
//! * the 64-byte credit units of IBA's per-VL flow control ([`credits`]),
//! * virtual lanes and service levels ([`vl`]),
//! * simulated time in nanoseconds ([`time`]),
//! * a fixed-capacity inline vector for allocation-free hot paths
//!   ([`inline_vec`]),
//! * a minimal JSON document model, writer and parser for experiment
//!   artifacts, telemetry samples and flight-recorder dumps ([`json`]),
//! * the structured flight-recorder event vocabulary shared by the
//!   simulator and the offline `iba trace` tooling ([`events`]),
//! * the physical-layer constants of the paper's evaluation section
//!   ([`phys`]),
//! * the one worker pool the sweeps and the routing builds share
//!   ([`par`]),
//! * shared error types ([`error`]).
//!
//! Everything is plain data with value semantics; the behavioural models
//! live in `iba-topology`, `iba-routing` and `iba-sim`.

#![warn(missing_docs)]

pub mod credits;
pub mod error;
pub mod events;
pub mod ids;
pub mod inline_vec;
pub mod json;
pub mod lid;
pub mod packet;
pub mod par;
pub mod phys;
pub mod time;
pub mod vl;

pub use credits::Credits;
pub use error::IbaError;
pub use events::{
    DropCause, FlightEvent, OptionOutcome, OptionOutcomes, OptionVerdict, StallClass, StampedEvent,
    FLIGHT_SCHEMA_VERSION,
};
pub use ids::{HostId, NodeRef, PortIndex, SwitchId};
pub use inline_vec::{InlineVec, MAX_PORTS};
pub use json::Json;
pub use lid::{Lid, LidMap, Lmc};
pub use packet::{Packet, PacketId, RoutingMode};
pub use par::{par_chunks_mut, par_map};
pub use phys::PhysParams;
pub use time::SimTime;
pub use vl::{ServiceLevel, VirtualLane};
