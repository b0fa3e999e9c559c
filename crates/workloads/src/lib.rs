//! # iba-workloads
//!
//! Synthetic traffic for the iba-far simulator.
//!
//! The paper's evaluation (§5.1) drives the network with three
//! destination distributions — uniform, bit-reversal and hot-spot (5, 10
//! or 20 % of traffic to one randomly chosen host) — at 32-byte and
//! 256-byte packet sizes, while sweeping the fraction of packets marked
//! *adaptive* from 0 % to 100 % (§5.2.1).
//!
//! * [`patterns`] — destination distributions (the paper's three plus
//!   transpose, complement and random-permutation extras used by tests
//!   and ablations);
//! * [`injection`] — open-loop injection processes (Poisson or periodic)
//!   parameterized by a byte rate, plus the per-packet adaptive marking;
//! * [`script`] — explicit trace-driven injection, for replaying
//!   application communication patterns;
//! * [`faults`] — timed link-down/link-up schedules for fault-injection
//!   and recovery experiments.

#![warn(missing_docs)]

pub mod faults;
pub mod injection;
pub mod patterns;
pub mod script;

pub use faults::{FaultEvent, FaultKind, FaultSchedule};
pub use injection::{HostGenerator, InjectionProcess, WorkloadSpec};
pub use patterns::TrafficPattern;
pub use script::{PathSet, ScriptedPacket, TrafficScript};
