//! # iba-engine
//!
//! A small, deterministic discrete-event simulation kernel.
//!
//! The paper evaluates its mechanism with a register-transfer-level
//! simulator; this crate is the substrate of our reimplementation:
//!
//! * [`queue::EventQueue`] — a time-ordered event queue (a binary heap,
//!   with per-class FIFO lanes in front of it for keyed schedules and a
//!   tournament tree over the lanes' fronts) with strict FIFO
//!   tie-breaking, so two runs with the same seed replay the exact same
//!   event order;
//! * [`calendar::CalendarQueue`] — R. Brown's O(1) calendar queue with
//!   the same interface and tie-breaking, property-tested equivalent and
//!   benchmarked against the heap;
//! * [`des::DesQueue`] — the run-time selectable front door over the two
//!   queues; `iba-sim` drives whichever backend
//!   `SimConfig::queue_backend` names, with bit-identical results;
//! * [`rng::StreamRng`] — seeded random-number streams with cheap,
//!   collision-resistant substream derivation, so each host/component can
//!   own an independent deterministic stream;
//! * [`rng`] also carries the handful of distributions the workloads need
//!   (exponential inter-arrival times for Poisson-like injection) and the
//!   generator itself — xoshiro256++, no external crate;
//! * [`shard`] and [`barrier`] — the substrate of the sharded
//!   conservative engine: canonical event-ordering keys,
//!   lookahead-window arithmetic, and a reusable spin barrier for the
//!   per-window worker synchronization.
//!
//! The kernel is intentionally *not* generic over an "agent" framework:
//! the network model in `iba-sim` pops events and dispatches on its own
//! enum, which keeps the hot loop monomorphic and allocation-free.

#![warn(missing_docs)]

pub mod barrier;
pub mod calendar;
pub mod des;
pub mod queue;
pub mod rng;
pub mod shard;

pub use barrier::SpinBarrier;
pub use des::{DesQueue, QueueBackend};
pub use rng::StreamRng;
pub use shard::{conservative_window, event_key};
