//! # iba-campaign
//!
//! Crash-safe campaign runner for large parameter sweeps (DESIGN.md
//! §16). A *campaign* is a declarative, ordered set of [`RunSpec`]s,
//! each with the params its executor reads. [`run_campaign`] shares them
//! out over the workers of [`iba_core::par::par_map_on`] and runs each
//! on an [`iba_core::par::isolated`] thread: a panic or a timeout is
//! retried with bounded backoff, then recorded as **poisoned** instead
//! of aborting the sweep. Every completed run is one fsync'd line of an
//! append-only **JSONL journal** ([`RunRecord`]: params, FNV-1a digest,
//! result), so a **resumed** campaign skips what is done — refusing
//! records run under other params — and, assembling records in spec
//! order, writes output byte-identical to an uninterrupted one. An
//! [`ArtifactCache`] shares topology/routing builds across the runs of
//! one fabric.
//!
//! The experiment crates own the spec vocabulary and the executor
//! closures; this crate owns supervision and durability. Sweeps too
//! short to journal (the paper sweeps: points of 5–40 ms) call
//! [`iba_core::par_map`] directly; inside a campaign run it runs inline.

#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod fsio;
pub mod journal;
pub mod runner;
pub mod spec;

pub use cache::{ArtifactCache, FabricKey};
pub use digest::{digest_hex, fnv1a64};
pub use fsio::write_atomic;
pub use journal::{replay, Journal, RunRecord, RunStatus};
pub use runner::{run_campaign, CampaignOutcome, Executor, RunnerOpts};
pub use spec::{Campaign, RunSpec};
