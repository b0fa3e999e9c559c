//! # iba-campaign
//!
//! Crash-safe campaign runner for large parameter sweeps (DESIGN.md
//! §16). A *campaign* is a declarative, ordered set of [`RunSpec`]s —
//! experiment kind plus topology / seed / LMC / load / fault parameters
//! — executed by a supervised multi-worker pool:
//!
//! * every run executes on a sacrificial thread under `catch_unwind`
//!   **panic isolation** and a per-run **wall-clock timeout**;
//! * failed or timed-out runs are retried with bounded exponential
//!   **backoff**; once the attempt budget is exhausted the run is
//!   recorded as **poisoned** (with the panic payload or error message)
//!   instead of aborting the sweep;
//! * progress streams to an append-only **JSONL journal** — one
//!   fsync'd [`RunRecord`] per completed run, carrying an FNV-1a digest
//!   of the result — so no completed work is ever lost;
//! * a **resumed** campaign ([`run_campaign`] with `resume = true`)
//!   replays the journal (tolerating a torn final line from a crash
//!   mid-write), skips completed specs, and produces final output
//!   byte-identical to an uninterrupted campaign because records are
//!   assembled in spec order from deterministic per-run results;
//! * an [`ArtifactCache`] keyed by `(topo_spec, seed, lmc)` shares
//!   expensive topology/routing builds across runs of the same fabric.
//!
//! The runner is generic: an executor closure maps a [`RunSpec`] to a
//! result [`iba_core::Json`] document. The experiment crates own the
//! spec vocabulary; this crate owns supervision and durability.
//!
//! Sweeps too short to journal (the paper sweeps: a hundred-odd points of
//! 5–40 ms each) share the cores through [`par_map`] instead — the same
//! worker count, no sacrificial thread and no fsync per point. The pool
//! lives in `iba_core::par`, below the routing builds that share it, and
//! is re-exported here; the two never stack: inside a campaign run
//! `par_map` runs inline.

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
pub use iba_core::par::{default_workers, par_map};
pub use journal::{replay, Journal, RunRecord, RunStatus};
pub use runner::{run_campaign, CampaignOutcome, Executor, RunnerOpts};
pub use spec::{Campaign, RunSpec};
