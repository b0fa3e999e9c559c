//! # iba-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5), plus the ablations DESIGN.md calls out.
//!
//! | paper artifact | `iba` subcommand | harness entry |
//! |---|---|---|
//! | Figure 3.a–d (latency vs accepted traffic, adaptive fraction sweep) | `fig3` | [`fig3::run`] |
//! | Table 1 (throughput-increase factors) | `table1` | [`table1::run`] |
//! | Table 2 (routing-option distribution) | `table2` | [`table2::run`] |
//! | §5.2.2 claims + design ablations | `ablation` | [`ablation`] |
//! | link-fault recovery sweep (DESIGN.md §8) | `faults` | [`faults::sweep`] |
//! | recovery scaling: full rebuild vs incremental re-sweep (DESIGN.md §13) | `recovery-scaling` | [`campaigns::recovery_campaign`] |
//! | chaos campaign: sampled fault schedules × invariant checks (DESIGN.md §11) | `chaos` | [`campaigns::chaos_campaign`] |
//! | telemetry load sweep (occupancy / stalls vs load, DESIGN.md §9) | `telemetry` | [`telemetry::run_sweep`] |
//! | flight-recorder demo run + dump artifacts (DESIGN.md §10) | `flightrec` | [`flightrec::run_recorded`] |
//! | flight-dump queries: slice / causal chain / stall causes | `trace` | [`tracequery`] |
//! | engine zoo: FA over {up*/down*, OutFlank, full-mesh} escape engines | `engine-zoo` | [`campaigns::zoo_campaign`] |
//! | engine profile per shard count: `RunResult` + `EngineProfile` (DESIGN.md §15) | `metrics` | [`metrics::run`] |
//! | ad-hoc single runs | `explore` | [`harness::run_point`] |
//!
//! `iba help` lists the subcommands and `iba <command> --help` their
//! flags, both rendered from the declarations [`cli::Args::parse`]
//! checks against.
//!
//! Simulations of different topologies and injection rates are
//! independent, so each command shares them over the host's cores
//! through [`iba_core::par_map`] — one parallel level per command,
//! results in item order, so no output depends on the core count; each
//! individual simulation stays single-threaded and deterministic in its
//! seed.
//!
//! The chaos, engine-zoo and recovery-scaling commands additionally run
//! under the crash-safe campaign runner ([`iba_campaign`], DESIGN.md
//! §16): the same pool's workers, per-run panic isolation and timeouts,
//! retry with backoff, an fsync'd journal, and `--resume` for
//! byte-identical recovery of an interrupted sweep. The campaign
//! definitions and their one driver live in [`campaigns`].

#![warn(missing_docs)]

pub mod ablation;
pub mod campaigns;
pub mod chaos;
pub mod cli;
pub mod engine_zoo;
pub mod faults;
pub mod fidelity;
pub mod fig3;
pub mod flightrec;
pub mod harness;
pub mod metrics;
pub mod recovery;
pub mod table1;
pub mod table2;
pub mod telemetry;
pub mod tracequery;

pub use fidelity::Fidelity;
pub use harness::{build_ensemble, run_point, EnsembleMember};
