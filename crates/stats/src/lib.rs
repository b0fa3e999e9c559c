//! # iba-stats
//!
//! Measurement post-processing and report formatting for the iba-far
//! experiments.
//!
//! The paper reports results in two shapes:
//!
//! * **latency vs accepted-traffic curves** (Figure 3) — handled by
//!   [`curve::Curve`], including saturation-throughput extraction;
//! * **min/max/avg factors across a topology ensemble** (Table 1) —
//!   handled by [`agg::MinMaxAvg`].
//!
//! [`report`] renders both as aligned-plain-text/markdown tables and CSV,
//! which is what the experiments print.
//!
//! [`hist::LogHistogram`] is the one histogram: a mergeable log-linear
//! (HDR-style) latency histogram with bounded relative quantile error,
//! backing the p50/p90/p99/p999 fields of the simulator's `RunResult`.

#![warn(missing_docs)]

pub mod agg;
pub mod curve;
pub mod hist;
pub mod report;

pub use agg::{MinMaxAvg, Timeseries, Welford};
pub use curve::{Curve, CurvePoint};
pub use hist::LogHistogram;
pub use report::{csv_table, markdown_table, timeseries_table};
