//! Telemetry load sweep: where packets wait, as a function of load.
//!
//! Runs the 8-switch paper topology (by default) across an offered-load
//! grid spanning the Figure-3 saturation point with the simulator's
//! telemetry probes armed, and reports per point:
//!
//! * the adaptive- and escape-region occupancy timeseries (summed over
//!   every switch and VL),
//! * the telemetry report (per-switch stall counters, forwarding
//!   counters, arbitration-wait histograms),
//! * the ordinary [`RunResult`].
//!
//! The headline observable is the paper's §4.4 story made visible:
//! below saturation the escape regions stay almost empty (minimal
//! adaptive options absorb the load), past saturation the adaptive
//! shares exhaust, credit stalls mount, and occupancy spills into the
//! escape regions.

use iba_campaign::par_map;
use iba_core::{IbaError, Json, SimTime};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RunResult, SimConfig, TelemetryOpts, TelemetryReport};
use iba_stats::Timeseries;
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// One instrumented simulation point of the sweep.
#[derive(Debug, Clone)]
pub struct TelemetryPoint {
    /// Offered load, bytes/ns/switch.
    pub offered: f64,
    /// The ordinary end-of-run result.
    pub result: RunResult,
    /// The flushed telemetry report.
    pub report: TelemetryReport,
    /// Fabric-total adaptive-region occupancy (credits) over time.
    pub(crate) adaptive_occupancy: Timeseries,
    /// Fabric-total escape-region occupancy (credits) over time.
    pub escape_occupancy: Timeseries,
}

/// Sweep `offered_grid` (bytes/ns/switch) over one paper-style topology
/// with telemetry armed at `sample_every_ns` cadence. Points run in
/// parallel; each is deterministic in `seed`.
pub fn run_sweep(
    size: usize,
    seed: u64,
    offered_grid: &[f64],
    sample_every_ns: u64,
) -> Result<Vec<TelemetryPoint>, IbaError> {
    let topo = IrregularConfig::paper(size, seed).generate()?;
    let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
    let hosts_per_switch = topo.num_hosts() as f64 / topo.num_switches() as f64;
    par_map(offered_grid, |&offered| {
        let spec = WorkloadSpec::uniform32(offered / hosts_per_switch);
        let cfg = SimConfig {
            warmup: SimTime::from_us(10),
            measure_window: SimTime::from_us(60),
            ..SimConfig::paper(seed)
        };
        let mut net = Network::builder(&topo, &routing)
            .workload(spec)
            .config(cfg)
            .telemetry(TelemetryOpts::every_ns(sample_every_ns))
            .build()?;
        let result = net.run();
        let mem = net
            .telemetry_sink()
            .expect("the builder armed telemetry and run() merged it");
        let mut adaptive = Timeseries::new();
        let mut escape = Timeseries::new();
        for s in mem.samples() {
            adaptive.push(s.at.as_ns(), s.total_adaptive() as f64);
            escape.push(s.at.as_ns(), s.total_escape() as f64);
        }
        Ok(TelemetryPoint {
            offered,
            result,
            report: mem.report().clone(),
            adaptive_occupancy: adaptive,
            escape_occupancy: escape,
        })
    })
    .into_iter()
    .collect()
}

fn series_json(ts: &Timeseries) -> Json {
    Json::arr(
        ts.points()
            .iter()
            .map(|&(t, v)| Json::arr([Json::from(t), Json::from(v)])),
    )
}

/// Render the sweep as the `results/telemetry.json` document (via
/// [`iba_core::Json`]). Layout documented in EXPERIMENTS.md.
pub fn to_json(size: usize, seed: u64, sample_every_ns: u64, points: &[TelemetryPoint]) -> String {
    Json::obj([
        ("experiment", Json::from("telemetry")),
        ("switches", Json::from(size)),
        ("seed", Json::from(seed)),
        ("sample_every_ns", Json::from(sample_every_ns)),
        (
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("offered_bytes_per_ns_per_switch", Json::from(p.offered)),
                    (
                        "mean_escape_occupancy",
                        Json::from(p.escape_occupancy.mean().unwrap_or(0.0)),
                    ),
                    (
                        "peak_escape_occupancy",
                        Json::from(p.escape_occupancy.max().unwrap_or(0.0)),
                    ),
                    (
                        "mean_adaptive_occupancy",
                        Json::from(p.adaptive_occupancy.mean().unwrap_or(0.0)),
                    ),
                    ("result", p.result.to_json()),
                    ("report", p.report.to_json()),
                    ("adaptive_occupancy", series_json(&p.adaptive_occupancy)),
                    ("escape_occupancy", series_json(&p.escape_occupancy)),
                ])
            })),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_occupancy_spikes_past_saturation() {
        // Figure 3 puts the 8-switch saturation near 0.3–0.5
        // bytes/ns/switch; bracket it from well below to well above.
        let points = run_sweep(8, 42, &[0.05, 0.8], 1_000).unwrap();
        let low = &points[0];
        let high = &points[1];
        let lo_esc = low.escape_occupancy.mean().unwrap();
        let hi_esc = high.escape_occupancy.mean().unwrap();
        assert!(
            hi_esc > 4.0 * lo_esc.max(0.5),
            "escape occupancy should spike past saturation: {lo_esc} -> {hi_esc}"
        );
        // Credit stalls mount past saturation too.
        use iba_sim::StallCause;
        let hi_stalls = high.report.total_stalls(StallCause::NoAdaptiveCredit);
        let lo_stalls = low.report.total_stalls(StallCause::NoAdaptiveCredit);
        assert!(
            hi_stalls > lo_stalls,
            "stalls should mount: {lo_stalls} -> {hi_stalls}"
        );
    }

    #[test]
    fn stall_tallies_count_causes_not_wake_ups() {
        // The committed `results/telemetry.json` grid up to saturation.
        // A parked head is tallied when something its last look read
        // has changed and it is refused again; tallied at every pass of
        // its switch these read 30 042 and 23 847 at 0.5. What the
        // verdicts are read off did not move: forwards, latency, waits.
        use iba_sim::StallCause::{DeadPort, NoAdaptiveCredit, NoEscapeCredit};
        let points = run_sweep(8, 42, &[0.05, 0.2, 0.5], 1_000).unwrap();
        let row = |p: &TelemetryPoint| {
            (
                [NoAdaptiveCredit, NoEscapeCredit, DeadPort].map(|c| p.report.total_stalls(c)),
                p.result.avg_latency_ns.round() as u64,
                p.report.arb_wait_quantile(0.99),
            )
        };
        assert_eq!(row(&points[0]), ([0, 0, 0], 700, Some(124)));
        assert_eq!(row(&points[1]), ([0, 0, 0], 758, Some(255)));
        assert_eq!(row(&points[2]), ([8_943, 4_114, 0], 4_014, Some(8_191)));
        for p in &points {
            let forwards = (p.result.adaptive_forwards, p.result.escape_forwards);
            assert_eq!(p.report.total_forwards(), forwards);
        }
    }

    #[test]
    fn json_layout_is_wellformed_enough() {
        let points = run_sweep(8, 7, &[0.05], 2_000).unwrap();
        let j = to_json(8, 7, 2_000, &points);
        assert!(j.contains("\"experiment\": \"telemetry\""));
        assert!(j.contains("\"escape_occupancy\""));
        assert!(j.contains("\"schema_version\""));
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
