//! One run of one workload: the set-up phase, the timed repetitions with
//! tracing off, then the traced pass, and with `--trace 1` the probes.

use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{max, median, min, timed};
use crate::trace::{self, span};
use crate::workloads::{Checks, Work, Workload};
use crate::{alloc, host, probes};
use iba_campaign::digest_hex;
use iba_core::Json;
use std::path::PathBuf;
use std::time::Instant;

pub struct Opts {
    pub seed: u64,
    /// How long the timed repetitions go on.
    pub seconds: f64,
    /// Report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Small fabrics and one repetition, for `cargo test`.
    pub smoke: bool,
    /// Where journals, documents, traces and reports go.
    pub scratch: PathBuf,
}

/// Fewest timed repetitions of a run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A traced run needs the untraced time only to state the tracing
/// overhead, so it stops after this many repetitions.
const TRACED_RUN_REPS: usize = 3;

pub struct Report {
    pub checks: Checks,
    /// The metrics `--trace` selected, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.checks.failed == 0)),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                    )
                })),
            ),
        ])
        .to_string_compact()
    }
}

/// Pair every name of `table` with its measured value, in table order.
fn in_table_order(
    table: &[MetricDef],
    values: &[(String, f64)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if let Some((stray, _)) = values.iter().find(|(n, _)| !table.iter().any(|m| m.0 == n)) {
        return Err(format!("metric {stray:?} is not in the table of names"));
    }
    table
        .iter()
        .map(|&(name, unit, _)| {
            let (_, v) = values
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("metric {name:?} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name:?} is {v}"));
            }
            Ok((name, *v, unit))
        })
        .collect()
}

pub fn run<W: Workload>(w: &W, opts: &Opts) -> Result<Report, String> {
    let mut checks = Checks::default();

    // Set-up phase: the first call is the cold one.
    let setup_reps = if opts.smoke { 2 } else { W::SETUP_REPS };
    let mut setup_times = Vec::with_capacity(setup_reps);
    let mut setup = None;
    for _ in 0..setup_reps {
        let (s, made) = timed(|| w.setup());
        setup_times.push(s);
        setup = Some(made?);
    }
    let setup = setup.expect("at least one set-up");

    // Timed repetitions, recorder and allocation counting off.
    let (min_reps, max_reps) = match (opts.smoke, opts.trace) {
        (true, _) => (1, 1),
        (false, true) => (MIN_REPS, TRACED_RUN_REPS),
        (false, false) => (MIN_REPS, usize::MAX),
    };
    let cpu_before = host::cpu_seconds();
    let phase = Instant::now();
    let mut rep_times = Vec::new();
    let mut reference: Option<(u64, W::Output)> = None;
    while rep_times.len() < min_reps
        || (rep_times.len() < max_reps && phase.elapsed().as_secs_f64() < opts.seconds)
    {
        let (s, out) = timed(|| w.body(&setup));
        let out = out?;
        rep_times.push(s);
        w.check(&setup, &out, &mut checks);
        let digest = w.digest(&out);
        if let Some((first, _)) = &reference {
            checks.check(digest == *first, || {
                format!(
                    "{}: repetition {} gave digest {}, the first {}",
                    W::NAME,
                    rep_times.len(),
                    digest_hex(digest),
                    digest_hex(*first)
                )
            });
        }
        reference = Some((digest, out));
    }
    let cpu_per_rep = (host::cpu_seconds() - cpu_before) / rep_times.len() as f64;
    let (digest, reference) = reference.expect("at least one repetition");
    let wall_s = min(&rep_times);

    // Traced pass: one more set-up and body under the span recorder.
    alloc::start();
    trace::start();
    let traced = span("driver.traced_pass", || -> Result<(f64, Work), String> {
        span("driver.setup", || w.setup())?;
        let (s, work) = timed(|| {
            span("driver.body", || {
                w.traced_pass(&setup, &reference, &mut checks)
            })
        });
        Ok((s, work?))
    });
    let spans = trace::stop();
    let heap = alloc::stop();
    let (traced_s, work) = traced?;
    checks.check(work.units > 0, || {
        format!("{}: no work was counted", W::NAME)
    });
    w.cross_check(&setup, &reference, &mut checks)?;

    let peak_rss_mb = host::peak_rss_mb();
    let values: Vec<(String, f64)> = if opts.trace {
        let mut layer = Vec::new();
        let by_layer = trace::self_time_by_layer_ns(&spans);
        for name in PER_LAYER
            .iter()
            .filter_map(|m| m.0.strip_suffix(".self_ms"))
        {
            let ns = by_layer.iter().find(|(l, _)| *l == name).map_or(0, |l| l.1);
            layer.push((format!("{name}.self_ms"), ns as f64 / 1e6));
        }
        let units = work.units.max(1) as f64;
        let mut push = |name: &str, v: f64| layer.push((name.to_string(), v));
        push("trace.spans", spans.len() as f64);
        push("trace.overhead_share", traced_s / wall_s - 1.0);
        push("work.units", work.units as f64);
        push("sim.events", work.events as f64);
        push("sim.events_per_hop", work.events as f64 / units);
        push("proc.allocs_per_unit", heap.allocs as f64 / units);
        push(
            "proc.peak_heap_mb",
            heap.peak_bytes as f64 / (1 << 20) as f64,
        );
        // What only one workload's traced pass can give reads 0 elsewhere.
        for name in [
            "experiments.sweep_self_s",
            "experiments.points",
            "campaign.worker_busy_share",
            "campaign.cache_hit_share",
        ] {
            let given = work.layer.iter().find(|(n, _)| *n == name);
            push(name, given.map_or(0.0, |l| l.1));
        }
        push("proc.cpu_s", cpu_per_rep);
        push("proc.reps", rep_times.len() as f64);
        push("proc.wall_min_s", wall_s);
        push("proc.wall_med_s", median(&rep_times));
        push("proc.wall_max_s", max(&rep_times));
        push("proc.setup_cold_s", setup_times[0]);
        push("proc.setup_med_s", median(&setup_times));
        layer.extend(probes::run(
            opts.seed,
            &probes::Sizes::new(opts.smoke),
            &opts.scratch,
        )?);
        layer
    } else {
        vec![
            ("wall_s".to_string(), wall_s),
            ("setup_s".to_string(), min(&setup_times)),
            ("peak_rss_mb".to_string(), peak_rss_mb),
            ("work_per_s".to_string(), work.units as f64 / wall_s),
        ]
    };
    let table: &[MetricDef] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = in_table_order(table, &values)?;

    let fingerprint = {
        let mut fp = host::fingerprint();
        fp.push("workload", W::NAME)
            .push("seed", opts.seed)
            .push("seconds", opts.seconds)
            .push("setup_reps", setup_reps)
            .push("reps", rep_times.len())
            .push("result_digest", digest_hex(digest));
        fp
    };
    if opts.trace {
        std::fs::create_dir_all(&opts.scratch).map_err(|e| e.to_string())?;
        let path = opts.scratch.join(format!("trace-{}.jsonl", W::NAME));
        trace::write_jsonl(&path, &fingerprint, W::NAME, &spans).map_err(|e| e.to_string())?;
    }
    eprintln!("{}", fingerprint.to_string_compact());
    for (name, value, unit) in &metrics {
        eprintln!("{:<22} {name:<36} {value:>16.6} {unit}", W::NAME);
    }
    eprintln!(
        "{:<22} reps {} wall min {:.6} median {:.6} max {:.6} s; set-ups {} min {:.6} median {:.6} s",
        W::NAME,
        rep_times.len(),
        wall_s,
        median(&rep_times),
        max(&rep_times),
        setup_times.len(),
        min(&setup_times),
        median(&setup_times)
    );
    eprintln!(
        "{:<22} ops {} ops_failed {}",
        W::NAME,
        checks.attempted,
        checks.failed
    );
    for m in &checks.messages {
        eprintln!("{:<22} FAILED: {m}", W::NAME);
    }

    Ok(Report { checks, metrics })
}
