//! The four workloads. Each gives a set-up phase, a timed body that uses
//! only the crates' public functions, the checks on the body's output, and
//! a traced pass that counts the work of one body exactly.
//!
//! Why these four, and which layer each stresses, is in `README.md` and in
//! the `why` of `BENCHMARK.json`.

use crate::trace::{self, span};
use iba_campaign::{
    digest_hex, fnv1a64, replay, run_campaign, write_atomic, ArtifactCache, Campaign,
    CampaignOutcome, Executor, FabricKey, RunSpec, RunStatus, RunnerOpts,
};
use iba_core::Json;
use iba_experiments::campaigns::{self, ChaosPlan};
use iba_experiments::chaos::{self, ChaosArtifact};
use iba_experiments::fig3::{self, Fig3Config, Fig3SizeResult};
use iba_experiments::recovery::{self, RecoveryPoint};
use iba_experiments::{build_ensemble, run_point, EnsembleMember, Fidelity};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecoveryPolicy, RunResult, SimConfig};
use iba_sm::{ManagedFabric, Programmer, SubnetManager};
use iba_stats::{Curve, CurvePoint};
use iba_topology::{IrregularConfig, Topology, TopologySpec};
use iba_workloads::WorkloadSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "fig3_quick",
    "fabric256_sharded",
    "sm_recovery",
    "chaos_campaign",
];

/// Checks attempted and failed; the benchmark's operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(what());
        }
    }

    /// Unwrap a library result; an error is a failed check.
    pub fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.messages.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// What one body did, counted exactly in the traced pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Work {
    /// Packet-hops (adaptive plus escape forwards) of every simulation in
    /// one body; on `sm_recovery`, the SMPs sent.
    pub units: u64,
    /// Simulator events of one body (0 where nothing is simulated).
    pub events: u64,
    /// Numbers only this workload's traced pass can give, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

pub trait Workload {
    type Setup;
    type Output;

    const NAME: &'static str;
    /// Repetitions of the set-up phase, fixed so the phase lasts about 2 s
    /// on the reference host.
    const SETUP_REPS: usize;

    fn setup(&self) -> Result<Self::Setup, String>;
    fn body(&self, setup: &Self::Setup) -> Result<Self::Output, String>;
    /// FNV-1a digest of the simulated result, equal across repetitions.
    fn digest(&self, out: &Self::Output) -> u64;
    fn check(&self, setup: &Self::Setup, out: &Self::Output, checks: &mut Checks);
    /// One more body with spans around every call into a crate, counting
    /// the work; `reference` is the output of a timed repetition.
    fn traced_pass(
        &self,
        setup: &Self::Setup,
        reference: &Self::Output,
        checks: &mut Checks,
    ) -> Result<Work, String>;
    /// Checks that need runs of their own, outside every timed interval.
    fn cross_check(&self, _: &Self::Setup, _: &Self::Output, _: &mut Checks) -> Result<(), String> {
        Ok(())
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ------------------------------------------------------------ fig3_quick

pub struct Fig3Quick {
    pub sizes: Vec<usize>,
    pub seed: u64,
}

const FIG3_FRACTIONS: [f64; 2] = [0.0, 1.0];

impl Fig3Quick {
    pub fn new(seed: u64, smoke: bool) -> Fig3Quick {
        Fig3Quick {
            sizes: if smoke { vec![8] } else { vec![8, 16] },
            seed,
        }
    }

    fn config(&self) -> Fig3Config {
        Fig3Config {
            sizes: self.sizes.clone(),
            fractions: FIG3_FRACTIONS.to_vec(),
            fidelity: Fidelity::Quick,
            seed: self.seed,
        }
    }
}

pub struct Fig3Output {
    results: Vec<Fig3SizeResult>,
    rendered: String,
}

impl Workload for Fig3Quick {
    type Setup = Vec<Vec<EnsembleMember>>;
    type Output = Fig3Output;
    const NAME: &'static str = "fig3_quick";
    const SETUP_REPS: usize = 400;

    fn setup(&self) -> Result<Self::Setup, String> {
        self.sizes
            .iter()
            .map(|&size| {
                span("experiments.build_ensemble", || {
                    build_ensemble(
                        IrregularConfig::paper(size, self.seed),
                        Fidelity::Quick.topologies(),
                        RoutingConfig::two_options(),
                    )
                })
                .map_err(err)
            })
            .collect()
    }

    fn body(&self, _: &Self::Setup) -> Result<Fig3Output, String> {
        let results = span("experiments.fig3_run", || fig3::run(&self.config())).map_err(err)?;
        let rendered = span("experiments.render_size", || {
            results.iter().map(fig3::render_size).collect()
        });
        Ok(Fig3Output { results, rendered })
    }

    fn digest(&self, out: &Fig3Output) -> u64 {
        fnv1a64(out.rendered.as_bytes())
    }

    fn check(&self, _: &Self::Setup, out: &Fig3Output, checks: &mut Checks) {
        let points = Fidelity::Quick.curve_grid().len();
        let window_ns = Fidelity::Quick.sim_config(0).measure_window.as_ns() as f64;
        let members = Fidelity::Quick.topologies() as f64;
        checks.check(out.results.len() == self.sizes.len(), || {
            "fig3: a size is missing".into()
        });
        for r in &out.results {
            for (frac, curve) in &r.curves {
                checks.check(curve.len() == points, || {
                    format!("fig3 n{} f{frac}: {} points", r.size, curve.len())
                });
                // Accepted traffic counts the Poisson arrivals of one
                // finite window, so at low load it scatters around the
                // offered mean (five standard deviations of the packet
                // count are allowed), and at mid load the simulator runs
                // a few percent above the nominal rate (seed 5, 8 switches:
                // 0.1799 accepted at 0.1711 offered). Beyond a tenth more,
                // packets were invented.
                checks.check(
                    curve.points().iter().all(|p| {
                        let packets = p.offered * window_ns * members * r.size as f64 / 32.0;
                        p.accepted <= p.offered * (1.1 + 5.0 / packets.sqrt())
                    }),
                    || format!("fig3 n{} f{frac}: accepted exceeds offered", r.size),
                );
            }
            let factor = r.factor_vs_deterministic(1.0);
            checks.check(factor.is_some_and(|f| f >= 1.0), || {
                format!("fig3 n{}: adaptive factor {factor:?} below 1", r.size)
            });
        }
    }

    /// `fig3::run` returns curves only, so the hops are counted by
    /// sweeping the same points through `run_point`, one span each, and
    /// requiring the curves to come out equal.
    fn traced_pass(
        &self,
        ensembles: &Self::Setup,
        reference: &Fig3Output,
        checks: &mut Checks,
    ) -> Result<Work, String> {
        let grid = Fidelity::Quick.curve_grid();
        let mut work = Work::default();
        let mut points = 0u64;
        let mut point_ns = 0u64;
        let sweep_start = std::time::Instant::now();
        let results: Vec<Fig3SizeResult> = span("experiments.fig3_sweep", || {
            self.sizes
                .iter()
                .zip(ensembles)
                .map(|(&size, members)| {
                    let curves = FIG3_FRACTIONS
                        .iter()
                        .map(|&frac| {
                            let spec = WorkloadSpec::uniform32(0.01).with_adaptive_fraction(frac);
                            let cfg =
                                Fidelity::Quick.sim_config(self.seed ^ (frac * 1000.0) as u64);
                            let member_curves = members
                                .iter()
                                .map(|m| {
                                    let per_switch = m.topology.num_hosts() as f64 / size as f64;
                                    grid.iter()
                                        .map(|&offered| {
                                            let t0 = std::time::Instant::now();
                                            let r = span("experiments.run_point", || {
                                                run_point(
                                                    &m.topology,
                                                    &m.routing,
                                                    spec.at_rate(offered / per_switch),
                                                    cfg,
                                                )
                                            })
                                            .map_err(err)?;
                                            point_ns += t0.elapsed().as_nanos() as u64;
                                            points += 1;
                                            work.units += r.adaptive_forwards + r.escape_forwards;
                                            work.events += r.events;
                                            Ok(CurvePoint {
                                                offered,
                                                accepted: r.accepted_bytes_per_ns_per_switch,
                                                avg_latency_ns: r.avg_latency_ns,
                                            })
                                        })
                                        .collect::<Result<Curve, String>>()
                                })
                                .collect::<Result<Vec<Curve>, String>>()?;
                            Ok((frac, average(&member_curves)))
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    Ok(Fig3SizeResult { size, curves })
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let sweep_ns = sweep_start.elapsed().as_nanos() as u64;
        let rendered: String = span("experiments.render_size", || {
            results.iter().map(fig3::render_size).collect()
        });
        checks.check(rendered == reference.rendered, || {
            "fig3: the run_point sweep and fig3::run disagree".into()
        });
        work.layer = vec![
            (
                "experiments.sweep_self_s",
                sweep_ns.saturating_sub(point_ns) as f64 / 1e9,
            ),
            ("experiments.points", points as f64),
        ];
        Ok(work)
    }
}

/// Element-wise mean of an ensemble's curves, as `fig3` averages them:
/// latency over the members where it is finite.
fn average(curves: &[Curve]) -> Curve {
    (0..curves[0].len())
        .map(|i| {
            let pts: Vec<&CurvePoint> = curves.iter().map(|c| &c.points()[i]).collect();
            let finite: Vec<f64> = pts
                .iter()
                .map(|p| p.avg_latency_ns)
                .filter(|l| l.is_finite())
                .collect();
            CurvePoint {
                offered: pts[0].offered,
                accepted: pts.iter().map(|p| p.accepted).sum::<f64>() / pts.len() as f64,
                avg_latency_ns: if finite.is_empty() {
                    f64::NAN
                } else {
                    finite.iter().sum::<f64>() / finite.len() as f64
                },
            }
        })
        .collect()
}

// ----------------------------------------------------- fabric256_sharded

pub struct FabricSharded {
    pub switches: usize,
    pub seed: u64,
}

impl FabricSharded {
    pub fn new(seed: u64, smoke: bool) -> FabricSharded {
        FabricSharded {
            switches: if smoke { 16 } else { 256 },
            seed,
        }
    }

    fn network<'a>(
        &self,
        (topo, routing): &'a (Topology, FaRouting),
        threads: usize,
    ) -> Result<Network<'a>, String> {
        let builder = Network::builder(topo, routing)
            .workload(WorkloadSpec::uniform32(0.01))
            .config(SimConfig::paper(self.seed))
            .shards(2)
            .threads(threads);
        span("sim.network_build", || builder.build()).map_err(err)
    }
}

pub struct FabricOutput {
    result: RunResult,
    rendered: String,
}

impl Workload for FabricSharded {
    type Setup = (Topology, FaRouting);
    type Output = FabricOutput;
    const NAME: &'static str = "fabric256_sharded";
    const SETUP_REPS: usize = 30;

    fn setup(&self) -> Result<Self::Setup, String> {
        let spec = TopologySpec::Irregular {
            switches: self.switches,
            inter_switch_links: 4,
            hosts_per_switch: 4,
        };
        let topo = span("topology.generate", || spec.generate(self.seed)).map_err(err)?;
        let routing = span("routing.fa_build", || {
            FaRouting::build(&topo, RoutingConfig::two_options())
        })
        .map_err(err)?;
        Ok((topo, routing))
    }

    fn body(&self, setup: &Self::Setup) -> Result<FabricOutput, String> {
        let mut net = self.network(setup, 2)?;
        let result = span("sim.run", || net.run());
        let rendered = span("core.json_render", || result.to_json().to_string_pretty());
        Ok(FabricOutput { result, rendered })
    }

    /// The rendered result minus its two wall-clock fields.
    fn digest(&self, out: &FabricOutput) -> u64 {
        let simulated: String = out
            .rendered
            .lines()
            .filter(|l| !l.contains("\"wall_time_s\"") && !l.contains("\"events_per_sec\""))
            .collect();
        fnv1a64(simulated.as_bytes())
    }

    fn check(&self, _: &Self::Setup, out: &FabricOutput, checks: &mut Checks) {
        let r = &out.result;
        checks.check(r.order_violations == 0, || {
            format!("fabric: {} order violations", r.order_violations)
        });
        checks.check(r.duplicate_deliveries == 0, || {
            format!("fabric: {} duplicate deliveries", r.duplicate_deliveries)
        });
        checks.check(r.delivered_ratio >= 0.95, || {
            format!("fabric: delivered ratio {}", r.delivered_ratio)
        });
        let parsed = Json::parse(&out.rendered)
            .ok()
            .and_then(|j| RunResult::from_json(&j));
        checks.check(parsed.as_ref() == Some(r), || {
            "fabric: the rendered result does not parse back to itself".into()
        });
    }

    fn traced_pass(
        &self,
        setup: &Self::Setup,
        reference: &FabricOutput,
        checks: &mut Checks,
    ) -> Result<Work, String> {
        let out = self.body(setup)?;
        checks.check(out.result == reference.result, || {
            "fabric: the traced repetition simulated something else".into()
        });
        let r = &out.result;
        Ok(Work {
            units: r.adaptive_forwards + r.escape_forwards,
            events: r.events,
            layer: Vec::new(),
        })
    }

    /// One worker thread must simulate exactly what two do.
    fn cross_check(
        &self,
        setup: &Self::Setup,
        reference: &FabricOutput,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let one_thread = self.network(setup, 1)?.run();
        checks.check(one_thread == reference.result, || {
            "fabric: threads(1) and threads(2) disagree".into()
        });
        Ok(())
    }
}

// ----------------------------------------------------------- sm_recovery

pub struct SmRecovery {
    pub switches: usize,
    pub seeds: Vec<u64>,
}

impl SmRecovery {
    /// Eight 128-switch fabrics rather than fewer, larger ones: whether a
    /// fabric's re-sweep takes the delta path or falls back to a full
    /// rebuild depends on the seed (about one in three does at this size)
    /// and changes its time and memory by a fifth and more, so a body
    /// needs enough fabrics to hold the same mix for every `--seed`.
    pub fn new(seed: u64, smoke: bool) -> SmRecovery {
        let (switches, fabrics) = if smoke { (16, 2) } else { (128, 8) };
        SmRecovery {
            switches,
            seeds: (seed..seed + fabrics).collect(),
        }
    }
}

/// Simulated cost of one SMP in the recovery-time model.
const PER_SMP_NS: u64 = 1_000;

impl Workload for SmRecovery {
    /// Blocks written by each bring-up (what an operator pays first).
    type Setup = Vec<u64>;
    /// `(full, incremental)` per seed, flattened.
    type Output = Vec<RecoveryPoint>;
    const NAME: &'static str = "sm_recovery";
    const SETUP_REPS: usize = 12;

    fn setup(&self) -> Result<Vec<u64>, String> {
        self.seeds
            .iter()
            .map(|&s| {
                let physical = span("topology.generate", || {
                    IrregularConfig::paper(self.switches, s).generate()
                })
                .map_err(err)?;
                let mut fabric = ManagedFabric::new(&physical, 2).map_err(err)?;
                let up = span("sm.initialize_with", || {
                    SubnetManager::new(RoutingConfig::two_options())
                        .initialize_with(&mut fabric, &mut Programmer::new())
                })
                .map_err(err)?;
                if !up.report.verified {
                    return Err(format!("bring-up of seed {s} did not verify"));
                }
                Ok(up.report.blocks_written)
            })
            .collect()
    }

    fn body(&self, _: &Vec<u64>) -> Result<Vec<RecoveryPoint>, String> {
        let mut points = Vec::new();
        for &s in &self.seeds {
            let (full, inc) = span("experiments.recovery_run_size", || {
                recovery::run_size(self.switches, s, PER_SMP_NS)
            })
            .map_err(err)?;
            points.extend([full, inc]);
        }
        Ok(points)
    }

    fn digest(&self, out: &Vec<RecoveryPoint>) -> u64 {
        let doc = Json::arr(out.iter().map(recovery::point_json));
        fnv1a64(doc.to_string_compact().as_bytes())
    }

    fn check(&self, _: &Vec<u64>, out: &Vec<RecoveryPoint>, checks: &mut Checks) {
        checks.check(out.len() == 2 * self.seeds.len(), || {
            "recovery: a seed is missing".into()
        });
        checks.ok(
            span("experiments.recovery_verify", || recovery::verify(out)),
            "recovery::verify",
        );
        for pair in out.chunks(2) {
            checks.check(pair.iter().all(|p| p.lfts_match), || {
                "recovery: incremental LFTs differ from a full rebuild".into()
            });
            checks.check(pair.iter().all(|p| p.escape_acyclic), || {
                "recovery: an escape layer has a cycle".into()
            });
            checks.check(pair[1].smps < pair[0].smps, || {
                format!(
                    "recovery: incremental {} SMPs, full {}",
                    pair[1].smps, pair[0].smps
                )
            });
        }
    }

    fn traced_pass(
        &self,
        setup: &Vec<u64>,
        reference: &Vec<RecoveryPoint>,
        checks: &mut Checks,
    ) -> Result<Work, String> {
        let out = self.body(setup)?;
        self.check(setup, &out, checks);
        checks.check(self.digest(&out) == self.digest(reference), || {
            "recovery: the traced repetition recovered something else".into()
        });
        Ok(Work {
            units: out.iter().map(|p| p.smps).sum(),
            events: 0,
            layer: Vec::new(),
        })
    }
}

// -------------------------------------------------------- chaos_campaign

pub struct ChaosCampaign {
    plan: ChaosPlan,
    scratch: PathBuf,
}

impl ChaosCampaign {
    pub fn new(seed: u64, smoke: bool, scratch: PathBuf) -> ChaosCampaign {
        ChaosCampaign {
            plan: ChaosPlan {
                sizes: if smoke { vec![8] } else { vec![8, 16] },
                seeds: if smoke { 1 } else { 15 },
                base_seed: seed,
                mixes: chaos::MIXES.iter().map(|m| m.name.to_string()).collect(),
            },
            scratch,
        }
    }

    fn journal(&self) -> PathBuf {
        self.scratch.join("chaos.journal.jsonl")
    }

    fn document(&self) -> PathBuf {
        self.scratch.join("chaos.json")
    }

    /// Run the campaign on two workers into a fresh journal and write the
    /// results document. `executor` is called inside the campaign's span,
    /// so that spans it opens on worker threads can hang under it.
    fn run(
        &self,
        campaign: &Campaign,
        executor: impl FnOnce() -> Executor,
    ) -> Result<CampaignOutcome, String> {
        let journal = self.journal();
        // `run_campaign` refuses a journal that already holds records.
        match std::fs::remove_file(&journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(err(e)),
            _ => {}
        }
        let opts = RunnerOpts {
            workers: 2,
            quiet: true,
            ..RunnerOpts::default()
        };
        let outcome = span("campaign.run_campaign", || {
            run_campaign(campaign, executor(), &journal, &opts, false)
        })?;
        let cells: Vec<Json> = outcome
            .records
            .iter()
            .filter(|r| r.status == RunStatus::Ok)
            .map(|r| r.result.clone())
            .collect();
        let mixes: Vec<&str> = self.plan.mixes.iter().map(String::as_str).collect();
        let doc = span("experiments.chaos_document", || {
            chaos::document_from_cells(
                &self.plan.sizes,
                &mixes,
                self.plan.seeds,
                self.plan.base_seed,
                &cells,
            )
        });
        span("campaign.write_atomic", || {
            write_atomic(self.document(), doc)
        })
        .map_err(err)?;
        Ok(outcome)
    }
}

impl Workload for ChaosCampaign {
    type Setup = Campaign;
    type Output = CampaignOutcome;
    const NAME: &'static str = "chaos_campaign";
    const SETUP_REPS: usize = 4000;

    fn setup(&self) -> Result<Campaign, String> {
        std::fs::create_dir_all(&self.scratch).map_err(err)?;
        let campaign = span("experiments.chaos_campaign", || {
            campaigns::chaos_campaign(&self.plan)
        })?;
        span("campaign.validate", || campaign.validate())?;
        Ok(campaign)
    }

    /// A fresh executor each time, so no repetition finds the fabric
    /// cache of an earlier one warm.
    fn body(&self, campaign: &Campaign) -> Result<CampaignOutcome, String> {
        self.run(campaign, || campaigns::chaos_executor().0)
    }

    fn digest(&self, out: &CampaignOutcome) -> u64 {
        out.digest()
    }

    fn check(&self, campaign: &Campaign, out: &CampaignOutcome, checks: &mut Checks) {
        let cells = campaign.specs.len();
        checks.check(out.records.len() == cells && !out.halted, || {
            format!("chaos: {} of {cells} cells ran", out.records.len())
        });
        checks.check(out.poisoned_ids().is_empty(), || {
            format!("chaos: poisoned cells {:?}", out.poisoned_ids())
        });
        let violations: usize = out
            .records
            .iter()
            .filter_map(|r| r.result.get("violations").and_then(Json::as_arr))
            .map(<[Json]>::len)
            .sum();
        checks.check(violations == 0, || {
            format!("chaos: {violations} invariant violations")
        });
        let replayed = checks.ok(
            span("campaign.replay", || replay(self.journal())),
            "journal replay",
        );
        checks.check(
            replayed.is_some_and(|r| r.records.len() == cells && !r.torn_tail),
            || format!("chaos: the journal does not replay to {cells} records"),
        );
        checks.check(
            std::fs::metadata(self.document()).is_ok_and(|m| m.len() > 0),
            || "chaos: no results document".into(),
        );
    }

    /// The library's executor returns rendered cells without hop counts,
    /// so the traced pass runs the same cells through an executor of the
    /// driver's own that adds a span and a hop count per cell, and
    /// requires the campaign digest to come out equal.
    fn traced_pass(
        &self,
        campaign: &Campaign,
        reference: &CampaignOutcome,
        checks: &mut Checks,
    ) -> Result<Work, String> {
        let cache: Arc<ArtifactCache<ChaosArtifact>> = Arc::new(ArtifactCache::new());
        let hops = Arc::new(AtomicU64::new(0));
        let events = Arc::new(AtomicU64::new(0));
        let busy_ns = Arc::new(AtomicU64::new(0));
        let executor = || -> Executor {
            let (cache, hops, events, busy_ns) =
                (cache.clone(), hops.clone(), events.clone(), busy_ns.clone());
            let parent = trace::current();
            Arc::new(move |spec: &RunSpec| {
                let t0 = std::time::Instant::now();
                let cell = trace::span_under(parent, "experiments.chaos_cell", || {
                    let mix_name = spec.param_str("mix")?;
                    let mix = chaos::mix_by_name(mix_name)
                        .ok_or_else(|| format!("{}: unknown mix {mix_name:?}", spec.id))?;
                    let size = spec.param_u64("size")? as usize;
                    let seed = spec.param_u64("seed")?;
                    let apm = mix.policy == RecoveryPolicy::ApmMigrate;
                    let name = format!("irregular{size}{}", if apm { "+apm" } else { "" });
                    let artifact = cache.get_or_build(&FabricKey::new(name, seed, 0), || {
                        span("experiments.chaos_build_artifact", || {
                            chaos::build_artifact(size, seed, apm)
                        })
                        .map_err(err)
                    })?;
                    let run =
                        chaos::run_one_with(&artifact, mix, spec.param_u64("mix_index")?, seed)
                            .map_err(|e| format!("{}: {e}", spec.id))?;
                    // Each cell runs on both queue backends, which must
                    // agree, so the recorded result counts twice.
                    let r = &run.result;
                    hops.fetch_add(
                        2 * (r.adaptive_forwards + r.escape_forwards),
                        Ordering::Relaxed,
                    );
                    events.fetch_add(2 * r.events, Ordering::Relaxed);
                    Ok(chaos::cell_json(&run))
                });
                busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                cell
            })
        };
        let t0 = std::time::Instant::now();
        let out = self.run(campaign, executor)?;
        let wall_ns = t0.elapsed().as_nanos() as f64;
        self.check(campaign, &out, checks);
        checks.check(out.digest() == reference.digest(), || {
            format!(
                "chaos: traced digest {} differs from timed {}",
                digest_hex(out.digest()),
                digest_hex(reference.digest())
            )
        });
        let (hits, misses) = cache.stats();
        Ok(Work {
            units: hops.load(Ordering::Relaxed),
            events: events.load(Ordering::Relaxed),
            layer: vec![
                (
                    "campaign.worker_busy_share",
                    busy_ns.load(Ordering::Relaxed) as f64 / (2.0 * wall_ns),
                ),
                (
                    "campaign.cache_hit_share",
                    hits as f64 / (hits + misses).max(1) as f64,
                ),
            ],
        })
    }
}
