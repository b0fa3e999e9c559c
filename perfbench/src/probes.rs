//! Probes: short measurements of one crate each, through its public
//! functions, the same on every workload. Each probe reports the minimum
//! of a few repetitions; ratios are taken within one run.
//!
//! Metric names carry the fabric size they stand for; `--smoke` runs the
//! same code on fabrics small enough for `cargo test`.

use crate::alloc;
use crate::stats::{min, timed};
use crate::trace::span;
use crate::workloads::err;
use iba_bench::BenchFixture;
use iba_campaign::{
    replay, run_campaign, Campaign, Executor, Journal, RunRecord, RunSpec, RunnerOpts,
};
use iba_core::{HostId, Json, SimTime};
use iba_engine::{DesQueue, QueueBackend, StreamRng};
use iba_experiments::faults::{degraded, removable_links};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecorderOpts, RunResult, SimConfig, StatsCollector, TelemetryOpts};
use iba_sm::{Discoverer, ManagedFabric, Programmer, SubnetManager};
use iba_stats::LogHistogram;
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::{HostGenerator, WorkloadSpec};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Fabric sizes behind the `.n32`, `.n64`, `.n256` and `.n1024` suffixes.
pub struct Sizes {
    n32: usize,
    n64: usize,
    n256: usize,
    n1024: usize,
    reps: usize,
    queue_ops: u64,
    campaign_specs: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                n32: 8,
                n64: 8,
                n256: 16,
                n1024: 32,
                reps: 1,
                queue_ops: 10_000,
                campaign_specs: 8,
            }
        } else {
            Sizes {
                n32: 32,
                n64: 64,
                n256: 256,
                n1024: 1024,
                reps: 3,
                queue_ops: 1_000_000,
                campaign_specs: 210,
            }
        }
    }
}

pub type Metrics = Vec<(String, f64)>;

/// Minimum seconds over `reps` calls, with the last result.
fn best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (s, r) = timed(&mut f);
        times.push(s);
        last = Some(r);
    }
    (min(&times), last.expect("at least one repetition"))
}

/// A simulator window short enough that a probe costs a fraction of a
/// second at every size.
fn short_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup: SimTime::from_us(10),
        measure_window: SimTime::from_us(40),
        ..SimConfig::paper(seed)
    }
}

pub fn run(seed: u64, sizes: &Sizes, scratch: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    span("topology.probes", || {
        topology_and_routing(seed, sizes, &mut m)
    })?;
    span("sm.probes", || subnet_manager(seed, sizes, &mut m))?;
    span("engine.probes", || event_queues(sizes, &mut m));
    span("sim.probes", || simulator(seed, sizes, &mut m))?;
    span("stats.probes", || statistics(seed, sizes, &mut m))?;
    span("workloads.probes", || generators(seed, &mut m))?;
    span("campaign.probes", || campaign(sizes, scratch, &mut m))?;
    Ok(m)
}

fn paper_fabric(switches: usize, seed: u64) -> Result<(Topology, FaRouting), String> {
    let topo = IrregularConfig::paper(switches, seed)
        .generate()
        .map_err(err)?;
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).map_err(err)?;
    Ok((topo, routing))
}

fn topology_and_routing(seed: u64, sizes: &Sizes, m: &mut Metrics) -> Result<(), String> {
    for (label, n) in [
        ("n64", sizes.n64),
        ("n256", sizes.n256),
        ("n1024", sizes.n1024),
    ] {
        // The largest table build takes about a second: once is enough.
        let reps = if label == "n1024" { 1 } else { sizes.reps };
        let (gen_s, topo) = best(reps, || IrregularConfig::paper(n, seed).generate());
        let topo = topo.map_err(err)?;
        let (build_s, routing) = best(reps, || {
            FaRouting::build(&topo, RoutingConfig::two_options())
        });
        routing.map_err(err)?;
        m.push((format!("topology.generate_ms.{label}"), gen_s * 1e3));
        m.push((format!("routing.fa_build_ms.{label}"), build_s * 1e3));
    }

    // Delta rebuild after one link failure, over several links: how long
    // it takes and how often it gives up and rebuilds everything.
    let (topo, routing) = paper_fabric(sizes.n256, seed)?;
    let links = (1..=8)
        .rev()
        .find_map(|n| removable_links(&topo, n).ok())
        .ok_or("no removable link")?;
    let mut times = Vec::new();
    let mut fallbacks = 0usize;
    for &(a, b) in &links {
        let (pa, _, pb) = topo
            .switch_neighbors(a)
            .find(|&(_, peer, _)| peer == b)
            .ok_or("a removable link is not wired")?;
        let without = degraded(&topo, &[(a, b)]).map_err(err)?;
        let (s, rebuilt) = timed(|| routing.rebuild_after_link_failure(&without, a, pa, b, pb));
        times.push(s);
        fallbacks += usize::from(rebuilt.map_err(err)?.stats.full_rebuild);
    }
    m.push(("routing.delta_rebuild_ms.n256".into(), min(&times) * 1e3));
    m.push((
        "routing.delta_fallback_share".into(),
        fallbacks as f64 / links.len() as f64,
    ));
    Ok(())
}

/// Bring-up, one link failure, then both ways to recover: the incremental
/// re-sweep and rediscovery plus full reprogramming on a twin fabric.
fn subnet_manager(seed: u64, sizes: &Sizes, m: &mut Metrics) -> Result<(), String> {
    let physical = IrregularConfig::paper(sizes.n256, seed)
        .generate()
        .map_err(err)?;
    let sm = SubnetManager::new(RoutingConfig::two_options());
    let mut fabric = ManagedFabric::new(&physical, 2).map_err(err)?;
    let mut programmer = Programmer::new();
    let (init_s, up) = timed(|| sm.initialize_with(&mut fabric, &mut programmer));
    let up = up.map_err(err)?;

    let root = up.routing.escape().root();
    let (a, b) = removable_links(&up.topology, 4)
        .or_else(|_| removable_links(&up.topology, 1))
        .map_err(err)?
        .into_iter()
        .find(|&(x, y)| x != root && y != root)
        .ok_or("every removable link touches the root")?;
    let physical_of = |fabric: &ManagedFabric, guid: u64| {
        physical
            .switch_ids()
            .find(|&s| fabric.agent(s).guid == guid)
            .ok_or("a discovered GUID has no physical switch")
    };
    let pa = physical_of(&fabric, up.discovered.switches[a.index()].guid)?;
    let pb = physical_of(&fabric, up.discovered.switches[b.index()].guid)?;

    fabric.fail_link(pa, pb).map_err(err)?;
    let before = fabric.smps_sent;
    let (resweep_s, resweep) =
        timed(|| sm.resweep_after_link_failure(&mut fabric, &up, a, b, &mut programmer));
    let resweep = resweep.map_err(err)?;
    let resweep_smps = fabric.smps_sent - before;

    let mut twin = ManagedFabric::new(&physical, 2).map_err(err)?;
    sm.initialize(&mut twin).map_err(err)?;
    twin.fail_link(pa, pb).map_err(err)?;
    let (discover_s, found) = timed(|| Discoverer::new().discover(&mut twin));
    let found = found.map_err(err)?;
    let (program_s, report) = timed(|| {
        let topo = found.to_topology()?;
        let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
        Programmer::new().program(&mut twin, &found, &routing)
    });
    let report = report.map_err(err)?;

    let inc = &resweep.bringup.report;
    m.push(("sm.discover_ms.n256".into(), discover_s * 1e3));
    m.push(("sm.initialize_ms.n256".into(), init_s * 1e3));
    m.push(("sm.resweep_ms.n256".into(), resweep_s * 1e3));
    m.push((
        "sm.full_recover_ms.n256".into(),
        (discover_s + program_s) * 1e3,
    ));
    m.push(("sm.smps_per_resweep.n256".into(), resweep_smps as f64));
    m.push((
        "sm.blocks_uploaded_share.n256".into(),
        inc.blocks_written as f64 / report.blocks_written.max(1) as f64,
    ));
    Ok(())
}

/// The hold model: pop one event, schedule one or two a little later.
fn hold_model(backend: QueueBackend, ops: u64) -> f64 {
    let mut q: DesQueue<u64> = DesQueue::new(backend);
    for i in 0..64u64 {
        q.schedule(SimTime::from_ns(i * 97), i);
    }
    let (s, done) = timed(|| {
        let mut done = 0u64;
        while let Some((t, i)) = q.pop() {
            done += 1;
            if done < ops {
                q.schedule(t.plus_ns(128 + (i % 7) * 33), i + 1);
                if i % 3 == 0 {
                    q.schedule(t.plus_ns(401), i + 2);
                }
            }
        }
        black_box(done)
    });
    s * 1e9 / done as f64
}

fn event_queues(sizes: &Sizes, m: &mut Metrics) {
    for (name, backend) in [
        ("engine.heap_op_ns", QueueBackend::BinaryHeap),
        ("engine.calendar_op_ns", QueueBackend::Calendar),
    ] {
        let per_op: Vec<f64> = (0..sizes.reps)
            .map(|_| hold_model(backend, sizes.queue_ops))
            .collect();
        m.push((name.into(), min(&per_op)));
    }
}

fn hops(r: &RunResult) -> u64 {
    r.adaptive_forwards + r.escape_forwards
}

fn simulator(seed: u64, sizes: &Sizes, m: &mut Metrics) -> Result<(), String> {
    let light = WorkloadSpec::uniform32(0.005);

    // Cost per event as the fabric grows (the ROADMAP's flatness gate),
    // and the cost of building a network.
    for (label, n) in [
        ("n32", sizes.n32),
        ("n256", sizes.n256),
        ("n1024", sizes.n1024),
    ] {
        let (topo, routing) = paper_fabric(n, seed)?;
        let builder = || {
            Network::builder(&topo, &routing)
                .workload(light)
                .config(short_config(seed))
                .build()
        };
        let (build_s, net) = best(sizes.reps, builder);
        net.map_err(err)?;
        if label != "n1024" {
            m.push((format!("sim.network_build_ms.{label}"), build_s * 1e3));
        }
        let (run_s, r) = best(sizes.reps, || builder().map(|mut net| net.run()));
        let r = r.map_err(err)?;
        m.push((
            format!("sim.ns_per_event.{label}"),
            run_s * 1e9 / r.events.max(1) as f64,
        ));
    }

    // Sharded against serial, and two threads against one, where both
    // engines deliver the same traffic. Timed from outside `run`, so the
    // merge that `RunResult.wall_time_s` leaves out is in.
    let fixture = BenchFixture::paper(sizes.n256, seed);
    let full = if sizes.n256 == 256 {
        SimConfig::paper(seed)
    } else {
        short_config(seed)
    };
    let reps = sizes.reps.min(2);
    let (serial_s, _) = best(reps, || fixture.simulate(light, full));
    let (t1_s, _) = best(reps, || fixture.simulate_sharded(light, full, 2, 1));
    let (t2_s, _) = best(reps, || fixture.simulate_sharded(light, full, 2, 2));
    m.push(("sim.sharded_over_serial.n256".into(), t2_s / serial_s));
    m.push(("sim.t2_over_t1.n256".into(), t2_s / t1_s));

    // One profiled sharded run: where the parallel engine's time goes.
    let mut net = Network::builder(&fixture.topology, &fixture.routing)
        .workload(light)
        .config(full)
        .shards(2)
        .threads(2)
        .metrics()
        .build()
        .map_err(err)?;
    let (outside_s, r) = timed(|| net.run());
    let profile = net
        .engine_profile()
        .ok_or("a profiled run left no profile")?;
    m.push((
        "engine.barrier_wait_share".into(),
        profile.barrier_wait_share(),
    ));
    m.push(("engine.windows".into(), profile.windows as f64));
    m.push(("engine.mailbox_msgs".into(), profile.mailbox_msgs as f64));
    m.push(("sim.run_overhead_s.n256".into(), outside_s - r.wall_time_s));

    // Armed observers against a bare run, and allocations per hop.
    let cfg = short_config(seed);
    let small = BenchFixture::paper(sizes.n32, seed);
    let busy = WorkloadSpec::uniform32(0.02);
    let reps = sizes.reps + 2;
    let (bare_s, _) = best(reps, || small.simulate(busy, cfg));
    let (tele_s, _) = best(reps, || {
        small.simulate_instrumented(busy, cfg, TelemetryOpts::default())
    });
    let (rec_s, _) = best(reps, || {
        small.simulate_recorded(busy, cfg, RecorderOpts::default())
    });
    let (fault_s, _) = best(reps, || small.simulate_fault_armed(busy, cfg));
    let (meter_s, _) = best(reps, || small.simulate_metered(busy, cfg));
    m.push(("sim.armed_over_bare.telemetry".into(), tele_s / bare_s));
    m.push(("sim.armed_over_bare.recorder".into(), rec_s / bare_s));
    m.push(("sim.armed_over_bare.faults".into(), fault_s / bare_s));
    m.push(("sim.armed_over_bare.metrics".into(), meter_s / bare_s));
    let (r, counts) = alloc::counted(|| small.simulate(busy, cfg));
    m.push((
        "sim.allocs_per_hop.n32".into(),
        counts.allocs as f64 / hops(&r).max(1) as f64,
    ));

    // Rendering and parsing one result, as every campaign cell does.
    let n = 200;
    let (render_s, text) = best(sizes.reps, || {
        let mut text = String::new();
        for _ in 0..n {
            text = black_box(&r).to_json().to_string_pretty();
        }
        text
    });
    let (parse_s, parsed) = best(sizes.reps, || {
        let mut parsed = None;
        for _ in 0..n {
            parsed = Json::parse(black_box(&text))
                .ok()
                .and_then(|j| RunResult::from_json(&j));
        }
        parsed
    });
    if parsed.as_ref() != Some(&r) {
        return Err("a rendered RunResult does not parse back to itself".into());
    }
    m.push((
        "core.json_render_us.run_result".into(),
        render_s * 1e6 / n as f64,
    ));
    m.push((
        "core.json_parse_us.run_result".into(),
        parse_s * 1e6 / n as f64,
    ));
    Ok(())
}

fn statistics(seed: u64, sizes: &Sizes, m: &mut Metrics) -> Result<(), String> {
    let (topo, routing) = paper_fabric(sizes.n256, seed)?;
    let lids = routing.lid_map().table_len();
    let new_collector = || {
        StatsCollector::new(
            SimTime::from_us(60),
            SimTime::from_us(300),
            topo.num_hosts(),
            lids,
        )
    };
    let (new_s, collector) = best(sizes.reps, new_collector);
    m.push(("stats.collector_new_ms.n256".into(), new_s * 1e3));
    let n = 1_000;
    let (finish_s, _) = best(sizes.reps, || {
        for _ in 0..n {
            black_box(collector.finish(topo.num_switches(), 1, std::time::Duration::from_secs(1)));
        }
    });
    m.push(("stats.finish_us".into(), finish_s * 1e6 / n as f64));

    let mut rng = StreamRng::from_seed(seed);
    let values: Vec<u64> = (0..100_000)
        .map(|_| 200 + rng.below(50_000) as u64)
        .collect();
    let (record_s, hist) = best(sizes.reps, || {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        h
    });
    m.push((
        "stats.hist_record_ns".into(),
        record_s * 1e9 / values.len() as f64,
    ));
    let merges = 1_000;
    let (merge_s, merged) = best(sizes.reps, || {
        let mut into = LogHistogram::new();
        for _ in 0..merges {
            into.merge(black_box(&hist));
        }
        into
    });
    if merged.count() != hist.count() * merges {
        return Err("merged histograms lost samples".into());
    }
    m.push(("stats.hist_merge_us".into(), merge_s * 1e6 / merges as f64));
    Ok(())
}

fn generators(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let hosts = 128;
    let root = StreamRng::from_seed(seed);
    let mut gens = (0..hosts)
        .map(|h| {
            HostGenerator::new(
                HostId(h),
                hosts as usize,
                WorkloadSpec::uniform32(0.02),
                &root,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let per_host = 2_000;
    let (s, _) = timed(|| {
        for g in &mut gens {
            for _ in 0..per_host {
                black_box(g.next_interarrival_ns());
                black_box(g.generate());
            }
        }
    });
    m.push((
        "workloads.generate_ns_per_packet".into(),
        s * 1e9 / (hosts as f64 * per_host as f64),
    ));
    Ok(())
}

/// The runner's own cost per run: a campaign of specs that do nothing.
fn campaign(sizes: &Sizes, scratch: &Path, m: &mut Metrics) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(err)?;
    let n = sizes.campaign_specs;
    let mut noop = Campaign::new("noop");
    for i in 0..n {
        noop.push(RunSpec::new(format!("noop/{i}"), "noop", Json::object()));
    }
    let executor: Executor = Arc::new(|_| Ok(Json::from(1u64)));
    let journal = scratch.join("noop.journal.jsonl");
    let opts = RunnerOpts {
        workers: 2,
        quiet: true,
        ..RunnerOpts::default()
    };
    let mut run_times = Vec::new();
    for _ in 0..sizes.reps {
        let _ = std::fs::remove_file(&journal);
        let (s, outcome) = timed(|| run_campaign(&noop, executor.clone(), &journal, &opts, false));
        if outcome?.records.len() != n {
            return Err("the no-op campaign lost runs".into());
        }
        run_times.push(s);
    }
    m.push((
        "campaign.per_run_overhead_us".into(),
        min(&run_times) * 1e6 / n as f64,
    ));

    let (replay_s, replayed) = best(sizes.reps, || replay(&journal));
    if replayed?.records.len() != n {
        return Err("the no-op journal does not replay".into());
    }
    m.push(("campaign.replay_ms.n210".into(), replay_s * 1e3));

    let path = scratch.join("append.journal.jsonl");
    let mut j = Journal::create(&path).map_err(err)?;
    let record = RunRecord::ok(&noop.specs[0], 1, Json::from(1u64));
    let appends = n.min(64);
    let (append_s, io) = timed(|| (0..appends).try_for_each(|_| j.append(&record)));
    io.map_err(err)?;
    m.push((
        "campaign.journal_append_us".into(),
        append_s * 1e6 / appends as f64,
    ));
    Ok(())
}
