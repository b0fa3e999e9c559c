//! Every metric the driver emits: name, unit, and which way is better.
//! `BENCHMARK.json` lists the same names; a test holds the two together.

pub type MetricDef = (&'static str, &'static str, &'static str);

/// Reported with `--trace 0`, from untraced repetitions timed from outside.
pub const END_TO_END: [MetricDef; 4] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
];

/// Reported with `--trace 1`: the traced pass of the workload at hand
/// (zero where the workload does not reach the layer), then the probes.
pub const PER_LAYER: [MetricDef; 68] = [
    // Self time per crate in the traced pass, from the driver's spans:
    // `<layer>.self_ms` sums the spans named `<layer>.<function>`.
    ("topology.self_ms", "ms", "lower"),
    ("routing.self_ms", "ms", "lower"),
    ("sm.self_ms", "ms", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("core.self_ms", "ms", "lower"),
    ("campaign.self_ms", "ms", "lower"),
    ("experiments.self_ms", "ms", "lower"),
    ("driver.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    // Exact counts of one body.
    ("work.units", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_hop", "ratio", "lower"),
    ("proc.allocs_per_unit", "ratio", "lower"),
    ("proc.peak_heap_mb", "MB", "lower"),
    // Only one workload's traced pass can give these.
    ("experiments.sweep_self_s", "s", "lower"),
    ("experiments.points", "count", "lower"),
    ("campaign.worker_busy_share", "ratio", "higher"),
    ("campaign.cache_hit_share", "ratio", "higher"),
    // Diagnostics of the run itself.
    ("proc.cpu_s", "s", "lower"),
    ("proc.reps", "count", "higher"),
    ("proc.wall_min_s", "s", "lower"),
    ("proc.wall_med_s", "s", "lower"),
    ("proc.wall_max_s", "s", "lower"),
    ("proc.setup_cold_s", "s", "lower"),
    ("proc.setup_med_s", "s", "lower"),
    // Probes, one crate each.
    ("topology.generate_ms.n64", "ms", "lower"),
    ("routing.fa_build_ms.n64", "ms", "lower"),
    ("topology.generate_ms.n256", "ms", "lower"),
    ("routing.fa_build_ms.n256", "ms", "lower"),
    ("topology.generate_ms.n1024", "ms", "lower"),
    ("routing.fa_build_ms.n1024", "ms", "lower"),
    ("routing.delta_rebuild_ms.n256", "ms", "lower"),
    ("routing.delta_fallback_share", "ratio", "lower"),
    ("sm.discover_ms.n256", "ms", "lower"),
    ("sm.initialize_ms.n256", "ms", "lower"),
    ("sm.resweep_ms.n256", "ms", "lower"),
    ("sm.full_recover_ms.n256", "ms", "lower"),
    ("sm.smps_per_resweep.n256", "count", "lower"),
    ("sm.blocks_uploaded_share.n256", "ratio", "lower"),
    ("engine.heap_op_ns", "ns", "lower"),
    ("engine.calendar_op_ns", "ns", "lower"),
    ("sim.network_build_ms.n32", "ms", "lower"),
    ("sim.ns_per_event.n32", "ns", "lower"),
    ("sim.network_build_ms.n256", "ms", "lower"),
    ("sim.ns_per_event.n256", "ns", "lower"),
    ("sim.ns_per_event.n1024", "ns", "lower"),
    ("sim.sharded_over_serial.n256", "ratio", "lower"),
    ("sim.t2_over_t1.n256", "ratio", "lower"),
    ("engine.barrier_wait_share", "ratio", "lower"),
    ("engine.windows", "count", "lower"),
    ("engine.mailbox_msgs", "count", "lower"),
    ("sim.run_overhead_s.n256", "s", "lower"),
    ("sim.armed_over_bare.telemetry", "ratio", "lower"),
    ("sim.armed_over_bare.recorder", "ratio", "lower"),
    ("sim.armed_over_bare.faults", "ratio", "lower"),
    ("sim.armed_over_bare.metrics", "ratio", "lower"),
    ("sim.allocs_per_hop.n32", "ratio", "lower"),
    ("core.json_render_us.run_result", "us", "lower"),
    ("core.json_parse_us.run_result", "us", "lower"),
    ("stats.collector_new_ms.n256", "ms", "lower"),
    ("stats.finish_us", "us", "lower"),
    ("stats.hist_record_ns", "ns", "lower"),
    ("stats.hist_merge_us", "us", "lower"),
    ("workloads.generate_ns_per_packet", "ns", "lower"),
    ("campaign.per_run_overhead_us", "us", "lower"),
    ("campaign.replay_ms.n210", "ms", "lower"),
    ("campaign.journal_append_us", "us", "lower"),
];
