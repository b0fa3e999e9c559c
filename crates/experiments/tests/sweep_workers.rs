//! The worker count of `par_map` is not observable in a result: each
//! quick sweep point reads the same on one thread as on every core of
//! this host (`iba_campaign::default_workers()` of them).

use iba_campaign::par_map;
use iba_experiments::{faults, table1, telemetry, Fidelity};
use iba_sim::RecoveryPolicy;
use iba_workloads::TrafficPattern;

/// `f` on one thread: a sweep started by a pool worker runs inline, so
/// the first of two items runs `f` with its `par_map` calls sequential.
fn on_one_thread<R: Send>(f: impl Fn() -> R + Sync) -> R {
    par_map(&[true, false], |&run| run.then(&f))
        .swap_remove(0)
        .expect("the first item ran f")
}

#[test]
fn table1_point_is_worker_count_invariant() {
    let cfg = table1::Table1Config {
        sizes: vec![8],
        packet_sizes: vec![32],
        patterns: vec![TrafficPattern::Uniform],
        ..table1::Table1Config::left_block(Fidelity::Quick, 11)
    };
    let render = || table1::render(&cfg, &table1::run(&cfg).unwrap());
    assert_eq!(on_one_thread(render), render());
}

#[test]
fn faults_cell_is_worker_count_invariant() {
    let render = || {
        let cell = faults::run_cell(8, RecoveryPolicy::SmResweep, 1, 3, 40, 0.02, 2_000).unwrap();
        faults::to_json(8, 3, 0.02, 2_000, &[cell])
    };
    assert_eq!(on_one_thread(render), render());
}

#[test]
fn telemetry_points_are_worker_count_invariant() {
    // The document minus the host's wall clock.
    let render = || {
        let points = telemetry::run_sweep(8, 7, &[0.05, 0.3, 0.8], 2_000).unwrap();
        telemetry::to_json(8, 7, 2_000, &points)
            .lines()
            .filter(|l| !l.contains("\"wall_time_s\"") && !l.contains("\"events_per_sec\""))
            .collect::<String>()
    };
    assert_eq!(on_one_thread(render), render());
}
