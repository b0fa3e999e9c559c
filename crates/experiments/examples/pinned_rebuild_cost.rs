//! What the route stage of a re-sweep costs, and how often a rebuild
//! that left the root to the engine would move it (EXPERIMENTS.md "One
//! re-sweep (PR 26)" has the table).
//!
//! ```text
//! cargo run --release -p iba-experiments --example pinned_rebuild_cost
//! ```
//!
//! A measurement of the routing layer, not an `iba` subcommand (`iba
//! help` lists those).
//!
//! Per size, every link whose removal keeps each of a few seeded
//! fabrics connected. Per link: `FaRouting::resweep` (the root-pinned
//! rebuild and its escape certification) and `certify_escape` alone,
//! best of 3 each, medians over the links printed; and whether the
//! unpinned rebuild — `FaRouting::build` on the degraded fabric —
//! elects a root other than the primary's, counted in `moved`.

use iba_experiments::faults::degraded;
use iba_routing::{FaRouting, RoutingConfig};
use iba_topology::IrregularConfig;
use std::time::Instant;

/// Best of three, in milliseconds.
fn best_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let once = |_| {
        let started = Instant::now();
        std::hint::black_box(f());
        started.elapsed().as_secs_f64() * 1e3
    };
    (0..3).map(once).fold(f64::INFINITY, f64::min)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> Result<(), iba_core::IbaError> {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("threads {threads}");
    println!("switches  links  moved  resweep ms  certify ms  certify / resweep");
    for (n, seeds) in [(8, 15), (16, 15), (64, 4), (256, 2)] {
        let (mut resweep, mut certify, mut moved) = (Vec::new(), Vec::new(), 0);
        for seed in 100..100 + seeds {
            let topo = IrregularConfig::paper(n, seed).generate()?;
            let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
            for a in topo.switch_ids() {
                for (_, b, _) in topo.switch_neighbors(a).filter(|&(_, b, _)| a.0 < b.0) {
                    let Ok(without) = degraded(&topo, &[(a, b)]) else {
                        continue; // a bridge
                    };
                    resweep.push(best_ms(|| routing.resweep(&without)));
                    let swept = routing.resweep(&without)?;
                    certify.push(best_ms(|| swept.certify_escape(&without, false)));
                    let unpinned = FaRouting::build(&without, *routing.config())?;
                    moved += usize::from(unpinned.escape().root() != routing.escape().root());
                }
            }
        }
        let links = resweep.len();
        let (resweep, certify) = (median(resweep), median(certify));
        let share = certify / resweep;
        println!("{n:>8}  {links:>5}  {moved:>5}  {resweep:>10.3}  {certify:>10.3}  {share:>17.2}");
    }
    Ok(())
}
