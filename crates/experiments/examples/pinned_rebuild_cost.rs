//! What the route stage of an incremental re-sweep costs: the
//! root-pinned rebuild and the escape certification, per fabric size
//! (EXPERIMENTS.md "One route computation (PR 24)" has the table).
//!
//! ```text
//! cargo run --release -p iba-experiments --example pinned_rebuild_cost
//! ```
//!
//! Per size, up to 8 removable links of each of a few seeded fabrics;
//! per link the best of 3; the medians over the links are printed.

use iba_experiments::faults::{degraded, removable_links};
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
    println!("switches  links  rebuild ms  certify ms  certify / rebuild");
    for (n, seeds) in [(16, 4), (64, 4), (128, 8), (256, 4), (512, 2), (1024, 1)] {
        let (mut rebuild, mut certify) = (Vec::new(), Vec::new());
        for seed in 100..100 + seeds {
            let topo = IrregularConfig::paper(n, seed).generate()?;
            let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
            let pinned = RoutingConfig {
                root: Some(routing.escape().root()),
                ..*routing.config()
            };
            let links = (1..=8)
                .rev()
                .find_map(|count| removable_links(&topo, count).ok())
                .unwrap_or_default();
            for link in links {
                let without = degraded(&topo, &[link])?;
                rebuild.push(best_ms(|| routing.rebuild_on(&without, pinned)));
                let rebuilt = routing.rebuild_on(&without, pinned)?;
                certify.push(best_ms(|| rebuilt.certify_escape(&without, false)));
            }
        }
        let links = rebuild.len();
        let (rebuild, certify) = (median(rebuild), median(certify));
        let share = certify / rebuild;
        println!("{n:>8}  {links:>5}  {rebuild:>10.3}  {certify:>10.3}  {share:>17.2}");
    }
    Ok(())
}
