//! Golden decision trace: pins the simulator's forwarding decisions on a
//! fixed seed so hot-path refactors (inline candidate vectors, slot
//! handles, queue backends) can prove they did not change a single
//! arbitration outcome.
//!
//! The digest folds every traced `Forwarded` step — packet id, timestamp,
//! switch, output port, escape/adaptive class and read point — plus the
//! headline `RunResult` counters into one FNV-1a hash. Any behavioural
//! drift in `pick_option`, `candidates` or event ordering changes the
//! digest, at any shard count — there is one simulation machine, so
//! there is one pin. The five counters were recorded from the original
//! single-queue engine and have never moved; the FNV digest was
//! re-pinned once, when packet ids became `(source host, per-host
//! sequence)` and the ids folded into it changed with them.

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, SimConfig, TraceOpts, TraceStep};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const GOLDEN_DIGEST: u64 = 16852469505632525844;

struct Golden {
    digest: u64,
    forwards: u64,
    delivered: u64,
    escape_forwards: u64,
    adaptive_forwards: u64,
    events: u64,
}

/// Run the fixed scenario on `shards` shards and digest every
/// forwarding decision.
fn run_scenario(shards: usize) -> Golden {
    let topo = IrregularConfig::paper(8, 42).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let spec = WorkloadSpec::uniform32(0.02);
    let cfg = SimConfig::test(7);
    let mut net = Network::builder(&topo, &routing)
        .workload(spec)
        .config(cfg)
        .trace(TraceOpts::all(1_000_000))
        .shards(shards)
        .build()
        .unwrap();
    let result = net.run();

    let tracer = net.tracer().expect("tracing enabled");
    let mut ids: Vec<_> = tracer.traces().keys().copied().collect();
    ids.sort();
    let mut digest = FNV_OFFSET;
    let mut forwards = 0u64;
    for id in ids {
        for (at, step) in &tracer.trace(id).unwrap().steps {
            if let TraceStep::Forwarded {
                sw,
                out_port,
                via_escape,
                from_escape_head,
            } = step
            {
                forwards += 1;
                digest = fnv(digest, id.0);
                digest = fnv(digest, at.as_ns());
                digest = fnv(digest, sw.0 as u64);
                digest = fnv(digest, out_port.0 as u64);
                digest = fnv(digest, *via_escape as u64);
                digest = fnv(digest, *from_escape_head as u64);
            }
        }
    }
    Golden {
        digest,
        forwards,
        delivered: result.delivered,
        escape_forwards: result.escape_forwards,
        adaptive_forwards: result.adaptive_forwards,
        events: result.events,
    }
}

#[test]
fn forwarding_decisions_match_golden_trace() {
    for shards in [1, 2, 4] {
        let g = run_scenario(shards);
        // See the module docs. These values must never drift.
        assert_eq!(
            (
                g.digest,
                g.forwards,
                g.delivered,
                g.escape_forwards,
                g.adaptive_forwards,
                g.events
            ),
            (GOLDEN_DIGEST, 2270, 984, 17, 2253, 17645),
            "shards={shards}: forwarding decisions drifted from the golden trace"
        );
    }
}

#[test]
fn golden_scenario_is_reproducible_within_a_process() {
    let a = run_scenario(1);
    let b = run_scenario(1);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.events, b.events);
}
