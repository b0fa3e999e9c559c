//! Golden decision trace: pins the simulator's forwarding decisions on a
//! fixed seed so hot-path refactors (inline candidate vectors, slot
//! handles, queue backends) can prove they did not change a single
//! arbitration outcome.
//!
//! The digest folds every routing decision of a journey capture (a
//! flight recorder that keeps every event, `common::CAPTURE`) — packet
//! id, timestamp, switch, output port, escape/adaptive class and read
//! point — into one FNV-1a hash, pinned beside the headline `RunResult`
//! counters. Any behavioural drift in `pick_option`, `candidates` or
//! event ordering changes the digest, at any shard count — there is one
//! simulation machine, so there is one pin. The four behaviour counters were recorded from the
//! original single-queue engine and have never moved; the FNV digest was
//! re-pinned once, when packet ids became `(source host, per-host
//! sequence)` and the ids folded into it changed with them; the event
//! count was re-pinned once, 17 645 → 15 374, when the 2 271
//! `RouteDone`s were fused into header arrival (arbitration passes
//! still count, one per `(switch, timestamp)` as before).
//!
//! Event counts are an implementation detail; behaviour is not. The
//! second pin, [`GOLDEN_STEP_DIGEST`], is the gate for a change that
//! fuses, splits or renames events: it folds every step of every
//! packet and nothing else — no packet ids, no event counts. Both pins
//! were recorded from a dedicated journey tracer with its own compact
//! step encoding; the capture folds to the same values.

mod common;

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, SimConfig};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

const GOLDEN_DIGEST: u64 = 16852469505632525844;

/// Id-free per-packet step digest of the golden scenario: one FNV-1a
/// fold per packet over its tagged, timestamped steps (generation,
/// injection, every arrival with port and VL, every forward, delivery),
/// the per-packet values sorted and folded. Equal before and after the
/// `RouteDone` fusion. (PR 13 quoted `0x874f51ae3ce6e3c7` for a digest
/// of this kind without committing its fold; this is the committed one.)
const GOLDEN_STEP_DIGEST: u64 = 0xdd21_9f44_24b4_7af3;

struct Golden {
    digest: u64,
    step_digest: u64,
    forwards: u64,
    delivered: u64,
    escape_forwards: u64,
    adaptive_forwards: u64,
    events: u64,
    injected: u64,
    stopped_at_ns: u64,
}

/// Run the fixed scenario on `shards` shards and digest every
/// forwarding decision.
fn run_scenario(shards: usize) -> Golden {
    run_budgeted(shards, SimConfig::test(7).max_events)
}

/// The fixed scenario, stopped after `max_events` handlers.
fn run_budgeted(shards: usize, max_events: u64) -> Golden {
    let topo = IrregularConfig::paper(8, 42).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let spec = WorkloadSpec::uniform32(0.02);
    let mut cfg = SimConfig::test(7);
    cfg.max_events = max_events;
    let mut net = Network::builder(&topo, &routing)
        .workload(spec)
        .config(cfg)
        .recorder(common::CAPTURE)
        .shards(shards)
        .build()
        .unwrap();
    let result = net.run();
    let dump = net.flight_dump().expect("the capture is armed");
    let (digest, forwards) = common::decision_digest(&dump);
    Golden {
        digest,
        step_digest: common::step_digest(&dump),
        forwards,
        delivered: result.delivered,
        escape_forwards: result.escape_forwards,
        adaptive_forwards: result.adaptive_forwards,
        events: result.events,
        injected: result.injected,
        stopped_at_ns: net.now().as_ns(),
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
            (GOLDEN_DIGEST, 2270, 984, 17, 2253, 15374),
            "shards={shards}: forwarding decisions drifted from the golden trace"
        );
        assert_eq!(
            g.step_digest, GOLDEN_STEP_DIGEST,
            "shards={shards}: a packet's journey changed"
        );
    }
}

#[test]
fn event_budget_stops_a_lone_shard_mid_window_on_the_pinned_handler() {
    // A lone shard's window spans the whole run, so `max_events` must
    // bind between two handlers inside it — queue pops and arbitration
    // passes alike. The stopping points were recorded on the engine that
    // still popped `RouteDone`s: its budgets 5 000 / 9 000 / 9 001 /
    // 12 345 held 646 / 1 159 / 1 159 / 1 590 of them and stopped on the
    // handlers pinned here, the 9 001st being one `Deliver`.
    for (budget, injected, forwards, delivered, stopped_at_ns) in [
        (4_354, 289, 645, 272, 13_714),
        (7_841, 512, 1_159, 499, 25_310),
        (7_842, 512, 1_159, 500, 25_310),
        (10_755, 700, 1_590, 690, 35_035),
    ] {
        let g = run_budgeted(1, budget);
        assert_eq!(
            (
                g.events,
                g.injected,
                g.forwards,
                g.delivered,
                g.stopped_at_ns
            ),
            (budget, injected, forwards, delivered, stopped_at_ns),
            "budget {budget} stopped on a different handler"
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
