//! Flight-recorder demonstration run (`iba flightrec` and the CI
//! smoke test).
//!
//! Runs one paper-style topology with the flight recorder armed and —
//! optionally — a mid-window link fault with **no** recovery policy, the
//! canonical way to wedge the fabric: packets whose escape path crosses
//! the dead link strand forever, the stall watchdog classifies the
//! no-progress interval as a suspected wedge, and the trigger freezes
//! the rings around the evidence. The dump is returned for writing as
//! JSONL (for `iba trace`) and as a Chrome trace-event / Perfetto
//! document.

use crate::faults::removable_links;
use iba_core::{IbaError, Json};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    perfetto_trace, FlightDump, Network, RecorderOpts, RecoveryPolicy, RunResult, SimConfig,
    WatchdogOpts,
};
use iba_topology::IrregularConfig;
use iba_workloads::{FaultSchedule, WorkloadSpec};

/// What to simulate.
#[derive(Clone, Copy, Debug)]
pub struct FlightRunSpec {
    /// Fabric size, switches.
    pub size: usize,
    /// Topology / traffic seed.
    pub seed: u64,
    /// Injection rate, bytes/ns per host.
    pub rate: f64,
    /// When set, kill one removable link at this time with no recovery —
    /// the wedge scenario.
    pub fault_at_us: Option<u64>,
    /// Recorder configuration.
    pub recorder: RecorderOpts,
}

impl Default for FlightRunSpec {
    /// The CI smoke configuration: a small fabric, a mid-window fault,
    /// and a watchdog tuned to verdict within the test horizon.
    fn default() -> FlightRunSpec {
        FlightRunSpec {
            size: 16,
            seed: 3,
            rate: 0.02,
            fault_at_us: Some(20),
            recorder: RecorderOpts {
                trigger_on_drop: false,
                watchdog: Some(WatchdogOpts {
                    check_every_ns: 2_000,
                    stall_after_ns: 10_000,
                }),
                ..RecorderOpts::default()
            },
        }
    }
}

/// Run the spec and `read` the recorder off the network (the dump:
/// `|net| net.flight_dump()`); returns the ordinary result and the read.
pub fn run_recorded<T>(
    spec: &FlightRunSpec,
    read: impl FnOnce(&Network) -> Option<T>,
) -> Result<(RunResult, T), IbaError> {
    let topo = IrregularConfig::paper(spec.size, spec.seed).generate()?;
    let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
    let mut b = Network::builder(&topo, &routing)
        .workload(WorkloadSpec::uniform32(spec.rate))
        .config(SimConfig::test(spec.seed))
        .recorder(spec.recorder);
    let schedule;
    if let Some(us) = spec.fault_at_us {
        let (a, bsw) = removable_links(&topo, 1)?[0];
        schedule = FaultSchedule::single(iba_core::SimTime::from_us(us), a, bsw)?;
        b = b.faults(&schedule, RecoveryPolicy::None, 0);
    }
    let mut net = b.build()?;
    let result = net.run();
    let read = read(&net).ok_or_else(|| {
        IbaError::RoutingFailed("recorded run lost its flight recorder (builder arms it)".into())
    })?;
    Ok((result, read))
}

/// The Perfetto document for a dump, rendered to text.
pub fn perfetto_text(dump: &FlightDump) -> String {
    perfetto_trace(dump).to_string_compact()
}

/// Sanity-check a rendered Perfetto document the way the CI smoke step
/// does: it must re-parse, expose a `traceEvents` array, and every entry
/// must carry the mandatory `ph`/`name`/`pid`/`ts`-or-metadata shape.
pub fn validate_perfetto(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if e.get("pid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        if ph != "M" && e.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i}: missing ts"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_sim::TriggerCause;

    /// The dump, and the triggers as read without it — which must be the
    /// dump's.
    fn run_checked(spec: &FlightRunSpec) -> (RunResult, FlightDump) {
        let (result, (dump, triggers)) = run_recorded(spec, |net| {
            Some((net.flight_dump()?, net.flight_triggers()?))
        })
        .unwrap();
        assert_eq!(triggers, dump.triggers);
        (result, dump)
    }

    #[test]
    fn smoke_spec_wedges_and_exports_cleanly() {
        let (result, dump) = run_checked(&FlightRunSpec::default());
        assert_eq!(result.faults_injected, 1);
        assert!(dump.frozen, "the wedge must freeze the recorder");
        assert!(dump
            .triggers
            .iter()
            .any(|t| t.cause == TriggerCause::SuspectedWedge));
        let n = validate_perfetto(&perfetto_text(&dump)).unwrap();
        assert!(n > 0);
        // And the JSONL artifact parses back to the same dump.
        assert_eq!(FlightDump::from_jsonl(&dump.to_jsonl()).unwrap(), dump);
        // What the rings hold, pinned: a head is looked at again only
        // when something its last look read has changed, so a `blocked`
        // event is a new reason, not a wake-up (560 of them, 529
        // `dead_port` verdicts among them, when every pass re-looked
        // every head; every other kind and both triggers as they were).
        // The events of a switch's hosts — now also their generations —
        // share its ring instead of a host ring of four times the
        // capacity, so 1 491 events are overwritten where 4 were, and
        // fewer switch events survive (3 750, 3 637, 2 308 and 350 with
        // the host ring). Unbounded rings hold the same switch events as
        // before: 3 752 / 3 638 / 2 308 / 350.
        let count = |kind| dump.events.iter().filter(|e| e.ev.kind() == kind).count();
        let kinds = ["arrived", "route_decision", "credit_returned", "blocked"];
        assert_eq!(kinds.map(count), [3_426, 3_328, 2_123, 323]);
        assert_eq!(dump.overwritten_events, 1_491);
        let wedges: Vec<_> = dump.triggers.iter().map(|t| (t.at_ns, t.cause)).collect();
        assert_eq!(wedges, [(34_000, TriggerCause::SuspectedWedge); 2]);
    }

    #[test]
    fn faultless_spec_stays_unfrozen() {
        let spec = FlightRunSpec {
            fault_at_us: None,
            ..FlightRunSpec::default()
        };
        let (result, dump) = run_checked(&spec);
        assert_eq!(result.faults_injected, 0);
        assert!(!dump.frozen);
        assert!(dump.triggers.is_empty());
        assert!(!dump.events.is_empty());
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_perfetto("not json").is_err());
        assert!(validate_perfetto(r#"{"no": "traceEvents"}"#).is_err());
        assert!(
            validate_perfetto(r#"{"traceEvents": [{"name": "x", "pid": 0, "ts": 1.0}]}"#).is_err()
        );
        assert_eq!(validate_perfetto(r#"{"traceEvents": []}"#), Ok(0));
    }
}
