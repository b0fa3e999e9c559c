//! The fabric flight recorder, end to end: leave the always-on event
//! rings armed, wedge the network with an unrepaired link fault, let the
//! stall watchdog freeze the rings on its suspected-wedge verdict, and
//! inspect the evidence — the blocked packet's candidate options and the
//! stall classification — straight from the dump. Writes the same two
//! artifacts `iba flightrec` produces: a JSONL dump (for `iba trace`)
//! and a Chrome trace-event / Perfetto document.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```

use iba_far::prelude::*;
use iba_far::types::{FlightEvent, StallClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = IrregularConfig::paper(16, 3).generate()?;
    let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;

    // One switch–switch link dies at 20 µs and nobody repairs it:
    // packets whose escape path crossed it are stranded forever.
    let (a, b) = topo
        .switch_ids()
        .flat_map(|s| topo.switch_neighbors(s).map(move |(_, peer, _)| (s, peer)))
        .find(|(s, peer)| peer.0 > s.0)
        .expect("paper topologies have inter-switch links");
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b)?;

    let mut net = Network::builder(&topo, &routing)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(3))
        .faults(&schedule, RecoveryPolicy::None, 0)
        .recorder(RecorderOpts {
            // The drop trigger would freeze on the in-flight packets the
            // dying link kills; leave the watchdog to make the call.
            trigger_on_drop: false,
            watchdog: Some(WatchdogOpts {
                check_every_ns: 2_000,
                stall_after_ns: 10_000,
            }),
            ..RecorderOpts::default()
        })
        .build()?;
    let result = net.run();
    println!(
        "run: {} generated, {} delivered, {} lost in transit on the dying link",
        result.generated, result.delivered, result.drops_in_transit
    );

    let dump = net.flight_dump().expect("recorder was armed");
    println!(
        "\nflight dump: {} events, frozen = {}, {} ring entries overwritten",
        dump.events.len(),
        dump.frozen,
        dump.overwritten_events
    );
    for t in &dump.triggers {
        println!(
            "  trigger @ {} ns: {} at {} ({})",
            t.at_ns,
            t.cause.name(),
            t.sw.map_or_else(|| "host".into(), |s| s.to_string()),
            t.packet.map_or_else(|| "-".into(), |p| p.to_string()),
        );
    }

    // The watchdog's verdict, with the stuck packet's last candidate set.
    for e in &dump.events {
        if let FlightEvent::Stall {
            packet,
            port,
            vl,
            waited_ns,
            class,
        } = &e.ev
        {
            println!(
                "\n{} stalled on {port}/{vl} for {waited_ns} ns -> {}",
                packet,
                class.name()
            );
            if *class == StallClass::SuspectedWedge {
                for ev in dump.events_for_packet(*packet) {
                    if let FlightEvent::Blocked { options, .. } = &ev.ev {
                        print!("  last verdicts:");
                        for o in options.iter() {
                            print!(
                                "  {}{} {}",
                                o.port,
                                if o.escape { " (escape)" } else { "" },
                                o.verdict.name()
                            );
                        }
                        println!();
                    }
                }
            }
        }
    }

    // The artifacts: a JSONL dump for `iba trace`, a Perfetto document
    // for ui.perfetto.dev / chrome://tracing.
    std::fs::create_dir_all("results")?;
    std::fs::write("results/flight.jsonl", dump.to_jsonl())?;
    let trace = perfetto_trace(&dump);
    std::fs::write("results/flight.perfetto.json", trace.to_string_compact())?;
    println!("\nwrote results/flight.jsonl and results/flight.perfetto.json");
    println!("query:     cargo run --release --bin iba -- trace summary --in results/flight.jsonl");
    println!("visualise: load results/flight.perfetto.json at https://ui.perfetto.dev");
    Ok(())
}
