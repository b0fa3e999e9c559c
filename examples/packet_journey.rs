//! Follow packets through the fabric with a journey capture — a flight
//! recorder whose rings never fill and which arms no trigger, so it
//! runs on any shard count: which read point served each packet at each
//! switch, whether it took an adaptive (minimal) hop or detoured through
//! an escape option, and what each stage cost. (`iba flightrec` shows
//! the other use of the recorder: bounded rings frozen by the stall
//! watchdog around a wedge.)
//!
//! ```text
//! cargo run --release --example packet_journey
//! ```

use iba_far::prelude::*;
use iba_far::types::{FlightEvent, StampedEvent};
use std::collections::BTreeMap;

fn main() -> Result<(), IbaError> {
    let topo = IrregularConfig::paper(16, 12).generate()?;
    let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
    println!("{}\n", TopologyMetrics::compute(&topo));

    // Drive the network past saturation so escape detours actually
    // occur, on two shards.
    let capture = RecorderOpts {
        capacity_per_switch: usize::MAX,
        trigger_on_drop: false,
        latency_threshold_ns: None,
        watchdog: None,
    };
    let mut net = Network::builder(&topo, &routing)
        .workload(WorkloadSpec::uniform32(0.06).with_adaptive_fraction(1.0))
        .config(SimConfig::test(4))
        .recorder(capture)
        .shards(2)
        .threads(2)
        .build()?;
    let result = net.run();
    println!(
        "run: {} delivered, avg latency {:.0} ns, {:.1}% escape forwards\n",
        result.delivered,
        result.avg_latency_ns,
        result.escape_fraction() * 100.0
    );

    // Every packet's events, in sequence order.
    let dump = net.flight_dump().expect("the capture is armed");
    let mut journeys: BTreeMap<PacketId, Vec<&StampedEvent>> = BTreeMap::new();
    for e in &dump.events {
        if let Some(id) = e.ev.packet() {
            journeys.entry(id).or_default().push(e);
        }
    }
    // (id, hops, escape hops, latency) of each delivered packet.
    let completed: Vec<(PacketId, usize, usize, u64)> = (journeys.iter())
        .filter_map(|(id, j)| {
            let (mut hops, mut escape) = (0, 0);
            for e in j {
                if let FlightEvent::RouteDecision { via_escape, .. } = e.ev {
                    hops += 1;
                    escape += usize::from(via_escape);
                }
            }
            let latency = j.iter().find_map(|e| match e.ev {
                FlightEvent::Delivered { latency_ns, .. } => Some(latency_ns),
                _ => None,
            })?;
            Some((*id, hops, escape, latency))
        })
        .collect();
    println!(
        "captured {} journeys ({} completed)\n",
        journeys.len(),
        completed.len()
    );

    // Show the fastest all-adaptive journey and the one with the most
    // escape detours.
    let show = |id: PacketId| {
        for e in &journeys[&id] {
            println!("{e}");
        }
    };
    let adaptive_only = completed.iter().filter(|c| c.2 == 0);
    if let Some(&(id, _, _, latency)) = adaptive_only.min_by_key(|c| c.3) {
        println!("== fastest all-adaptive journey ({id}, {latency} ns) ==");
        show(id);
    }
    if let Some(&(id, hops, escape, latency)) = completed.iter().max_by_key(|c| c.2) {
        println!(
            "\n== most escape detours ({id}: {escape} of {hops} hops via escape, {latency} ns) =="
        );
        show(id);
    }

    // Aggregate: how much longer are journeys that needed escape hops?
    let mean = |detoured: bool| {
        let lat: Vec<u64> = (completed.iter())
            .filter(|c| (c.2 > 0) == detoured)
            .map(|c| c.3)
            .collect();
        (lat.len(), lat.iter().sum::<u64>() / lat.len().max(1) as u64)
    };
    let ((ada_n, ada), (esc_n, esc)) = (mean(false), mean(true));
    println!(
        "\nall-adaptive journeys: {ada_n} (avg {ada} ns)   journeys with escape detours: {esc_n} (avg {esc} ns)"
    );

    // Count read-point usage across every routing decision.
    let (mut from_escape_head, mut total_hops) = (0u64, 0u64);
    for e in &dump.events {
        if let FlightEvent::RouteDecision {
            from_escape_head: fe,
            ..
        } = e.ev
        {
            total_hops += 1;
            from_escape_head += u64::from(fe);
        }
    }
    println!("read points: {total_hops} hops, {from_escape_head} served by the escape read point");
    Ok(())
}
