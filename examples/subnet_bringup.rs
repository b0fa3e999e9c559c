//! Subnet bring-up, end to end: the subnet manager discovers an unknown
//! fabric through directed-route SMPs, computes FA routes, uploads every
//! forwarding table in 64-entry blocks — and the resulting subnet then
//! carries adaptive traffic in simulation.
//!
//! This is the deployment story of §4.1: "Forwarding tables are filled
//! by the subnet manager at initialization time... the subnet manager
//! stores [the routing choices] in a range of addresses of the
//! forwarding tables, as if they were different destinations."
//!
//! ```text
//! cargo run --release --example subnet_bringup
//! ```

use iba_far::prelude::*;

fn main() -> Result<(), IbaError> {
    // The physical fabric: unknown to the SM until it sweeps it.
    let physical = IrregularConfig::paper(16, 2026).generate()?;
    println!("physical fabric : {}", TopologyMetrics::compute(&physical));

    // Bring-up: discovery → LID assignment → FA route computation →
    // block-wise LFT upload → read-back verification.
    let mut fabric = ManagedFabric::new(&physical, 2)?;
    let sm = SubnetManager::new(RoutingConfig::two_options());
    let up = sm.initialize(&mut fabric)?;
    println!(
        "discovery       : {} switches, {} hosts, {} links found with {} SMPs",
        up.discovered.switch_count(),
        up.discovered.host_count(),
        up.discovered.link_count(),
        up.discovered.smps_used
    );
    println!(
        "programming     : {} switches, {} LFT blocks, {} SMPs, verified = {}",
        up.report.switches, up.report.blocks_written, up.report.smps_used, up.report.verified
    );

    // APM coexistence (§4.1 footnote): double the LMC, program alternate
    // up*/down* paths in the upper half of every destination's range.
    let apm = FaRouting::build_with_apm(&up.topology, *up.routing.config())?;
    let h = HostId(5);
    println!(
        "APM tables      : LMC {} ({} addresses/port), primary root {}, alternate root {}",
        apm.lid_map().lmc().bits(),
        apm.lid_map().lmc().addresses_per_port(),
        apm.escape().root(),
        apm.apm_alt_root()
            .expect("APM tables carry an alternate root")
    );
    println!(
        "                  host {h}: primary DLID {}, APM alternate DLID {}",
        apm.dlid(h, false)?,
        apm.apm_dlid(h, false)?
    );

    // The programmed subnet carries traffic: simulate on the topology the
    // SM reconstructed (isomorphic to the physical one, with physical
    // port numbers — exactly what the uploaded tables were computed for).
    let spec = WorkloadSpec::uniform32(0.02);
    let mut net = Network::builder(&up.topology, &up.routing)
        .workload(spec)
        .config(SimConfig::paper(1))
        .build()?;
    let r = net.run();
    println!(
        "\ntraffic check   : {} delivered, avg latency {:.0} ns (p50 ≤ {} ns, p99 ≤ {} ns), {} reorderings",
        r.delivered,
        r.avg_latency_ns,
        r.p50_latency_ns.unwrap_or(0),
        r.p99_latency_ns.unwrap_or(0),
        r.order_violations
    );
    Ok(())
}
