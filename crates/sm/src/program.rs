//! Forwarding-table programming.
//!
//! Once routes are computed, the subnet manager uploads every switch's
//! linear forwarding table in the spec's 64-entry blocks — one
//! `SubnSet(LinearForwardingTable)` per dirty block, sent along the
//! directed route discovery recorded. §4.1's compatibility promise is
//! exercised literally here: the SM writes a *linear* table; whether the
//! switch stores it interleaved (enhanced switch) or flat (plain switch)
//! is invisible at this interface.

use crate::discovery::DiscoveredFabric;
use crate::mad::{DirectedRoute, Smp, SmpAttribute, SmpMethod, SmpResponse};
use crate::managed::{ManagedFabric, LFT_BLOCK, LFT_LEN};
use crate::retry::{send_once, ReliableSender, SendOutcome};
use iba_core::{IbaError, Lid, PortIndex, ServiceLevel, SwitchId, VirtualLane};
use iba_routing::{EscapeEngine, FaRouting};
use std::collections::HashMap;

/// Outcome of a programming pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramReport {
    /// Switches programmed.
    pub switches: usize,
    /// Non-empty LFT blocks the routing tables contain (written + skipped
    /// as already up to date on the switch).
    pub blocks_total: u64,
    /// LFT blocks actually written.
    pub blocks_written: u64,
    /// SLtoVL rows written.
    pub sl2vl_rows_written: u64,
    /// SMPs spent (writes + verification reads).
    pub smps_used: u64,
    /// Whether read-back verification matched everything written.
    pub verified: bool,
}

/// What the programmer remembers about one switch across passes, keyed
/// by GUID. Only state whose upload was *verified delivered* is
/// recorded, so a lost or rejected write is always retried on the next
/// pass.
#[derive(Debug, Default)]
struct SwitchShadow {
    /// Content hash per LFT block number, as last verified on-switch.
    block_hashes: Vec<Option<u64>>,
    /// The SLtoVL identity grid has been fully programmed.
    sl2vl_done: bool,
    /// Management LID confirmed set.
    mgmt_lid: Option<Lid>,
}

/// Content hash of one LFT block, eight entries a step: each entry is
/// its port byte, `None` the byte a table cannot hold (0xFF), so
/// clearing an entry dirties the block; a short last word keeps a
/// leading 1 bit, so a block that shrank dirties it too. Every step is
/// a bijection of the running hash, so blocks that differ in one word
/// never collide.
fn block_hash(entries: &[Option<PortIndex>]) -> u64 {
    entries.chunks(8).fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
        let packed = (word.iter()).fold(1u64, |w, e| w << 8 | e.map_or(0xFF, |p| p.0 as u64));
        let h = (h ^ packed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ h >> 32
    })
}

/// The programming engine.
///
/// A `Programmer` is stateful across passes: it shadows, per switch
/// GUID, the hash of every LFT block it has verifiably uploaded plus
/// the SLtoVL/management-LID bring-up state. Re-programming through the
/// *same* `Programmer` therefore uploads only the blocks that changed —
/// the dirty-block diff that makes an incremental re-sweep cheap. A
/// fresh `Programmer` has an empty shadow and uploads everything.
pub struct Programmer {
    tid: u64,
    shadow: HashMap<u64, SwitchShadow>,
}

impl Programmer {
    /// Fresh engine.
    pub fn new() -> Programmer {
        Programmer {
            tid: 0,
            shadow: HashMap::new(),
        }
    }

    /// Forget everything shadowed: the next pass uploads every block.
    pub fn forget(&mut self) {
        self.shadow.clear();
    }

    /// Upload `routing`'s tables (computed on the *discovery-ordered*
    /// topology) onto the physical switches of `fabric`, then verify by
    /// reading every written block back. Every SMP is sent exactly once:
    /// a switch that does not answer is a hard error here.
    pub fn program<E: EscapeEngine>(
        &mut self,
        fabric: &mut ManagedFabric,
        discovered: &DiscoveredFabric,
        routing: &FaRouting<E>,
    ) -> Result<ProgramReport, IbaError> {
        let mut once = ReliableSender::new(send_once())?;
        let pass = self.program_robust(fabric, discovered, routing, &mut once)?;
        match pass.skipped.into_iter().next() {
            Some(lost) => Err(IbaError::InvalidConfig(lost)),
            None => Ok(pass.report),
        }
    }

    /// The loss-tolerant upload: every SMP rides `sender`'s retransmit
    /// loop. A switch that stops answering mid-upload is skipped (its
    /// remaining writes are abandoned and the skip recorded); a spent
    /// sweep budget stops the pass and flags it partial. Agents that
    /// *answer* but reject a write still hard-error — that is a bug,
    /// not a fault.
    pub fn program_robust<E: EscapeEngine>(
        &mut self,
        fabric: &mut ManagedFabric,
        discovered: &DiscoveredFabric,
        routing: &FaRouting<E>,
        sender: &mut ReliableSender,
    ) -> Result<RobustProgram, IbaError> {
        let mgmt_base = mgmt_lid_base(routing.lid_map().table_len(), discovered.switches.len())?;
        let before = fabric.smps_sent;
        let mut blocks_total = 0u64;
        let mut blocks_written = 0u64;
        let mut sl2vl_rows_written = 0u64;
        let mut verified = true;
        let mut skipped: Vec<String> = Vec::new();
        let mut partial = false;
        // One SMP is re-addressed per switch and re-filled per send, so
        // the directed route and the payloads are not copied per SMP.
        let mut smp = Smp {
            method: SmpMethod::Set,
            attribute: SmpAttribute::NodeInfo,
            route: DirectedRoute::local(),
            tid: 0,
            sl: ServiceLevel(0),
        };
        'switches: for (i, sw) in discovered.switches.iter().enumerate() {
            // One reusable closure-shaped helper would hide the control
            // flow; the explicit match per site keeps the three exits
            // (ok / skip switch / stop sweep) visible.
            macro_rules! deliver {
                ($method:expr, $what:expr) => {{
                    smp.method = $method;
                    self.tid += 1;
                    smp.tid = self.tid;
                    match sender.send(fabric, &smp) {
                        SendOutcome::Delivered(resp) => resp,
                        SendOutcome::Unreachable => {
                            skipped.push(format!("switch {i} stopped answering during {}", $what));
                            verified = false;
                            continue 'switches;
                        }
                        SendOutcome::BudgetExhausted => {
                            partial = true;
                            break 'switches;
                        }
                    }
                }};
            }
            smp.route.hops.clone_from(&sw.route.hops);
            let shadow = self.shadow.entry(sw.guid).or_default();
            // Blocks are read straight from the interleaved modules:
            // no linear copy of the table, no `Vec` per dirty block.
            let table = routing.table(SwitchId(i as u16));
            let mut read = [None; LFT_BLOCK];
            for block in 0..table.len().div_ceil(LFT_BLOCK) as u32 {
                let base = block as usize * LFT_BLOCK;
                let chunk = &mut read[..LFT_BLOCK.min(table.len() - base)];
                table.read_block(base, chunk);
                if chunk.iter().all(|e| e.is_none()) {
                    continue; // nothing programmed in this block
                }
                blocks_total += 1;
                let hash = block_hash(chunk);
                let verified_hash = shadow.block_hashes.get(block as usize);
                if verified_hash == Some(&Some(hash)) {
                    continue; // on-switch content already matches
                }
                // Refill the payload `Vec` the SMP holds, if it holds one.
                let mut entries = match &mut smp.attribute {
                    SmpAttribute::LinearForwardingTable { entries, .. } => std::mem::take(entries),
                    _ => Vec::new(),
                };
                entries.clear();
                entries.extend_from_slice(chunk);
                smp.attribute = SmpAttribute::LinearForwardingTable { block, entries };
                let resp = deliver!(SmpMethod::Set, format!("LFT block {block}"));
                if resp != SmpResponse::Ok {
                    return Err(IbaError::InvalidConfig(format!(
                        "LFT write rejected at switch {i} block {block}: {resp:?}"
                    )));
                }
                blocks_written += 1;
                // Read back and compare; a `Get` ignores the payload,
                // which stays where the next block refills it.
                let resp = deliver!(SmpMethod::Get, format!("LFT read-back of block {block}"));
                let SmpResponse::LftBlock { entries: got } = resp else {
                    return Err(IbaError::InvalidConfig("LFT read-back failed".into()));
                };
                let matches = chunk
                    .iter()
                    .enumerate()
                    .all(|(k, want)| want.is_none() || got.get(k) == Some(want));
                if matches {
                    let b = block as usize;
                    if shadow.block_hashes.len() <= b {
                        shadow.block_hashes.resize(b + 1, None);
                    }
                    shadow.block_hashes[b] = Some(hash);
                } else {
                    verified = false;
                }
            }
            // Program the identity SLtoVL mapping over one data VL for
            // every (input, output) port pair (§4.4 leaves the SLtoVL
            // machinery in its spec role; the evaluation runs on VL0).
            // The grid never changes, so a shadowed switch skips it.
            if !shadow.sl2vl_done {
                let ports = sw.ports.len() as u8;
                smp.attribute = SmpAttribute::SlToVlMappingTable {
                    input: PortIndex(0),
                    output: PortIndex(0),
                    vls: vec![VirtualLane(0); ServiceLevel::COUNT],
                };
                for i_port in 0..ports {
                    for o_port in 0..ports {
                        if let SmpAttribute::SlToVlMappingTable { input, output, .. } =
                            &mut smp.attribute
                        {
                            (*input, *output) = (PortIndex(i_port), PortIndex(o_port));
                        }
                        let resp =
                            deliver!(SmpMethod::Set, format!("SLtoVL row {i_port}->{o_port}"));
                        if resp != SmpResponse::Ok {
                            return Err(IbaError::InvalidConfig("SLtoVL write rejected".into()));
                        }
                        sl2vl_rows_written += 1;
                    }
                }
                shadow.sl2vl_done = true;
            }
            // Assign the switch's management LID (simple dense scheme
            // above the host ranges).
            let mgmt_lid = Lid(mgmt_base + i as u16);
            if shadow.mgmt_lid != Some(mgmt_lid) {
                smp.attribute = SmpAttribute::SwitchInfo { lid: mgmt_lid };
                let resp = deliver!(SmpMethod::Set, "SwitchInfo");
                if resp != SmpResponse::Ok {
                    return Err(IbaError::InvalidConfig("SwitchInfo set failed".into()));
                }
                shadow.mgmt_lid = Some(mgmt_lid);
            }
        }
        Ok(RobustProgram {
            report: ProgramReport {
                switches: discovered.switches.len() - skipped.len(),
                blocks_total,
                blocks_written,
                sl2vl_rows_written,
                smps_used: fabric.smps_sent - before,
                verified,
            },
            skipped,
            partial,
        })
    }
}

/// The first management LID: switch `i` is assigned `table_len + i`,
/// densely above the host ranges. The whole assignment must stay inside
/// the unicast space the agents' LFTs cover, or it is refused before an
/// SMP leaves.
fn mgmt_lid_base(table_len: usize, switches: usize) -> Result<u16, IbaError> {
    match table_len.checked_add(switches) {
        Some(end) if end <= LFT_LEN => Ok(table_len as u16),
        _ => Err(IbaError::LidSpaceExhausted),
    }
}

/// What a loss-tolerant programming pass produced.
#[derive(Clone, Debug)]
pub struct RobustProgram {
    /// The usual statistics, over the switches actually programmed.
    pub report: ProgramReport,
    /// Switches abandoned mid-upload (partition report entries).
    pub skipped: Vec<String>,
    /// `true` when the sweep budget ran out before the pass finished.
    pub partial: bool,
}

impl Default for Programmer {
    fn default() -> Self {
        Programmer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::Discoverer;
    use iba_routing::RoutingConfig;
    use iba_topology::IrregularConfig;

    /// A block differing from another in one entry, in being cleared, or
    /// in its length alone hashes differently.
    #[test]
    fn block_hash_tells_apart_one_entry_a_clear_and_a_length() {
        let p = |v: u8| Some(PortIndex(v));
        let blocks: [&[Option<PortIndex>]; 6] = [
            &[p(0), p(5)],
            &[p(5)],
            &[p(5), None],
            &[p(5), p(0)],
            &[p(0); 64],
            &[p(0); 63],
        ];
        for (i, a) in blocks.iter().enumerate() {
            for b in &blocks[i + 1..] {
                assert_ne!(block_hash(a), block_hash(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn programming_uploads_exactly_the_routing_tables() {
        let topo = IrregularConfig::paper(8, 4).generate().unwrap();
        let mut fabric = ManagedFabric::new(&topo, 2).unwrap();
        let discovered = Discoverer::new().discover(&mut fabric).unwrap();
        let rebuilt = discovered.to_topology().unwrap();
        let routing = FaRouting::build(&rebuilt, RoutingConfig::two_options()).unwrap();
        let report = Programmer::new()
            .program(&mut fabric, &discovered, &routing)
            .unwrap();
        assert!(report.verified);
        assert_eq!(report.switches, 8);
        assert!(report.blocks_written > 0);

        // Every agent's table must match the computed table entry-wise
        // over the assigned LID range.
        for (i, sw) in discovered.switches.iter().enumerate() {
            // Map the discovered switch back to its physical agent by
            // GUID (test-side correlation only).
            let agent_sw = topo
                .switch_ids()
                .find(|&s| fabric.agent(s).guid == sw.guid)
                .unwrap();
            let want = routing.table(SwitchId(i as u16)).linear_view();
            for (lid, entry) in want.iter().enumerate() {
                if entry.is_some() {
                    assert_eq!(
                        fabric.agent(agent_sw).lft.get(Lid(lid as u16)),
                        *entry,
                        "switch {i}, lid {lid}"
                    );
                }
            }
            // Management LID assigned.
            assert_ne!(fabric.agent(agent_sw).lid, Lid(0));
        }
    }

    #[test]
    fn reprogramming_through_the_same_programmer_uploads_nothing() {
        let topo = IrregularConfig::paper(8, 4).generate().unwrap();
        let mut fabric = ManagedFabric::new(&topo, 2).unwrap();
        let discovered = Discoverer::new().discover(&mut fabric).unwrap();
        let rebuilt = discovered.to_topology().unwrap();
        let routing = FaRouting::build(&rebuilt, RoutingConfig::two_options()).unwrap();
        let mut programmer = Programmer::new();
        let first = programmer
            .program(&mut fabric, &discovered, &routing)
            .unwrap();
        assert!(first.verified);
        assert_eq!(first.blocks_total, first.blocks_written);

        // Identical content: the shadow makes the second pass free.
        let second = programmer
            .program(&mut fabric, &discovered, &routing)
            .unwrap();
        assert_eq!(second.blocks_written, 0);
        assert_eq!(second.blocks_total, first.blocks_total);
        assert_eq!(second.sl2vl_rows_written, 0);
        assert_eq!(second.smps_used, 0);

        // After forgetting, everything is uploaded again.
        programmer.forget();
        let third = programmer
            .program(&mut fabric, &discovered, &routing)
            .unwrap();
        assert_eq!(third, first);
    }

    #[test]
    fn fresh_programmer_matches_legacy_full_upload() {
        // A stateless pass (fresh engine) is byte-for-byte the old
        // behavior: every non-empty block written.
        let topo = IrregularConfig::paper(8, 9).generate().unwrap();
        let mut fabric = ManagedFabric::new(&topo, 2).unwrap();
        let discovered = Discoverer::new().discover(&mut fabric).unwrap();
        let rebuilt = discovered.to_topology().unwrap();
        let routing = FaRouting::build(&rebuilt, RoutingConfig::two_options()).unwrap();
        let report = Programmer::new()
            .program(&mut fabric, &discovered, &routing)
            .unwrap();
        assert_eq!(report.blocks_total, report.blocks_written);
    }

    #[test]
    fn management_lids_must_fit_the_unicast_space() {
        // The last management LID is `table_len + switches - 1`; 0xBFFF
        // (the last unicast LID, and the last entry of an agent's LFT)
        // is the highest it may be.
        assert_eq!(LFT_LEN - 1, 0xBFFF);
        assert_eq!(mgmt_lid_base(LFT_LEN - 8, 8).unwrap(), 0xBFF8);
        assert_eq!(
            mgmt_lid_base(LFT_LEN - 8, 9),
            Err(IbaError::LidSpaceExhausted)
        );
        // A LID map may span the whole 16-bit space: what used to wrap
        // to LID 0 in release builds is refused.
        assert_eq!(
            mgmt_lid_base(u16::MAX as usize, 1),
            Err(IbaError::LidSpaceExhausted)
        );
        assert_eq!(
            mgmt_lid_base(usize::MAX, 1),
            Err(IbaError::LidSpaceExhausted)
        );
    }

    #[test]
    fn oversized_lid_plan_is_refused_before_any_smp() {
        // 400 hosts x 128 addresses: a legal 16-bit LID map whose table
        // alone passes the unicast top, leaving the switches no LID.
        let topo = iba_topology::regular::ring(8, 50).unwrap();
        let mut fabric = ManagedFabric::new(&topo, 2).unwrap();
        let discovered = Discoverer::new().discover(&mut fabric).unwrap();
        let rebuilt = discovered.to_topology().unwrap();
        let routing = FaRouting::build(&rebuilt, RoutingConfig::with_options(128)).unwrap();
        assert!(routing.lid_map().table_len() > LFT_LEN);
        let sent = fabric.smps_sent;
        let refused = Programmer::new().program(&mut fabric, &discovered, &routing);
        assert_eq!(refused, Err(IbaError::LidSpaceExhausted));
        assert_eq!(fabric.smps_sent, sent, "an SMP left before the refusal");
    }

    #[test]
    fn interleaved_and_flat_agents_program_identically() {
        // §4.1: the SM's byte stream is the same whether the switch
        // stores its LFT flat (fanout 1) or interleaved (fanout 4).
        let topo = IrregularConfig::paper(8, 7).generate().unwrap();
        let mut reports = Vec::new();
        for fanout in [1u16, 4] {
            let mut fabric = ManagedFabric::new(&topo, fanout).unwrap();
            let discovered = Discoverer::new().discover(&mut fabric).unwrap();
            let rebuilt = discovered.to_topology().unwrap();
            let routing = FaRouting::build(&rebuilt, RoutingConfig::with_options(4)).unwrap();
            let report = Programmer::new()
                .program(&mut fabric, &discovered, &routing)
                .unwrap();
            assert!(report.verified, "fanout {fanout}");
            reports.push(report);
        }
        assert_eq!(reports[0].blocks_written, reports[1].blocks_written);
        assert_eq!(reports[0].smps_used, reports[1].smps_used);
    }
}
