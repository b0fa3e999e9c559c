//! The Fully Adaptive (FA) routing function, materialized into IBA
//! forwarding tables.
//!
//! FA (§3) extends a deadlock-free base routing — any
//! [`EscapeEngine`]; up\*/down\* by default — with fully adaptive
//! *minimal* options: when a packet is routed, any minimal output port
//! whose downstream adaptive queue has room may be taken; the escape
//! option is always available. Under virtual cut-through a packet may
//! return to adaptive queues after using an escape queue, and livelock
//! is avoided by preferring the (minimal) adaptive options.
//!
//! [`FaRouting::build`] compiles this routing function into one
//! [`InterleavedForwardingTable`] per switch, exactly as the paper's
//! subnet manager would (§4.1): each destination port owns
//! `x = 2^LMC` consecutive LIDs; address `d` (offset 0) is programmed
//! with the escape next hop, addresses `d+1 .. d+x−1` with minimal
//! options. When a destination has more minimal options than adaptive
//! slots, a deterministic seed-mixed rotation picks which ones are
//! stored — different switches favour different options, balancing load.
//! When it has fewer, the available options are repeated (the lookup
//! de-duplicates).
//!
//! The escape layer is a type parameter: `FaRouting<E>` is FA over any
//! [`EscapeEngine`] (up\*/down\* on arbitrary graphs, dateline-free
//! dimension-order on tori, direct routing on full meshes, ...). The
//! default `FaRouting` = `FaRouting<UpDownRouting>` reproduces the
//! paper's stack bit for bit — the golden LFT pins in
//! `crates/routing/tests/golden_lft.rs` hold across the trait boundary.
//!
//! What a switch executes does not name the engine: the compiled half
//! of a routing is the non-generic [`FaTables`], which `FaRouting<E>`
//! dereferences to. A simulator holds tables through [`TableSource`]
//! and asks it for new ones only when a re-sweep
//! ([`FaRouting::resweep`]) completes.

use crate::analysis::check_escape_rows;
use crate::columns::per_item;
use crate::engine::EscapeEngine;
use crate::minimal::MinimalRouting;
use crate::table::InterleavedForwardingTable;
use crate::updown::UpDownRouting;
use iba_core::{
    par_chunks_mut, HostId, IbaError, InlineVec, Lid, LidMap, PortIndex, SwitchId, MAX_PORTS,
};
use iba_topology::Topology;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Configuration of the FA table construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Total routing options (= forwarding-table addresses) per
    /// destination port: 1 escape + `table_options − 1` adaptive slots.
    /// The paper's "two routing options" is `2`, "up to four" is `4`.
    /// Must be a power of two so the LMC interleaving works; 1 disables
    /// adaptivity entirely (pure escape routing).
    pub table_options: u16,
    /// Seed for the option-balancing rotation.
    pub seed: u64,
    /// Optional explicit escape-engine frame anchor (the up\*/down\*
    /// root; default: the engine picks — min eccentricity for
    /// up\*/down\*).
    pub root: Option<SwitchId>,
}

impl RoutingConfig {
    /// The paper's default: two routing options (escape + one adaptive).
    pub fn two_options() -> RoutingConfig {
        RoutingConfig {
            table_options: 2,
            seed: 0,
            root: None,
        }
    }

    /// `x` routing options.
    pub fn with_options(table_options: u16) -> RoutingConfig {
        RoutingConfig {
            table_options,
            ..RoutingConfig::two_options()
        }
    }
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig::two_options()
    }
}

/// The adaptive option list of one table access, stored inline: after
/// de-duplication it can never exceed the switch radix, which
/// [`FaRouting`] validates against [`MAX_PORTS`] at build time.
pub(crate) type AdaptiveOptions = InlineVec<PortIndex, MAX_PORTS>;

/// The routing options a switch offers one packet — the decoded result of
/// the forwarding-table access.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RouteOptions {
    /// The escape option; always present.
    pub escape: PortIndex,
    /// Adaptive (minimal) options; empty for deterministic requests.
    /// Inline (no heap) so the simulator's per-hop decode stays
    /// allocation-free.
    pub adaptive: AdaptiveOptions,
}

/// FA routing compiled for one topology: the engines it was computed
/// with and the [`FaTables`] they compiled to, which it dereferences
/// to. Generic over the escape layer `E`; the default is the paper's
/// up\*/down\*.
#[derive(Clone, Debug)]
pub struct FaRouting<E: EscapeEngine = UpDownRouting> {
    compiled: FaTables,
    escape: E,
    minimal: MinimalRouting,
}

/// What a subnet manager uploads and a switch executes: the LID
/// assignment plus one interleaved forwarding table per switch and its
/// decode. No engine is named — tables are bytes — so the simulator
/// holds this type, whatever escape layer computed it.
#[derive(Clone, Debug)]
pub struct FaTables {
    config: RoutingConfig,
    lid_map: LidMap,
    tables: Vec<InterleavedForwardingTable>,
    /// Which switches support the adaptive mechanism (§4.2 allows mixing
    /// enhanced and plain deterministic switches in one subnet).
    adaptive_capable: Vec<bool>,
    /// `Some(x)` when the tables implement *source-selected multipath*
    /// over `x` deterministic path variants instead of switch adaptivity.
    source_multipath: Option<u16>,
    /// APM coexistence (§4.1 footnote): `Some` when the upper half of
    /// every destination's LID range holds an *alternate* path set.
    apm: Option<ApmInfo>,
    /// Precomputed decode of every (switch, DLID) table access, shared by
    /// reference — the simulator resolves millions of routes per run and
    /// must not re-derive (and re-allocate) the option lists each time.
    route_cache: RouteCache,
}

/// The decoded forwarding state. Identical decodes are *interned* (escape
/// chains converge: a fabric has a few dozen distinct ones) and every
/// (switch, DLID) holds only a slot number, so cloning or dropping a
/// routing copies or frees one flat array, not a reference count per entry.
#[derive(Clone, Debug, Default)]
struct RouteCache {
    /// DLIDs per switch (the LID map's table length).
    stride: usize,
    /// `slots[s * stride + dlid]` indexes `pool`; [`NO_ROUTE`] marks an
    /// unprogrammed entry.
    slots: Vec<u32>,
    /// The distinct decodes.
    pool: Vec<Arc<RouteOptions>>,
    /// Stamp of this filling of `slots`, carried by every [`RouteId`]
    /// issued from it; zero until the first fill.
    stamp: u32,
}

const NO_ROUTE: u32 = u32::MAX;

/// The last stamp a [`RouteCache`] fill took, process-wide. Stamps are
/// only compared for equality, so the order threads fill in is invisible.
static LAST_STAMP: AtomicU32 = AtomicU32::new(0);

/// One decode of one table set, by number: what a buffered packet holds
/// instead of an `Arc` clone, so a hop touches no reference count that
/// another thread's simulation shares. Issued by [`FaTables::route_id`]
/// alone and resolved by [`FaTables::route_by_id`] of the *same* tables
/// (a clone included); on any others resolving panics instead of
/// returning some other decode. The default id resolves on none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteId {
    slot: u32,
    stamp: u32,
}

impl RouteCache {
    /// The id of one table access, if programmed. Inlined into
    /// `route_id`, which other crates instantiate on the per-hop path.
    #[inline]
    fn id(&self, s: SwitchId, dlid: Lid) -> Option<RouteId> {
        let lid = dlid.raw() as usize;
        if lid >= self.stride {
            return None;
        }
        let (slot, stamp) = (self.slots[s.index() * self.stride + lid], self.stamp);
        (slot != NO_ROUTE).then_some(RouteId { slot, stamp })
    }
}

/// Distinct decodes numbered in the order they were first seen.
struct Interner {
    pool: Vec<Arc<RouteOptions>>,
    index: HashMap<Arc<RouteOptions>, u32>,
    /// A direct-mapped memo on the leading ports answers the usual
    /// repeat with one comparison; the map keeps interning O(1) when a
    /// full mesh yields thousands of distinct decodes.
    memo: [u32; 256],
    /// A direct-mapped memo of whole groups: a packed table row (see
    /// `InterleavedForwardingTable::packed_row`) and the numbers of its
    /// two decodes. A key names one row because every table of a build
    /// has the same fanout. It starts filled with the all-unprogrammed row of
    /// fanout 4, whose decodes are indeed none, and no narrower row packs
    /// to that key.
    groups: [(u32, [u32; 2]); 256],
}

impl Interner {
    fn new() -> Interner {
        Interner {
            pool: Vec::new(),
            index: HashMap::new(),
            memo: [NO_ROUTE; 256],
            groups: [(u32::MAX, [NO_ROUTE; 2]); 256],
        }
    }

    fn intern(&mut self, opts: &RouteOptions) -> u32 {
        let first = opts.adaptive.first().map_or(0, |p| p.0 as usize + 1);
        let recent = (opts.escape.0 as usize * 16 + first) % 256;
        if (self.pool.get(self.memo[recent] as usize)).is_none_or(|r| **r != *opts) {
            self.memo[recent] = match self.index.get(opts) {
                Some(&slot) => slot,
                None => self.adopt(Arc::new(opts.clone())),
            };
        }
        self.memo[recent]
    }

    /// The number of a decode that is already shared.
    fn adopt(&mut self, opts: Arc<RouteOptions>) -> u32 {
        *self.index.entry(opts).or_insert_with_key(|opts| {
            self.pool.push(opts.clone());
            self.pool.len() as u32 - 1
        })
    }
}

/// Decode every access of one switch's table into its `slots`, LID
/// group by LID group. At an adaptive-capable switch one read of a
/// group yields both decodes its addresses can have: the escape entry
/// alone (least-significant bit clear), the whole group (set). A plain
/// IBA switch forwards linearly by the exact DLID — which is what lets
/// source-selected multipath address a path per address of a range.
///
/// The two decodes of a group depend on its row bytes alone, so a row
/// seen before is looked up in `Interner::groups` rather than decoded and
/// interned again; interning is idempotent, so the numbering is the same.
fn cache_switch(
    table: &InterleavedForwardingTable,
    adaptive_capable: bool,
    slots: &mut [u32],
    decodes: &mut Interner,
) {
    let x = table.fanout() as usize;
    let mut opts = RouteOptions {
        escape: PortIndex(0),
        adaptive: AdaptiveOptions::new(),
    };
    if adaptive_capable {
        debug_assert!(slots.len().is_multiple_of(x));
        for (g, group) in slots.chunks_mut(x).enumerate() {
            let row = table.packed_row(g);
            let m = row.map_or(0, |row| (row.wrapping_mul(0x9E37_79B1) >> 24) as usize);
            let pair = match decodes.groups[m] {
                (seen, pair) if Some(seen) == row => pair,
                _ => {
                    let probe = Lid(((g * x) | usize::from(x > 1)) as u16);
                    let pair = match table.group(probe) {
                        (None, _) => [NO_ROUTE; 2],
                        (Some(escape), adaptive) => {
                            opts.escape = escape;
                            opts.adaptive.clear();
                            let deterministic = decodes.intern(&opts);
                            opts.adaptive.extend(adaptive);
                            [deterministic, decodes.intern(&opts)]
                        }
                    };
                    if let Some(row) = row {
                        decodes.groups[m] = (row, pair);
                    }
                    pair
                }
            };
            for (offset, slot) in group.iter_mut().enumerate() {
                *slot = pair[offset & 1];
            }
        }
    } else {
        for (dlid, slot) in slots.iter_mut().enumerate() {
            *slot = match table.get(Lid(dlid as u16)) {
                None => NO_ROUTE,
                Some(escape) => {
                    opts.escape = escape;
                    decodes.intern(&opts)
                }
            };
        }
    }
}

/// APM bookkeeping.
#[derive(Clone, Copy, Debug)]
struct ApmInfo {
    /// First LID offset of the alternate (APM) half.
    base_offset: u16,
    /// Frame anchor of the alternate escape orientation.
    alt_root: SwitchId,
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

impl<E: EscapeEngine> Deref for FaRouting<E> {
    type Target = FaTables;

    fn deref(&self) -> &FaTables {
        &self.compiled
    }
}

/// The one seam from a simulator to the control plane: the tables a
/// fabric was programmed with, and the re-sweep that replaces them.
/// Object-safe, so a simulation holds a `&dyn TableSource` and names no
/// escape engine; it calls neither method per hop.
pub trait TableSource: Sync {
    /// The tables the fabric was programmed with.
    fn tables(&self) -> &FaTables;

    /// [`FaRouting::resweep`] for `degraded`: the tables of the pinned,
    /// certified rebuild, or why it was refused.
    fn resweep_tables(&self, degraded: &Topology) -> Result<FaTables, IbaError>;
}

impl<E: EscapeEngine> TableSource for FaRouting<E> {
    fn tables(&self) -> &FaTables {
        &self.compiled
    }

    fn resweep_tables(&self, degraded: &Topology) -> Result<FaTables, IbaError> {
        self.resweep(degraded).map(|r| r.compiled)
    }
}

/// The four canonical constructors on the **default** (up\*/down\*)
/// instantiation. Kept on the concrete type so the ~hundred existing
/// call sites (`FaRouting::build(&topo, cfg)`) need no turbofish; the
/// generic spellings live in the `impl<E: EscapeEngine>` block below.
impl FaRouting {
    /// Compile FA-over-up\*/down\* with every switch adaptive-capable.
    pub fn build(topo: &Topology, config: RoutingConfig) -> Result<FaRouting, IbaError> {
        Self::build_with_engine(topo, config)
    }

    /// Compile FA-over-up\*/down\* for a *mixed* fabric (§4.2). See
    /// [`Self::build_mixed_with_engine`].
    pub fn build_mixed(
        topo: &Topology,
        config: RoutingConfig,
        adaptive_capable: &[bool],
    ) -> Result<FaRouting, IbaError> {
        Self::build_mixed_with_engine(topo, config, adaptive_capable)
    }

    /// Compile FA-over-up\*/down\* with APM coexistence. See
    /// [`Self::build_apm_with_engine`].
    pub fn build_with_apm(topo: &Topology, config: RoutingConfig) -> Result<FaRouting, IbaError> {
        Self::build_apm_with_engine(topo, config)
    }

    /// Compile source-selected multipath tables over up\*/down\*
    /// variants. See [`Self::build_source_multipath_with_engine`].
    pub fn build_source_multipath(
        topo: &Topology,
        config: RoutingConfig,
    ) -> Result<FaRouting, IbaError> {
        Self::build_source_multipath_with_engine(topo, config)
    }
}

impl<E: EscapeEngine> FaRouting<E> {
    /// Compile FA over escape engine `E` with every switch
    /// adaptive-capable.
    pub fn build_with_engine(topo: &Topology, config: RoutingConfig) -> Result<Self, IbaError> {
        Self::layers(topo, config, 1)?.compile(topo, None)
    }

    /// Everything of a routing but its tables: the LID map for
    /// `path_sets` groups of `table_options` addresses per host, the
    /// minimal layer, and the escape engine anchored where the
    /// configuration says — by default at the fabric's center, read off
    /// the distances the minimal layer already holds. Every switch
    /// starts adaptive-capable.
    fn layers(topo: &Topology, config: RoutingConfig, path_sets: u16) -> Result<Self, IbaError> {
        // The inline option lists of `RouteOptions` (and the simulator's
        // candidate sets) hold an entry per port of a supported radix.
        let ports = topo.ports_per_switch() as usize;
        if ports > MAX_PORTS {
            return Err(IbaError::InvalidConfig(format!(
                "switch radix {ports} exceeds the supported maximum {MAX_PORTS}"
            )));
        }
        let x = config.table_options;
        if !x.is_power_of_two() {
            return Err(IbaError::InvalidOptionCount(x));
        }
        let addresses = x
            .checked_mul(path_sets)
            .ok_or(IbaError::InvalidOptionCount(x))?;
        let hosts = u16::try_from(topo.num_hosts()).map_err(|_| IbaError::LidSpaceExhausted)?;
        let lid_map = LidMap::for_options(hosts, addresses)?;
        let minimal = MinimalRouting::build(topo)?;
        let escape = E::build_with_root(topo, config.root.unwrap_or_else(|| minimal.center()))?;
        Ok(FaRouting {
            compiled: FaTables {
                config,
                lid_map,
                tables: Vec::new(),
                adaptive_capable: vec![true; topo.num_switches()],
                source_multipath: None,
                apm: None,
                route_cache: RouteCache::default(),
            },
            escape,
            minimal,
        })
    }

    /// Allocate every switch's table, program every host's LID groups
    /// into it — the alternate path set through `alternate`, for APM
    /// tables — and decode every table access into the route cache.
    ///
    /// Switches are shared out in pool items (`crate::columns`), each
    /// with a route pool of its own; adopting those in switch order
    /// numbers every decode as one sequential pass would — by first
    /// appearance in `(switch, DLID)` order — whatever the worker count.
    fn compile(mut self, topo: &Topology, alternate: Option<&E>) -> Result<Self, IbaError> {
        let stride = self.lid_map.table_len();
        let mut tables = (0..topo.num_switches())
            .map(|_| InterleavedForwardingTable::new(stride, self.config.table_options))
            .collect::<Result<Vec<_>, _>>()?;
        let mut slots = vec![NO_ROUTE; tables.len() * stride];
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let plan = RowPlan {
            fa: &self,
            topo,
            mixed: self.adaptive_capable.contains(&false),
            layers: std::iter::once((0, &self.escape))
                .chain(alternate.map(|alt| (self.config.table_options, alt)))
                .collect(),
        };
        // A switch's share of the work is a cell per destination switch
        // (the hosts of one have consecutive ids).
        let destinations = hosts.chunk_by(|&a, &b| topo.host_switch(a) == topo.host_switch(b));
        let per_item = per_item(destinations.count());
        let mut switches: Vec<_> = (tables.iter_mut())
            .zip(slots.chunks_mut(stride))
            .zip(topo.switch_ids())
            .map(|((table, slots), s)| SwitchRows { s, table, slots })
            .collect();
        let items = par_chunks_mut(&mut switches, per_item, |switches| {
            plan.program(switches, &hosts)?;
            let mut decodes = Interner::new();
            for SwitchRows { s, table, slots } in switches {
                cache_switch(table, self.adaptive_capable[s.index()], slots, &mut decodes);
            }
            Ok(decodes)
        });
        // The first item's numbering stands as it is; every later item's
        // pool is adopted into it and that item's slots renumbered.
        let mut decodes: Option<Interner> = None;
        let mut renumbered = Vec::with_capacity(items.len());
        for item in items {
            let local: Interner = item?;
            renumbered.push(match &mut decodes {
                None => {
                    decodes = Some(local);
                    None
                }
                Some(held) => Some(Vec::from_iter(
                    local.pool.into_iter().map(|d| held.adopt(d)),
                )),
            });
        }
        let mut stale: Vec<(&mut [u32], Vec<u32>)> = slots
            .chunks_mut(per_item * stride)
            .zip(renumbered)
            .filter_map(|(rows, renumbered)| Some((rows, renumbered?)))
            .collect();
        par_chunks_mut(&mut stale, 1, |stale| {
            for (rows, renumbered) in stale {
                for slot in rows.iter_mut().filter(|slot| **slot != NO_ROUTE) {
                    *slot = renumbered[*slot as usize];
                }
            }
        });
        drop(plan);
        self.compiled.tables = tables;
        self.compiled.route_cache = RouteCache {
            stride,
            slots,
            pool: decodes.map_or_else(Vec::new, |held| held.pool),
            stamp: LAST_STAMP.fetch_add(1, Ordering::Relaxed) + 1,
        };
        Ok(self)
    }

    /// Compile FA routing for a *mixed* fabric (§4.2): switches with
    /// `adaptive_capable[s] == false` are plain deterministic IBA
    /// switches. Per the paper, their forwarding tables are programmed
    /// with "all the table addresses that correspond to the same
    /// destination port with the same switch output port" — the escape
    /// hop.
    ///
    /// Additionally, adaptive slots at *capable* switches only store
    /// minimal options whose next hop is another capable switch (or the
    /// destination host): a deterministic switch's buffer has no escape
    /// read point, so its drainage is only guaranteed when every packet
    /// it holds continues a legal escape chain — which is exactly
    /// the case when packets enter it via escape options only.
    pub fn build_mixed_with_engine(
        topo: &Topology,
        config: RoutingConfig,
        adaptive_capable: &[bool],
    ) -> Result<Self, IbaError> {
        if adaptive_capable.len() != topo.num_switches() {
            return Err(IbaError::InvalidConfig(format!(
                "capability vector has {} entries for {} switches",
                adaptive_capable.len(),
                topo.num_switches()
            )));
        }
        let mut fa = Self::layers(topo, config, 1)?;
        fa.compiled
            .adaptive_capable
            .copy_from_slice(adaptive_capable);
        fa.compile(topo, None)
    }

    /// Compile FA routing with **Automatic Path Migration coexistence**
    /// (§4.1, footnote 3): each destination's LID range doubles to
    /// `2 × table_options`; the top LMC bit selects the *path set*. The
    /// lower half is the ordinary FA group (escape + minimal adaptive
    /// options); the upper half is an equally-shaped group whose escape
    /// is an **alternate** orientation of the same engine, anchored at
    /// the switch farthest from the primary anchor — the independent
    /// path a CA migrates to on failure. The switch's interleave fanout
    /// stays `table_options`, so each half forms its own
    /// deterministic/adaptive group and "the APM mechanism uses
    /// different LIDs from those used for adaptive routing".
    ///
    /// Deadlock discipline: the two escape orientations are only jointly
    /// safe when they do not share virtual lanes. Keep primary and
    /// alternate traffic on SLs that map to different VLs (the simulator
    /// validates this for scripted traffic).
    pub fn build_apm_with_engine(topo: &Topology, config: RoutingConfig) -> Result<Self, IbaError> {
        let mut fa = Self::layers(topo, config, 2)?;
        // Alternate orientation: anchored at the switch farthest from
        // the primary anchor (ties to the lowest id).
        let dist = topo.distances_from(fa.escape.root());
        let alt_root = topo
            .switch_ids()
            .max_by_key(|s| (dist[s.index()], std::cmp::Reverse(s.0)))
            .ok_or_else(|| IbaError::InvalidTopology("empty topology".into()))?;
        let alternate = E::build_with_root(topo, alt_root)?;
        fa.compiled.apm = Some(ApmInfo {
            base_offset: config.table_options,
            alt_root,
        });
        fa.compile(topo, Some(&alternate))
    }

    /// Compile *source-selected multipath* tables — the IBA-compatible
    /// alternative the paper's introduction dismisses: "IBA allows the
    /// use of alternative paths between any source-destination pair. The
    /// final path can be selected at each source node... However, by
    /// using alternative paths selected at the source node, the overall
    /// network performance is hardly improved."
    ///
    /// Plain (unmodified) switches forward linearly by the packet's exact
    /// DLID; each of a destination's `x` addresses is programmed with a
    /// *different deterministic* variant of the escape engine (the k-th
    /// consistent next-hop choice at every switch, per
    /// [`EscapeEngine::next_hop_variants`]), and sources rotate over the
    /// addresses per packet. All variants are legal moves of one
    /// orientation, so any mixture stays deadlock-free. Engines without
    /// a variant structure degrade to `x` copies of the single escape
    /// path.
    pub fn build_source_multipath_with_engine(
        topo: &Topology,
        config: RoutingConfig,
    ) -> Result<Self, IbaError> {
        let mut fa = Self::layers(topo, config, 1)?;
        fa.compiled.adaptive_capable.fill(false);
        fa.compiled.source_multipath = Some(config.table_options);
        fa.compile(topo, None)
    }

    /// The one re-sweep: the same kind of tables — plain or mixed by the
    /// switches' capabilities, APM, source-selected multipath — rebuilt
    /// from scratch for `degraded` with the escape root pinned where it
    /// is (an unpinned rebuild may elect another root and rewrite every
    /// block), and refused — an error, never tables — unless every
    /// escape path, the APM alternate set's included, certifies
    /// deadlock-free. What the subnet manager uploads and the simulator
    /// installs after a fault.
    pub fn resweep(&self, degraded: &Topology) -> Result<Self, IbaError> {
        let pinned = RoutingConfig {
            root: Some(self.escape.root()),
            ..self.config
        };
        let routing = if self.apm.is_some() {
            Self::build_apm_with_engine(degraded, pinned)
        } else if self.source_multipath.is_some() {
            Self::build_source_multipath_with_engine(degraded, pinned)
        } else {
            Self::build_mixed_with_engine(degraded, pinned, &self.adaptive_capable)
        }?;
        routing.certify_escape(degraded, false)?;
        if routing.has_apm() {
            routing.certify_escape(degraded, true)?;
        }
        Ok(routing)
    }

    /// The escape-layer engine.
    pub fn escape(&self) -> &E {
        &self.escape
    }

    /// The minimal-option analysis the adaptive slots were filled from.
    pub fn minimal(&self) -> &MinimalRouting {
        &self.minimal
    }
}

impl FaTables {
    /// Whether the tables carry an APM alternate path set.
    #[inline]
    pub fn has_apm(&self) -> bool {
        self.apm.is_some()
    }

    /// Frame anchor of the alternate orientation, if APM is provisioned.
    pub fn apm_alt_root(&self) -> Option<SwitchId> {
        self.apm.map(|a| a.alt_root)
    }

    /// The DLID addressing `host` through the **alternate** (APM) path
    /// set, deterministic or adaptive.
    #[inline]
    pub fn apm_dlid(&self, host: HostId, adaptive: bool) -> Result<Lid, IbaError> {
        let apm = self
            .apm
            .ok_or_else(|| IbaError::InvalidConfig("tables have no APM half".into()))?;
        if adaptive && self.config.table_options < 2 {
            return Err(IbaError::AdaptiveNeedsLmc);
        }
        self.lid_map
            .lid_for(host, apm.base_offset + u16::from(adaptive))
    }

    /// Certify the escape paths of these tables with
    /// [`crate::check_escape_routes`], reading the route cache in place; with
    /// `alternate` set, those of the APM alternate path set (an error
    /// on tables without one). The escape hops are gathered switch by
    /// switch, in one sequential pass over the cache.
    pub fn certify_escape(&self, topo: &Topology, alternate: bool) -> Result<(), IbaError> {
        let offset = match (alternate, self.apm) {
            (false, _) => 0,
            (true, Some(apm)) => apm.base_offset,
            (true, None) => return Err(IbaError::InvalidConfig("tables have no APM half".into())),
        };
        let RouteCache {
            stride,
            slots,
            pool,
            ..
        } = &self.route_cache;
        let escape: Vec<PortIndex> = pool.iter().map(|r| r.escape).collect();
        let dlids: Vec<usize> = (topo.host_ids())
            .map(|h| (self.lid_map.base_lid(h).raw() + offset) as usize)
            .collect();
        let n = topo.num_switches();
        let mut rows = vec![None; dlids.len() * n];
        for (s, slots) in slots.chunks(*stride).take(n).enumerate() {
            for (h, dlid) in dlids.iter().enumerate() {
                let slot = slots.get(*dlid).filter(|&&slot| slot != NO_ROUTE);
                rows[h * n + s] = slot.map(|&slot| escape[slot as usize]);
            }
        }
        check_escape_rows(topo, &rows)
    }

    /// Structural-sharing statistics of the decoded forwarding state:
    /// `(programmed entries, distinct shared decodes)`. The gap between
    /// the two is memory the interning in `RouteCache` saved.
    pub fn route_cache_sharing(&self) -> (usize, usize) {
        let mut used = vec![false; self.route_cache.pool.len()];
        let mut total = 0usize;
        for &slot in &self.route_cache.slots {
            if slot != NO_ROUTE {
                total += 1;
                used[slot as usize] = true;
            }
        }
        (total, used.iter().filter(|&&u| u).count())
    }

    /// Whether two table sets program byte-identical forwarding tables
    /// on every switch — the machine-checked equality gate the
    /// incremental re-sweep is held to. Tables are just bytes, so
    /// FA-over-different-engines compares directly.
    pub fn tables_equal(&self, other: &FaTables) -> bool {
        self.tables == other.tables
    }

    /// `Some(x)` when the tables implement source-selected multipath over
    /// `x` addresses per destination (sources rotate the DLID offset; the
    /// switches stay plain deterministic).
    #[inline]
    pub fn source_multipath(&self) -> Option<u16> {
        self.source_multipath
    }

    /// Whether switch `s` supports the adaptive mechanism.
    #[inline]
    pub fn switch_adaptive(&self, s: SwitchId) -> bool {
        self.adaptive_capable[s.index()]
    }

    /// Switches the tables were compiled for.
    pub(crate) fn num_switches(&self) -> usize {
        self.tables.len()
    }

    /// The configuration the tables were built with.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// The LID assignment.
    #[inline]
    pub fn lid_map(&self) -> &LidMap {
        &self.lid_map
    }

    /// The forwarding table of one switch.
    pub fn table(&self, s: SwitchId) -> &InterleavedForwardingTable {
        &self.tables[s.index()]
    }
    /// Route a packet at switch `s`: one physical table access returning
    /// the packet's options. Errors only on unprogrammed DLIDs.
    ///
    /// At a deterministic switch the adaptive option list is always empty
    /// — the switch has no selection logic, whatever the table rows hold
    /// (§4.2 programs them all with the escape port anyway). An adaptive
    /// entry that happens to equal the escape entry is still a valid
    /// adaptive option: it is a legal escape hop that may simply be
    /// taken under the adaptive-queue credit rule.
    pub fn route(&self, s: SwitchId, dlid: Lid) -> Result<RouteOptions, IbaError> {
        self.route_id(s, dlid)
            .map(|id| self.route_by_id(id).clone())
    }

    /// The id of the decode [`Self::route`] copies out, good for
    /// [`Self::route_by_id`] on these tables only — the simulator's hot
    /// path (no allocation, no table walk). A holder must resolve again
    /// when the tables it forwards on are swapped.
    #[inline]
    pub fn route_id(&self, s: SwitchId, dlid: Lid) -> Result<RouteId, IbaError> {
        self.route_cache
            .id(s, dlid)
            .ok_or(IbaError::UnknownLid(dlid.raw()))
    }

    /// The decode behind an id [`Self::route_id`] of these tables gave.
    /// Panics on an id of any other tables, in every build: a stale id
    /// would otherwise forward on whatever decode sits in its slot now.
    #[inline]
    pub fn route_by_id(&self, id: RouteId) -> &RouteOptions {
        assert_eq!(
            id.stamp, self.route_cache.stamp,
            "route id resolved on tables that did not issue it"
        );
        &self.route_cache.pool[id.slot as usize]
    }

    /// Decode one table access from the table itself, bypassing the cache.
    #[cfg(test)]
    fn decode(&self, s: SwitchId, dlid: Lid) -> Result<RouteOptions, IbaError> {
        decode(
            &self.tables[s.index()],
            self.adaptive_capable[s.index()],
            dlid,
        )
    }

    /// Convenience: the DLID for `host` in the given mode (delegates to
    /// the LID map).
    #[inline]
    pub fn dlid(&self, host: HostId, adaptive: bool) -> Result<Lid, IbaError> {
        self.lid_map.dlid(host, adaptive)
    }
}

/// How a build fills LID groups: the single source of the row logic of
/// all four builders.
struct RowPlan<'a, E: EscapeEngine> {
    fa: &'a FaRouting<E>,
    topo: &'a Topology,
    /// Whether any switch is deterministic, i.e. whether the §4.2
    /// filter on adaptive hops has anything to remove.
    mixed: bool,
    /// `(first offset of its group, engine)` of each path set: the
    /// primary one and, for APM tables, the alternate one.
    layers: InlineVec<(u16, &'a E), 2>,
}

/// One switch of a pool item: its table and its row of cache slots.
struct SwitchRows<'a> {
    s: SwitchId,
    table: &'a mut InterleavedForwardingTable,
    slots: &'a mut [u32],
}

impl<E: EscapeEngine> RowPlan<'_, E> {
    /// What the group of *every* host on switch `t` holds at another
    /// switch `s` — the escape hop, the minimal mask and the capability
    /// filter depend on the switch pair, only the rotation's start on
    /// the host: the entry at the group's first address (none when that
    /// address is rotated over like the rest, as in source-selected
    /// multipath) and the ports the others rotate over, never empty.
    fn pair(
        &self,
        engine: &E,
        s: SwitchId,
        t: SwitchId,
    ) -> Result<(Option<PortIndex>, AdaptiveOptions), IbaError> {
        let mut rotation = AdaptiveOptions::new();
        if self.fa.source_multipath.is_some() {
            rotation.extend(engine.next_hop_variants(self.topo, s, t));
            debug_assert!(!rotation.is_empty());
            return Ok((None, rotation));
        }
        let escape = engine
            .next_hop(s, t)
            .ok_or_else(|| IbaError::RoutingFailed(format!("no escape hop {s}→{t}")))?;
        // A deterministic switch stores the escape port at every
        // address (§4.2); at a capable one of a mixed fabric, adaptive
        // hops may only lead into adaptive-capable switches.
        let capable = &self.fa.adaptive_capable;
        if capable[s.index()] {
            rotation.extend(self.fa.minimal.options(s, t).iter().filter(|&p| {
                !self.mixed
                    || (self.topo.endpoint(s, p))
                        .and_then(|ep| ep.node.as_switch())
                        .is_none_or(|peer| capable[peer.index()])
            }));
        }
        if rotation.is_empty() {
            // No usable adaptive option: the escape port everywhere.
            rotation.push(escape);
        }
        Ok((Some(escape), rotation))
    }

    /// Program the groups of `hosts` into the tables of `switches`,
    /// destination switch by destination switch (the hosts of one have
    /// consecutive ids wherever a topology comes from): the stores are
    /// destination-major, so this order reads them — and writes each
    /// table — sequentially. A group holds the escape row at its first
    /// address and, at the `x − 1` above it, the adaptive options in a
    /// seed-mixed rotation that balances which are stored when more
    /// exist than fit; local delivery stores the host port throughout.
    fn program(&self, switches: &mut [SwitchRows], hosts: &[HostId]) -> Result<(), IbaError> {
        let (x, seed) = (self.fa.config.table_options, self.fa.config.seed);
        let switch_of = |h: &HostId| self.topo.host_switch(*h);
        for attached in hosts.chunk_by(|a, b| switch_of(a) == switch_of(b)) {
            let t = switch_of(&attached[0]);
            for SwitchRows { s, table, .. } in &mut *switches {
                for &(first, engine) in &self.layers {
                    let mut set =
                        |h, offset, port| table.set(self.fa.lid_map.lid_for(h, offset)?, port);
                    if t == *s {
                        for &h in attached {
                            let (_, port) = self.topo.host_attachment(h);
                            (first..first + x).try_for_each(|offset| set(h, offset, port))?;
                        }
                        continue;
                    }
                    let (escape, rotation) = self.pair(engine, *s, t)?;
                    let rotated = first + u16::from(escape.is_some());
                    for &h in attached {
                        escape.map_or(Ok(()), |escape| set(h, first, escape))?;
                        let mut k = match rotation.len() as u64 {
                            1 => 0,
                            len => (mix(s.0 as u64, (h.0 ^ first) as u64, seed) % len) as usize,
                        };
                        for offset in rotated..first + x {
                            set(h, offset, rotation[k])?;
                            k = if k + 1 == rotation.len() { 0 } else { k + 1 };
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Decode one physical table access at an adaptive-capable or a plain
/// switch, address by address: what [`cache_switch`] must agree with.
#[cfg(test)]
fn decode(
    table: &InterleavedForwardingTable,
    adaptive_capable: bool,
    dlid: Lid,
) -> Result<RouteOptions, IbaError> {
    let unknown = IbaError::UnknownLid(dlid.raw());
    if adaptive_capable {
        let (escape, adaptive) = table.group(dlid);
        Ok(RouteOptions {
            escape: escape.ok_or(unknown)?,
            adaptive: adaptive.collect(),
        })
    } else {
        // A plain IBA switch forwards linearly by the exact DLID —
        // which is what lets source-selected multipath address
        // different paths through different addresses of the range.
        Ok(RouteOptions {
            escape: table.get(dlid).ok_or(unknown)?,
            adaptive: AdaptiveOptions::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_topology::{regular, IrregularConfig};
    use proptest::prelude::*;

    fn build(n: usize, seed: u64, options: u16) -> (Topology, FaRouting) {
        let topo = IrregularConfig::paper(n, seed).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::with_options(options)).unwrap();
        (topo, fa)
    }

    /// Everything of a routing a worker count could show in: the table
    /// bytes, every cache slot number, the decode pool they index and
    /// the sharing statistics read off them.
    fn fingerprint<E: EscapeEngine>(
        fa: &FaRouting<E>,
    ) -> (
        &[InterleavedForwardingTable],
        &[u32],
        Vec<&RouteOptions>,
        (usize, usize),
    ) {
        let pool = fa.route_cache.pool.iter().map(|r| &**r).collect();
        let sharing = fa.route_cache_sharing();
        (&fa.tables, &fa.route_cache.slots, pool, sharing)
    }

    /// Hold a filling of the route cache to the numbering of the loop
    /// it replaced: every access of every table decoded address by
    /// address in `(switch, DLID)` order, numbered by first appearance.
    fn assert_sequential_numbering<E: EscapeEngine>(what: &str, fa: &FaRouting<E>) {
        let mut pool: Vec<RouteOptions> = Vec::new();
        let mut index: HashMap<RouteOptions, u32> = HashMap::new();
        let stride = fa.lid_map.table_len();
        for (s, slots) in fa.route_cache.slots.chunks(stride).enumerate() {
            for (dlid, &slot) in slots.iter().enumerate() {
                let expected = match fa.decode(SwitchId(s as u16), Lid(dlid as u16)) {
                    Err(_) => NO_ROUTE,
                    Ok(opts) => *index.entry(opts).or_insert_with_key(|opts| {
                        pool.push(opts.clone());
                        pool.len() as u32 - 1
                    }),
                };
                assert_eq!(slot, expected, "{what}: switch {s}, DLID {dlid}");
            }
        }
        let filled: Vec<&RouteOptions> = fa.route_cache.pool.iter().map(|r| &**r).collect();
        assert_eq!(filled, pool.iter().collect::<Vec<_>>(), "{what}: pool");
    }

    /// `build` at three worker counts — inline (nested in a two-item
    /// `par_map`, whose workers run a build's pool calls on their own
    /// thread), on every core, and four at once on four threads — must
    /// be the same routing: tables, slot numbers, pool, and what every
    /// `route_id` resolves to — numbered as one sequential pass would.
    fn assert_same_at_every_worker_count<E: EscapeEngine>(
        what: &str,
        build: impl Fn() -> FaRouting<E> + Sync,
    ) {
        use iba_core::par::{par_map, par_map_on};
        let every_core = build();
        assert_sequential_numbering(what, &every_core);
        let mut others = par_map_on(4, &[(); 4], |_| build());
        others.extend(
            par_map(&[true, false], |&run| run.then(&build))
                .into_iter()
                .flatten(),
        );
        assert_eq!(others.len(), 5);
        for other in &others {
            assert!(fingerprint(other) == fingerprint(&every_core), "{what}");
        }
        let (inline, stride) = (&others[4], every_core.lid_map.table_len());
        for s in 0..every_core.tables.len() {
            for dlid in 0..stride {
                let (s, dlid) = (SwitchId(s as u16), Lid(dlid as u16));
                let (a, b) = (
                    inline.route_id(s, dlid).ok(),
                    every_core.route_id(s, dlid).ok(),
                );
                let same =
                    a.map(|id| inline.route_by_id(id)) == b.map(|id| every_core.route_by_id(id));
                assert!(same, "{what}: {s} {dlid}");
            }
        }
    }

    /// 256 switches are four pool items, 300 are six with a short last
    /// one; every builder must compile the same bytes however many
    /// threads share them out.
    #[test]
    fn every_builder_is_worker_count_independent() {
        for n in [256usize, 300] {
            let topo = IrregularConfig {
                hosts_per_switch: 1,
                ..IrregularConfig::paper(n, 11)
            };
            let topo = topo.generate().unwrap();
            let cfg = RoutingConfig::two_options();
            let caps: Vec<bool> = (0..n).map(|s| s % 5 != 3).collect();
            assert_same_at_every_worker_count(&format!("build {n}"), || {
                FaRouting::build(&topo, RoutingConfig::with_options(4)).unwrap()
            });
            assert_same_at_every_worker_count(&format!("apm {n}"), || {
                FaRouting::build_with_apm(&topo, cfg).unwrap()
            });
            assert_same_at_every_worker_count(&format!("multipath {n}"), || {
                FaRouting::build_source_multipath(&topo, cfg).unwrap()
            });
            assert_same_at_every_worker_count(&format!("mixed {n}"), || {
                FaRouting::build_mixed(&topo, cfg, &caps).unwrap()
            });
        }
        for (rows, cols) in [(16, 16), (15, 20)] {
            let topo = regular::torus2d(rows, cols, 1).unwrap();
            let cfg = RoutingConfig::two_options();
            assert_same_at_every_worker_count(&format!("outflank {rows}x{cols}"), || {
                FaRouting::<crate::OutflankRouting>::build_with_engine(&topo, cfg).unwrap()
            });
            assert_same_at_every_worker_count(&format!("outflank apm {rows}x{cols}"), || {
                FaRouting::<crate::OutflankRouting>::build_apm_with_engine(&topo, cfg).unwrap()
            });
        }
        // The largest full mesh a switch radix allows is a single item;
        // it is here for its thousands of distinct decodes.
        let topo = regular::complete(70, 1).unwrap();
        assert_same_at_every_worker_count("fullmesh 70", || {
            let cfg = RoutingConfig::two_options();
            FaRouting::<crate::FullMeshRouting>::build_with_engine(&topo, cfg).unwrap()
        });
    }

    /// The group memo decodes rows of fanout 1–4 once and fanout 8 the
    /// long way; both must number the cache as the address-by-address
    /// decode does.
    #[test]
    fn route_cache_matches_the_tables_at_every_fanout() {
        for options in [1u16, 2, 4, 8] {
            let (_, fa) = build(16, 5, options);
            assert_sequential_numbering(&format!("fanout {options}"), &fa);
        }
    }

    /// Only the second host of one switch is broken: a forwarding loop
    /// between two other switches. Its row differs from its sibling's
    /// away from their switch, so certification must walk it and refuse.
    #[test]
    fn certification_refuses_a_loop_towards_a_second_host() {
        let (topo, mut fa) = build(16, 3, 2);
        fa.certify_escape(&topo, false).unwrap();
        let h = (topo.host_ids().skip(1))
            .find(|&h| topo.host_switch(h) == topo.host_switch(HostId(h.0 - 1)))
            .unwrap();
        let t = topo.host_switch(h);
        let (s, p, n) = (topo.switch_ids().filter(|&s| s != t))
            .find_map(|s| {
                let mut away = topo.switch_neighbors(s).filter(|&(_, n, _)| n != t);
                away.next().map(|(p, n, _)| (s, p, n))
            })
            .unwrap();
        let back = topo.port_towards(n, s).unwrap();
        let cache = &mut fa.compiled.route_cache;
        let dlid = fa.compiled.lid_map.base_lid(h).raw() as usize;
        for (at, port) in [(s, p), (n, back)] {
            cache.slots[at.index() * cache.stride + dlid] = cache.pool.len() as u32;
            cache.pool.push(Arc::new(RouteOptions {
                escape: port,
                adaptive: AdaptiveOptions::new(),
            }));
        }
        let refused = fa.certify_escape(&topo, false).unwrap_err();
        assert!(
            refused.to_string().contains("does not terminate"),
            "{refused}"
        );
    }

    /// The interned route cache shares identical decodes across switches.
    #[test]
    fn route_cache_interning_shares_identical_decodes() {
        let topo = IrregularConfig::paper(16, 4).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let (total, unique) = fa.route_cache_sharing();
        assert!(total > 0);
        assert!(
            unique < total / 2,
            "expected heavy sharing, got {unique}/{total} distinct decodes"
        );
        // Sharing must not change what any access returns.
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let dlid = fa.dlid(h, true).unwrap();
                assert_eq!(fa.route(s, dlid).unwrap(), fa.decode(s, dlid).unwrap());
            }
        }
    }

    #[test]
    fn deterministic_dlid_gets_exactly_the_escape_option() {
        let (topo, fa) = build(16, 1, 2);
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let r = fa.route(s, fa.dlid(h, false).unwrap()).unwrap();
                assert!(r.adaptive.is_empty());
                let t = topo.host_switch(h);
                if t == s {
                    let (_, port) = topo.host_attachment(h);
                    assert_eq!(r.escape, port);
                } else {
                    assert_eq!(Some(r.escape), fa.escape().next_hop(s, t));
                }
            }
        }
    }

    #[test]
    fn adaptive_dlid_gets_minimal_options() {
        let (topo, fa) = build(16, 2, 4);
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let t = topo.host_switch(h);
                if t == s {
                    continue;
                }
                let r = fa.route(s, fa.dlid(h, true).unwrap()).unwrap();
                assert!(!r.adaptive.is_empty());
                // Every adaptive option is a genuine minimal option.
                for p in &r.adaptive {
                    assert!(
                        fa.minimal().options(s, t).contains(*p),
                        "{s}→{h}: {p} is not minimal"
                    );
                }
                // No duplicates.
                let mut dedup = r.adaptive.to_vec();
                dedup.dedup();
                dedup.sort();
                dedup.dedup();
                assert_eq!(dedup.len(), r.adaptive.len());
                // With x options we can store at most x−1 adaptive ones.
                assert!(r.adaptive.len() <= 3);
            }
        }
    }

    #[test]
    fn local_delivery_routes_to_the_host_port() {
        let (topo, fa) = build(8, 3, 2);
        for h in topo.host_ids() {
            let s = topo.host_switch(h);
            let (_, port) = topo.host_attachment(h);
            let det = fa.route(s, fa.dlid(h, false).unwrap()).unwrap();
            let ada = fa.route(s, fa.dlid(h, true).unwrap()).unwrap();
            assert_eq!(det.escape, port);
            assert_eq!(ada.escape, port);
            assert_eq!(ada.adaptive, vec![port]);
        }
    }

    #[test]
    fn single_option_config_is_pure_updown() {
        let (topo, fa) = build(8, 4, 1);
        // No adaptive DLIDs exist with LMC 0.
        assert!(fa.dlid(HostId(0), true).is_err());
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let r = fa.route(s, fa.dlid(h, false).unwrap()).unwrap();
                assert!(r.adaptive.is_empty());
                let t = topo.host_switch(h);
                if t != s {
                    assert_eq!(Some(r.escape), fa.escape().next_hop(s, t));
                }
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two_options() {
        let topo = regular::ring(4, 1).unwrap();
        assert!(FaRouting::build(
            &topo,
            RoutingConfig {
                table_options: 3,
                seed: 0,
                root: None
            }
        )
        .is_err());
    }

    #[test]
    fn rotation_balances_stored_options() {
        // On a 6-ring, switch 0 → switch 3 has two minimal options; with
        // x = 2 only one fits. Different (switch, host) pairs must not all
        // store the same one — check both directions appear somewhere.
        let topo = regular::ring(6, 2).unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let t = topo.host_switch(h);
                if fa.minimal().options(s, t).len() >= 2 {
                    let r = fa.route(s, fa.dlid(h, true).unwrap()).unwrap();
                    seen.insert(
                        (fa.minimal()
                            .options(s, t)
                            .iter()
                            .position(|p| p == r.adaptive[0]))
                        .unwrap(),
                    );
                }
            }
        }
        assert_eq!(seen.len(), 2, "rotation never picked the second option");
    }

    #[test]
    fn mixed_fabric_deterministic_switches_offer_only_escape() {
        let topo = IrregularConfig::paper(16, 9).generate().unwrap();
        let mut caps = vec![true; 16];
        caps[3] = false;
        caps[7] = false;
        let fa = FaRouting::build_mixed(&topo, RoutingConfig::with_options(2), &caps).unwrap();
        assert!(!fa.switch_adaptive(SwitchId(3)));
        assert!(fa.switch_adaptive(SwitchId(0)));
        for h in topo.host_ids() {
            for &det_sw in &[SwitchId(3), SwitchId(7)] {
                let r = fa.route(det_sw, fa.dlid(h, true).unwrap()).unwrap();
                assert!(r.adaptive.is_empty(), "det switch offered adaptive options");
                // §4.2: every table address of the group holds the escape port.
                let base = fa.lid_map().base_lid(h);
                for off in 0..2u16 {
                    let lid = iba_core::Lid(base.raw() + off);
                    assert_eq!(fa.table(det_sw).get(lid), Some(r.escape));
                }
            }
        }
    }

    #[test]
    fn mixed_fabric_adaptive_hops_avoid_deterministic_switches() {
        let topo = IrregularConfig::paper(16, 10).generate().unwrap();
        let caps: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let fa = FaRouting::build_mixed(&topo, RoutingConfig::with_options(4), &caps).unwrap();
        for s in topo.switch_ids().filter(|s| caps[s.index()]) {
            for h in topo.host_ids() {
                if topo.host_switch(h) == s {
                    continue;
                }
                let r = fa.route(s, fa.dlid(h, true).unwrap()).unwrap();
                for &p in &r.adaptive {
                    // Every adaptive hop lands on a host or a capable switch —
                    // except fill-up copies of the escape port, which follow
                    // the escape chain and are always legal.
                    if p == r.escape {
                        continue;
                    }
                    let ep = topo.endpoint(s, p).unwrap();
                    if let Some(peer) = ep.node.as_switch() {
                        assert!(
                            caps[peer.index()],
                            "{s}: adaptive hop {p} leads into deterministic {peer}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_deterministic_fabric_equals_pure_updown() {
        let topo = IrregularConfig::paper(8, 11).generate().unwrap();
        let caps = vec![false; 8];
        let fa = FaRouting::build_mixed(&topo, RoutingConfig::with_options(2), &caps).unwrap();
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let r = fa.route(s, fa.dlid(h, true).unwrap()).unwrap();
                assert!(r.adaptive.is_empty());
                let t = topo.host_switch(h);
                if t != s {
                    assert_eq!(Some(r.escape), fa.escape().next_hop(s, t));
                }
            }
        }
    }

    #[test]
    fn source_multipath_paths_terminate_for_every_offset() {
        let topo = IrregularConfig::paper(16, 13).generate().unwrap();
        let fa = FaRouting::build_source_multipath(&topo, RoutingConfig::with_options(4)).unwrap();
        assert_eq!(fa.source_multipath(), Some(4));
        for s in topo.switch_ids() {
            assert!(!fa.switch_adaptive(s), "multipath uses plain switches");
        }
        for offset in 0..4u16 {
            for h in topo.host_ids().take(16) {
                let dlid = fa.lid_map().lid_for(h, offset).unwrap();
                // Walk the fixed-offset path.
                let mut cur = topo.host_switch(HostId(0));
                let src_sw = cur;
                let _ = src_sw;
                let mut hops = 0;
                loop {
                    let r = fa.route(cur, dlid).unwrap();
                    assert!(r.adaptive.is_empty());
                    match topo.endpoint(cur, r.escape).unwrap().node {
                        iba_core::NodeRef::Host(reached) => {
                            assert_eq!(reached, h, "offset {offset} path reached wrong host");
                            break;
                        }
                        iba_core::NodeRef::Switch(next) => {
                            cur = next;
                            hops += 1;
                            assert!(
                                hops <= 3 * topo.num_switches(),
                                "offset {offset} path to {h} does not terminate"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn source_multipath_offers_distinct_paths_somewhere() {
        let topo = IrregularConfig::paper(16, 14).generate().unwrap();
        let fa = FaRouting::build_source_multipath(&topo, RoutingConfig::two_options()).unwrap();
        let mut distinct = 0;
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let a = fa.route(s, fa.lid_map().lid_for(h, 0).unwrap()).unwrap();
                let b = fa.route(s, fa.lid_map().lid_for(h, 1).unwrap()).unwrap();
                if a.escape != b.escape {
                    distinct += 1;
                }
            }
        }
        assert!(distinct > 0, "multipath never offered a second path");
    }

    #[test]
    fn capability_vector_must_match_topology() {
        let topo = IrregularConfig::paper(8, 12).generate().unwrap();
        assert!(FaRouting::build_mixed(&topo, RoutingConfig::two_options(), &[true; 4]).is_err());
    }

    #[test]
    fn apm_tables_carry_two_independent_path_sets() {
        let topo = IrregularConfig::paper(16, 21).generate().unwrap();
        let fa = FaRouting::build_with_apm(&topo, RoutingConfig::two_options()).unwrap();
        assert!(fa.has_apm());
        assert_eq!(fa.lid_map().lmc().bits(), 2); // 2 primary + 2 APM addresses

        // The alternate anchor is as far from the primary one as any
        // switch is.
        let dist = topo.distances_from(fa.escape().root());
        let alt_root = fa.apm_alt_root().unwrap();
        assert_ne!(alt_root, fa.escape().root());
        assert_eq!(dist[alt_root.index()], *dist.iter().max().unwrap());
        let (mut first_hops_differ, mut remote) = (0, 0);
        for h in topo.host_ids() {
            // The halves are disjoint ranges of the one host.
            let (primary, alt) = (fa.dlid(h, false).unwrap(), fa.apm_dlid(h, false).unwrap());
            assert_eq!(fa.lid_map().offset_of(primary).unwrap(), 0);
            assert_eq!(fa.lid_map().offset_of(alt).unwrap(), 2);
            assert_eq!(fa.lid_map().host_of(alt).unwrap(), h);
        }
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let t = topo.host_switch(h);
                let primary = fa.route(s, fa.dlid(h, false).unwrap()).unwrap();
                let alt = fa.route(s, fa.apm_dlid(h, false).unwrap()).unwrap();
                // Deterministic requests return exactly one option in
                // either half.
                assert!(primary.adaptive.is_empty());
                assert!(alt.adaptive.is_empty());
                if t == s {
                    assert_eq!(primary.escape, alt.escape, "local delivery");
                } else {
                    remote += 1;
                    first_hops_differ += usize::from(primary.escape != alt.escape);
                }
                // Adaptive requests offer minimal options in both halves.
                let alt_ada = fa.route(s, fa.apm_dlid(h, true).unwrap()).unwrap();
                for p in &alt_ada.adaptive {
                    if *p != alt_ada.escape && t != s {
                        assert!(fa.minimal().options(s, t).contains(*p));
                    }
                }
            }
        }
        // Path independence, the point of APM: the two anchors give
        // genuinely different trees.
        assert!(
            first_hops_differ * 5 > remote,
            "alternate paths hardly diverge: {first_hops_differ} of {remote} first hops"
        );
    }

    #[test]
    fn apm_alternate_escape_chains_terminate() {
        // An irregular fabric, and a torus with four addresses a half:
        // LMC 3, the APM half from offset 4.
        for (topo, options) in [
            (IrregularConfig::paper(8, 22).generate().unwrap(), 2),
            (regular::torus2d(3, 3, 2).unwrap(), 4),
        ] {
            let fa =
                FaRouting::build_with_apm(&topo, RoutingConfig::with_options(options)).unwrap();
            assert_eq!(fa.lid_map().lmc().addresses_per_port(), 2 * options);
            let alt = fa.apm_dlid(HostId(0), false).unwrap();
            assert_eq!(fa.lid_map().offset_of(alt).unwrap(), options);
            for s in topo.switch_ids() {
                for h in topo.host_ids() {
                    let mut cur = s;
                    let mut hops = 0;
                    loop {
                        let r = fa.route(cur, fa.apm_dlid(h, false).unwrap()).unwrap();
                        match topo.endpoint(cur, r.escape).unwrap().node {
                            iba_core::NodeRef::Host(reached) => {
                                assert_eq!(reached, h);
                                break;
                            }
                            iba_core::NodeRef::Switch(next) => {
                                cur = next;
                                hops += 1;
                                assert!(hops <= 2 * topo.num_switches(), "APM chain loops");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn apm_dlid_requires_apm_tables() {
        let topo = IrregularConfig::paper(8, 23).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        assert!(!fa.has_apm());
        assert!(fa.apm_dlid(HostId(0), false).is_err());
    }

    #[test]
    fn route_rejects_unknown_dlid() {
        let (_, fa) = build(8, 5, 2);
        assert!(fa.route(SwitchId(0), Lid(0)).is_err());
    }

    #[test]
    fn tables_conform_to_linear_interface() {
        // The subnet-manager view of every switch's table must be fully
        // programmed for every assigned LID.
        let (topo, fa) = build(8, 6, 4);
        for s in topo.switch_ids() {
            let view = fa.table(s).linear_view();
            for h in topo.host_ids() {
                for off in 0..4u16 {
                    let lid = fa.lid_map().lid_for(h, off).unwrap();
                    assert!(
                        view[lid.raw() as usize].is_some(),
                        "{s} lid {lid} unprogrammed"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Escape chains always reach the destination switch (the
        /// deadlock-free layer is complete), and adaptive options always
        /// reduce distance by one.
        #[test]
        fn prop_fa_options_sound(seed in any::<u64>(), options_log in 1u32..3) {
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            let fa = FaRouting::build(&topo, RoutingConfig::with_options(1 << options_log)).unwrap();
            for s in topo.switch_ids() {
                for h in topo.host_ids() {
                    let t = topo.host_switch(h);
                    if t == s { continue; }
                    let r = fa.route(s, fa.dlid(h, true).unwrap()).unwrap();
                    for p in &r.adaptive {
                        let peer = topo.endpoint(s, *p).unwrap().node.as_switch().unwrap();
                        prop_assert_eq!(fa.minimal().distance(peer, t) + 1, fa.minimal().distance(s, t));
                    }
                }
            }
        }
    }
}
