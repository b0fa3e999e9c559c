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

use crate::analysis::{hosts_to_walk, previous_on_switch, walk_escape_rows};
use crate::columns::{per_item, NO_HOP};
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
    /// A direct-mapped memo of whole groups: a packed row (see
    /// [`packed`]) and the numbers of its two decodes. A key names one
    /// row because every table of a build has the same fanout, and no
    /// programmed row packs to the initial key (it would be eight
    /// unprogrammed entries).
    groups: [(u64, [u32; 2]); 256],
    /// The number of the escape-only decode of each port: every address
    /// of a plain switch decodes to one.
    plain: [u32; 256],
}

impl Interner {
    fn new() -> Interner {
        Interner {
            pool: Vec::new(),
            index: HashMap::new(),
            memo: [NO_ROUTE; 256],
            groups: [(u64::MAX, [NO_ROUTE; 2]); 256],
            plain: [NO_ROUTE; 256],
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

    /// The numbers of the two decodes a group at an adaptive-capable
    /// switch can have: the escape entry alone (a DLID with its
    /// least-significant bit clear) and the whole group (set) — the
    /// adaptive entries de-duplicated in module order, as
    /// [`InterleavedForwardingTable::lookup`] reads them. A row seen
    /// before is looked up in `groups` rather than decoded again;
    /// interning is idempotent, so the numbers are the same.
    fn group(&mut self, row: &[u8]) -> [u32; 2] {
        let key = packed(row);
        let m = key.map_or(0, |key| {
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
        });
        match self.groups[m] {
            (seen, pair) if Some(seen) == key => pair,
            _ => {
                let mut opts = RouteOptions {
                    escape: PortIndex(row[0]),
                    adaptive: AdaptiveOptions::new(),
                };
                let deterministic = self.intern(&opts);
                for (k, &port) in row.iter().enumerate().skip(1) {
                    if !row[1..k].contains(&port) {
                        opts.adaptive.push(PortIndex(port));
                    }
                }
                let pair = [deterministic, self.intern(&opts)];
                if let Some(key) = key {
                    self.groups[m] = (key, pair);
                }
                pair
            }
        }
    }

    /// The numbers of the decodes of a group's addresses into its
    /// `slots`: at an adaptive-capable switch the two of [`Self::group`]
    /// it was `decoded` to, by the address's least-significant bit; at
    /// a plain one (`None`) each address's own entry's.
    #[inline]
    fn number(&mut self, slots: &mut [u32], row: &[u8], decoded: Option<[u32; 2]>) {
        match decoded {
            Some(pair) => {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = pair[offset & 1];
                }
            }
            None => {
                for (slot, &port) in slots.iter_mut().zip(row) {
                    *slot = self.plain(port);
                }
            }
        }
    }

    /// The number of the escape-only decode of `port`: what a plain IBA
    /// switch, forwarding linearly by the exact DLID, makes of every
    /// address — which is what lets source-selected multipath address a
    /// path per address of a range.
    fn plain(&mut self, port: u8) -> u32 {
        if self.plain[port as usize] == NO_ROUTE {
            self.plain[port as usize] = self.intern(&RouteOptions {
                escape: PortIndex(port),
                adaptive: AdaptiveOptions::new(),
            });
        }
        self.plain[port as usize]
    }
}

/// The entries of a group of up to eight, one byte each, module 0
/// highest; `None` for a wider group.
fn packed(row: &[u8]) -> Option<u64> {
    (row.len() <= 8).then(|| (row.iter()).fold(0, |packed, &port| packed << 8 | port as u64))
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

/// `a % d` for `d ≥ 2`, by multiplications with `m = u128::MAX / d + 1`:
/// exact for every 64-bit `a` (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019), at a fraction of the cost
/// of a 64-bit division.
#[inline]
fn remainder(a: u64, m: u128, d: u64) -> u64 {
    let low = m.wrapping_mul(a as u128);
    let bottom = (low as u64 as u128 * d as u128) >> 64;
    let top = (low >> 64) * d as u128;
    ((bottom + top) >> 64) as u64
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
    /// tables — and number every table access's decode in the route
    /// cache as its row is written.
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
        // The hosts of one switch have consecutive ids wherever a
        // topology comes from: a switch's share of the work is a cell per
        // destination switch.
        let destinations: Vec<&[HostId]> = hosts
            .chunk_by(|&a, &b| topo.host_switch(a) == topo.host_switch(b))
            .collect();
        let plan = RowPlan {
            fa: &self,
            topo,
            mixed: self.adaptive_capable.contains(&false),
            layers: std::iter::once((0, &self.escape))
                .chain(alternate.map(|alt| (self.config.table_options, alt)))
                .collect(),
            destinations: &destinations,
        };
        let per_item = per_item(destinations.len());
        let mut switches: Vec<_> = (tables.iter_mut())
            .zip(slots.chunks_mut(stride))
            .zip(topo.switch_ids())
            .map(|((table, slots), s)| SwitchRows {
                s,
                capable: self.adaptive_capable[s.index()],
                table,
                slots,
            })
            .collect();
        let items = par_chunks_mut(&mut switches, per_item, |switches| plan.program(switches));
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
    /// on tables without one).
    ///
    /// The cache is read switch by switch, where the groups of one
    /// switch's hosts are adjacent: one pass finds the hosts that are
    /// twins of their predecessor on their switch, a second gathers the
    /// rows of the hosts that must still be walked, and those are walked.
    pub fn certify_escape(&self, topo: &Topology, alternate: bool) -> Result<(), IbaError> {
        let offset = self.escape_offset(alternate)?;
        let RouteCache {
            stride,
            slots,
            pool,
            ..
        } = &self.route_cache;
        let escape: Vec<u8> = pool.iter().map(|r| r.escape.0).collect();
        let entry = |slots: &[u32], dlid: usize| match slots.get(dlid) {
            Some(&slot) if slot != NO_ROUTE => escape[slot as usize],
            _ => NO_HOP,
        };
        let dlids: Vec<usize> = (topo.host_ids())
            .map(|h| (self.lid_map.base_lid(h).raw() + offset) as usize)
            .collect();
        let n = topo.num_switches();
        let switches = || slots.chunks(*stride).take(n).enumerate();
        // Each host with a predecessor on its switch — its switch and
        // the pair's DLIDs — while their rows may still be equal.
        let mut pairs: Vec<(HostId, usize, usize, usize)> = (previous_on_switch(topo).into_iter())
            .zip(topo.host_ids())
            .filter_map(|(p, h)| {
                let t = topo.host_switch(h).index();
                p.map(|p| (h, t, dlids[h.index()], dlids[p.index()]))
            })
            .collect();
        for (s, slots) in switches() {
            pairs.retain(|&(_, t, a, b)| {
                t == s || slots.get(a) == slots.get(b) || entry(slots, a) == entry(slots, b)
            });
        }
        let mut twins = vec![false; dlids.len()];
        for (h, ..) in pairs {
            twins[h.index()] = true;
        }
        let walked = hosts_to_walk(topo, &twins, |h, t| {
            (slots.chunks(*stride).nth(t.index()))
                .map_or(NO_HOP, |slots| entry(slots, dlids[h.index()]))
        });
        let mut rows = vec![NO_HOP; walked.len() * n];
        for (s, slots) in switches() {
            for (k, h) in walked.iter().enumerate() {
                rows[k * n + s] = entry(slots, dlids[h.index()]);
            }
        }
        walk_escape_rows(topo, &walked, &rows)
    }

    /// The first offset of the escape address certification reads: the
    /// group's first, of the primary or the APM alternate path set.
    fn escape_offset(&self, alternate: bool) -> Result<u16, IbaError> {
        match (alternate, self.apm) {
            (false, _) => Ok(0),
            (true, Some(apm)) => Ok(apm.base_offset),
            (true, None) => Err(IbaError::InvalidConfig("tables have no APM half".into())),
        }
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
    /// The hosts of each destination switch, in id order.
    destinations: &'a [&'a [HostId]],
}

/// One switch of a pool item: its table and its row of cache slots.
struct SwitchRows<'a> {
    s: SwitchId,
    /// Whether the switch supports the adaptive mechanism.
    capable: bool,
    table: &'a mut InterleavedForwardingTable,
    slots: &'a mut [u32],
}

/// What the group of *every* host on a destination switch `t` holds at
/// a switch `s`, for one path set: the escape hop, the minimal mask and
/// the capability filter depend on the switch pair, only the rotation's
/// start on the host.
#[derive(Clone, Copy)]
struct Pair {
    /// The entry at the group's first address; none when that address
    /// is rotated over like the rest, as in source-selected multipath.
    escape: Option<u8>,
    /// The ports the other addresses rotate over are `len` bytes of the
    /// item's rotation store from `at`; none for local delivery, where
    /// every address holds the host's own port.
    at: u32,
    len: u8,
}

impl Pair {
    /// The group of a host whose rotation starts at `k`: the escape
    /// entry, if any, then the rotation from `k` on, wrapping around.
    #[inline]
    fn fill(&self, row: &mut [u8], rotations: &[u8], mut k: usize) {
        let rotation = &rotations[self.at as usize..][..self.len as usize];
        let rotated = match self.escape {
            Some(escape) => {
                row[0] = escape;
                &mut row[1..]
            }
            None => row,
        };
        for entry in rotated {
            *entry = rotation[k];
            k = if k + 1 == rotation.len() { 0 } else { k + 1 };
        }
    }
}

impl<E: EscapeEngine> RowPlan<'_, E> {
    /// The [`Pair`] of `s` towards `t != s`, its rotation appended to
    /// `rotations` (never empty).
    fn pair(
        &self,
        engine: &E,
        s: SwitchId,
        t: SwitchId,
        rotations: &mut Vec<u8>,
    ) -> Result<Pair, IbaError> {
        let at = rotations.len();
        let escape = if self.fa.source_multipath.is_some() {
            rotations.extend(
                engine
                    .next_hop_variants(self.topo, s, t)
                    .iter()
                    .map(|p| p.0),
            );
            None
        } else {
            let escape = engine
                .next_hop(s, t)
                .ok_or_else(|| IbaError::RoutingFailed(format!("no escape hop {s}→{t}")))?;
            // A deterministic switch stores the escape port at every
            // address (§4.2); at a capable one of a mixed fabric,
            // adaptive hops may only lead into adaptive-capable switches.
            let capable = &self.fa.adaptive_capable;
            if capable[s.index()] {
                let minimal = self.fa.minimal.options(s, t).iter().filter(|&p| {
                    !self.mixed
                        || (self.topo.endpoint(s, p))
                            .and_then(|ep| ep.node.as_switch())
                            .is_none_or(|peer| capable[peer.index()])
                });
                rotations.extend(minimal.map(|p| p.0));
            }
            if rotations.len() == at {
                // No usable adaptive option: the escape port everywhere.
                rotations.push(escape.0);
            }
            Some(escape.0)
        };
        debug_assert!(rotations.len() > at);
        Ok(Pair {
            escape,
            at: at as u32,
            len: (rotations.len() - at) as u8,
        })
    }

    /// Program every host's groups into the tables of `switches` and
    /// the numbers of their decodes into the switches' cache slots. A
    /// group holds the escape row at its first address and, at the
    /// `x − 1` above it, the adaptive options in a seed-mixed rotation
    /// that balances which are stored when more exist than fit; local
    /// delivery stores the host port throughout.
    ///
    /// Two passes. The first works out every switch pair's [`Pair`]
    /// destination by destination, the order the engines' stores are
    /// held in, so it reads them sequentially. The second writes each
    /// switch's rows and slots in DLID order, so it writes them
    /// sequentially and meets — and numbers — the decodes in the order
    /// the cache is numbered in. It decodes a group from the row in
    /// hand, once per switch pair and rotation start.
    fn program(&self, switches: &mut [SwitchRows]) -> Result<Interner, IbaError> {
        let (items, layers) = (switches.len(), self.layers.len());
        let mut pairs = Vec::with_capacity(self.destinations.len() * items * layers);
        let mut rotations = Vec::new();
        for attached in self.destinations {
            let t = self.topo.host_switch(attached[0]);
            for rows in &*switches {
                for &(_, engine) in &self.layers {
                    pairs.push(match t == rows.s {
                        true => Pair {
                            escape: None,
                            at: 0,
                            len: 0,
                        },
                        false => self.pair(engine, rows.s, t, &mut rotations)?,
                    });
                }
            }
        }
        // The fanout as a constant where it is a usual one, so that the
        // row and slot writes of a group are straight-line code.
        let mut decodes = Interner::new();
        let write = match self.fa.config.table_options {
            1 => Self::write_rows::<1>,
            2 => Self::write_rows::<2>,
            4 => Self::write_rows::<4>,
            _ => Self::write_rows::<0>,
        };
        write(self, switches, &pairs, &rotations, &mut decodes);
        Ok(decodes)
    }

    /// The second pass of [`Self::program`]: every switch's rows and
    /// slots in DLID order, at fanout `X` (0: the configured one).
    fn write_rows<const X: usize>(
        &self,
        switches: &mut [SwitchRows],
        pairs: &[Pair],
        rotations: &[u8],
        decodes: &mut Interner,
    ) {
        let (items, layers) = (switches.len(), self.layers.len());
        let x = match X {
            0 => self.fa.config.table_options as usize,
            x => x,
        };
        let seed = self.fa.config.seed;
        let mut row = [0u8; 128];
        let row = &mut row[..x];
        // The decodes of a remote group by rotation start, per path set,
        // for the switch pair at hand: filled as met, so in DLID order.
        let mut seen = [[[NO_ROUTE; 2]; MAX_PORTS]; 2];
        // A rotation starts at the seed mix modulo the rotation's length,
        // taken through that length's reciprocal (zero until needed).
        let mut reciprocals = [0u128; MAX_PORTS + 1];
        for (i, rows) in switches.iter_mut().enumerate() {
            let s = rows.s.0 as u64;
            for (d, attached) in self.destinations.iter().enumerate() {
                let pairs = &pairs[(d * items + i) * layers..][..layers];
                // Host `h`'s group of path set `l` is interleave row
                // `(h + 1) · layers + l`.
                let first_row = (attached[0].0 as usize + 1) * layers;
                if pairs.iter().all(|pair| pair.len == 1) {
                    // A single rotation port gives every host the same
                    // row per path set: decoded at the first host, in
                    // DLID order, and written to all.
                    for (l, pair) in pairs.iter().enumerate() {
                        pair.fill(row, rotations, 0);
                        let decoded = rows.capable.then(|| decodes.group(row));
                        rows.table
                            .set_rows(first_row + l, layers, attached.len(), row);
                        for j in 0..attached.len() {
                            let slots = &mut rows.slots[(first_row + j * layers + l) * x..][..x];
                            decodes.number(slots, row, decoded);
                        }
                    }
                    continue;
                }
                for (seen, pair) in seen.iter_mut().zip(pairs) {
                    seen[..pair.len as usize].fill([NO_ROUTE; 2]);
                }
                for (j, &h) in attached.iter().enumerate() {
                    for (l, (pair, &(first, _))) in pairs.iter().zip(&self.layers).enumerate() {
                        let at = first_row + j * layers + l;
                        let slots = &mut rows.slots[at * x..][..x];
                        if pair.len == 0 {
                            row.fill(self.topo.host_attachment(h).1 .0);
                            rows.table.set_rows(at, 1, 1, row);
                            let decoded = rows.capable.then(|| decodes.group(row));
                            decodes.number(slots, row, decoded);
                            continue;
                        }
                        let k = match pair.len {
                            1 => 0,
                            len => {
                                let m = &mut reciprocals[len as usize];
                                if *m == 0 {
                                    *m = u128::MAX / len as u128 + 1;
                                }
                                remainder(mix(s, (h.0 ^ first) as u64, seed), *m, len as u64)
                                    as usize
                            }
                        };
                        pair.fill(row, rotations, k);
                        rows.table.set_rows(at, 1, 1, row);
                        let decoded = &mut seen[l][k];
                        if rows.capable && decoded[0] == NO_ROUTE {
                            *decoded = decodes.group(row);
                        }
                        decodes.number(slots, row, rows.capable.then_some(*decoded));
                    }
                }
            }
        }
    }
}

/// Decode one physical table access at an adaptive-capable or a plain
/// switch, address by address: what the route cache must agree with.
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

    /// A rotation start's remainder is `%`, for every length a rotation
    /// can have, on mixes and on the edges of the 64-bit range.
    #[test]
    fn remainder_by_reciprocal_is_the_remainder() {
        let edges = [0u64, 1, 2, 3, 79, 80, 255, u64::MAX, u64::MAX - 1, 1 << 63];
        for d in 2..=255u64 {
            let m = u128::MAX / d as u128 + 1;
            let multiples = edges.map(|e| e.wrapping_mul(d));
            let mixes = (0..2_000u64).map(|i| mix(i, d, 7));
            for a in mixes.chain(edges).chain(multiples) {
                assert_eq!(remainder(a, m, d), a % d, "{a} % {d}");
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

    /// The certification [`FaTables::certify_escape`] replaced, kept as
    /// its oracle: every `(switch, host)` escape port gathered into
    /// host-major rows, then the host-major checker.
    fn certify_by_transpose(
        fa: &FaTables,
        topo: &Topology,
        alternate: bool,
    ) -> Result<(), IbaError> {
        let offset = fa.escape_offset(alternate)?;
        let RouteCache {
            stride,
            slots,
            pool,
            ..
        } = &fa.route_cache;
        let escape: Vec<PortIndex> = pool.iter().map(|r| r.escape).collect();
        let dlids: Vec<usize> = (topo.host_ids())
            .map(|h| (fa.lid_map.base_lid(h).raw() + offset) as usize)
            .collect();
        let n = topo.num_switches();
        let mut rows = vec![None; dlids.len() * n];
        for (s, slots) in slots.chunks(*stride).take(n).enumerate() {
            for (h, dlid) in dlids.iter().enumerate() {
                let slot = slots.get(*dlid).filter(|&&slot| slot != NO_ROUTE);
                rows[h * n + s] = slot.map(|&slot| escape[slot as usize]);
            }
        }
        crate::analysis::check_escape_rows(topo, &rows)
    }

    /// The certification and its oracle give the same verdict, error
    /// text included, on `fa`'s primary and (if any) APM path sets.
    fn assert_certified_as_by_transpose(what: &str, fa: &FaTables, topo: &Topology) -> String {
        let mut verdicts = String::new();
        for alternate in [false, true] {
            let new = fa.certify_escape(topo, alternate);
            let old = certify_by_transpose(fa, topo, alternate);
            assert_eq!(new, old, "{what}, alternate {alternate}");
            verdicts += &format!("{new:?};");
        }
        verdicts
    }

    /// Every builder's tables, certified on one and on four workers, get
    /// the oracle's verdicts.
    #[test]
    fn certification_matches_the_host_major_oracle_for_every_builder() {
        use iba_core::par::par_map_on;
        let mut cases = Vec::new();
        for n in [16usize, 64, 256, 300] {
            let topo = IrregularConfig::paper(n, 17).generate().unwrap();
            let cfg = RoutingConfig::two_options();
            let caps: Vec<bool> = (0..n).map(|s| s % 5 != 3).collect();
            let builds = [
                (
                    "build",
                    FaRouting::build(&topo, RoutingConfig::with_options(4)),
                ),
                ("apm", FaRouting::build_with_apm(&topo, cfg)),
                ("mixed", FaRouting::build_mixed(&topo, cfg, &caps)),
                ("multipath", FaRouting::build_source_multipath(&topo, cfg)),
            ];
            for (name, fa) in builds {
                cases.push((format!("{name} {n}"), fa.unwrap().compiled, topo.clone()));
            }
        }
        let torus = regular::torus2d(6, 7, 2).unwrap();
        let outflank = FaRouting::<crate::OutflankRouting>::build_apm_with_engine(
            &torus,
            RoutingConfig::two_options(),
        );
        cases.push(("outflank apm".into(), outflank.unwrap().compiled, torus));
        let mesh = regular::complete(12, 2).unwrap();
        let direct = FaRouting::<crate::FullMeshRouting>::build_with_engine(
            &mesh,
            RoutingConfig::two_options(),
        );
        cases.push(("fullmesh".into(), direct.unwrap().compiled, mesh));
        let on = |workers| {
            par_map_on(workers, &cases, |(what, fa, topo)| {
                assert_certified_as_by_transpose(what, fa, topo)
            })
        };
        let verdicts = on(1);
        assert_eq!(verdicts, on(4));
        for (verdict, (what, ..)) in verdicts.iter().zip(&cases) {
            let apm = what.contains("apm");
            let expected = if apm { "Ok(());Ok(());" } else { "Ok(());Err(" };
            assert!(verdict.starts_with(expected), "{what}: {verdict}");
        }
    }

    /// Point the escape entry of `h` at switch `at` to `port` in the
    /// route cache (`None`: unprogrammed).
    fn set_escape(fa: &mut FaRouting, h: HostId, at: SwitchId, port: Option<PortIndex>) {
        let cache = &mut fa.compiled.route_cache;
        let dlid = fa.compiled.lid_map.base_lid(h).raw() as usize;
        let slot = &mut cache.slots[at.index() * cache.stride + dlid];
        *slot = match port {
            None => NO_ROUTE,
            Some(port) => {
                cache.pool.push(Arc::new(RouteOptions {
                    escape: port,
                    adaptive: AdaptiveOptions::new(),
                }));
                cache.pool.len() as u32 - 1
            }
        };
    }

    /// The second host of some switch, and a switch other than its own.
    fn second_host(topo: &Topology) -> (HostId, SwitchId) {
        let h = (topo.host_ids().skip(1))
            .find(|&h| topo.host_switch(h) == topo.host_switch(HostId(h.0 - 1)))
            .unwrap();
        let t = topo.host_switch(h);
        (h, topo.switch_ids().find(|&s| s != t).unwrap())
    }

    /// Only the second host of one switch is broken: a forwarding loop
    /// between two other switches. Its row differs from its sibling's
    /// away from their switch, so certification must walk it and refuse.
    #[test]
    fn certification_refuses_a_loop_towards_a_second_host() {
        let (topo, mut fa) = build(16, 3, 2);
        fa.certify_escape(&topo, false).unwrap();
        let (h, _) = second_host(&topo);
        let t = topo.host_switch(h);
        let (s, p, n) = (topo.switch_ids().filter(|&s| s != t))
            .find_map(|s| {
                let mut away = topo.switch_neighbors(s).filter(|&(_, n, _)| n != t);
                away.next().map(|(p, n, _)| (s, p, n))
            })
            .unwrap();
        let back = topo.port_towards(n, s).unwrap();
        set_escape(&mut fa, h, s, Some(p));
        set_escape(&mut fa, h, n, Some(back));
        let refused = fa.certify_escape(&topo, false).unwrap_err();
        assert!(
            refused.to_string().contains("does not terminate"),
            "{refused}"
        );
        assert_certified_as_by_transpose("loop", &fa, &topo);
    }

    /// A second host's entry at another switch unwired, delivering to
    /// that switch's own host, or missing: each refused with the
    /// oracle's error.
    #[test]
    fn certification_refuses_what_the_oracle_refuses() {
        // A chain's end switches have a free port.
        let topo = regular::chain(6, 2).unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let (h, s) = second_host(&topo);
        let t = topo.host_switch(h);
        let (unwired_at, unwired) = (topo.switch_ids().filter(|&u| u != t))
            .find_map(|u| {
                let mut free = (0..topo.ports_per_switch()).map(PortIndex);
                free.find(|&p| topo.endpoint(u, p).is_none())
                    .map(|p| (u, p))
            })
            .expect("a switch with a free port");
        let (local_port, _) = topo.attached_hosts(s).next().unwrap();
        let corruptions = [
            ("unwired", unwired_at, Some(unwired), "uses unwired"),
            ("wrong host", s, Some(local_port), "delivers to"),
            ("missing", s, None, "no escape entry"),
        ];
        for (what, at, port, refusal) in corruptions {
            let mut fa = fa.clone();
            set_escape(&mut fa, h, at, port);
            let refused = fa.certify_escape(&topo, false).unwrap_err();
            assert!(refused.to_string().contains(refusal), "{what}: {refused}");
            assert_certified_as_by_transpose(what, &fa, &topo);
        }
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
