//! The interleaved linear forwarding table (§4.1, Figure 1).
//!
//! IBA's *linear forwarding table* is a plain array: the DLID indexes the
//! table and each entry holds one output port. The paper's mechanism
//! keeps that external interface — the subnet manager still programs the
//! table entry-by-entry as if destinations were ordinary LIDs — but
//! organizes the memory internally as `x` interleaved modules selected by
//! the `log2(x)` least-significant bits of the address. One access then
//! returns the data at *all* `x` addresses of the aligned group
//! simultaneously: the full set of routing options of the packet's
//! destination.
//!
//! The switch decides how much of the group to use from a single header
//! bit (§4.2): if the DLID's least-significant bit is clear the packet
//! asked for deterministic routing and only the entry at the group's
//! first address (the escape/up\*/down\* option) is returned; if it is
//! set, the whole group is returned.

use iba_core::{IbaError, Lid, PortIndex};

/// Value IBA uses for an unprogrammed forwarding-table entry — also
/// what a block of raw entries (`read_block`, `write_block`) holds for
/// one.
pub const UNPROGRAMMED: u8 = 0xFF;

/// The result of one (physical) forwarding-table access for a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableLookup {
    /// The escape / deterministic option: entry at the group's first
    /// address. `None` if unprogrammed.
    pub escape: Option<PortIndex>,
    /// The adaptive options: entries at the remaining addresses of the
    /// group, de-duplicated, in module order. Empty for a deterministic
    /// request.
    pub adaptive: Vec<PortIndex>,
}

/// The first address at or after `start` that module `m` of `x` holds.
#[inline]
fn first_in_module(start: usize, m: usize, x: usize) -> usize {
    start + (m.wrapping_sub(start) & (x - 1))
}

/// A linear forwarding table stored as `x` interleaved memory modules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterleavedForwardingTable {
    /// `modules[m][row]` = entry at linear address `row * x + m`.
    modules: Vec<Vec<u8>>,
    /// Number of modules (`x`, a power of two).
    fanout: u16,
    /// Linear capacity (number of addressable LIDs).
    len: usize,
}

impl InterleavedForwardingTable {
    /// An empty (all-invalid) table of `len` linear entries organized in
    /// `fanout` modules. `fanout` must be a power of two (the module is
    /// selected by low address bits), matching `2^LMC`.
    pub fn new(len: usize, fanout: u16) -> Result<Self, IbaError> {
        if fanout == 0 || !fanout.is_power_of_two() || fanout > 128 {
            return Err(IbaError::InvalidOptionCount(fanout));
        }
        let rows = len.div_ceil(fanout as usize);
        Ok(InterleavedForwardingTable {
            modules: vec![vec![UNPROGRAMMED; rows]; fanout as usize],
            fanout,
            len,
        })
    }

    /// Extend the table to `len` linear entries with unprogrammed ones;
    /// a table already that long is left as it is.
    pub fn grow_to(&mut self, len: usize) {
        if len > self.len {
            let rows = len.div_ceil(self.fanout as usize);
            for module in &mut self.modules {
                module.resize(rows, UNPROGRAMMED);
            }
            self.len = len;
        }
    }

    /// Number of linear entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of interleaved modules (`x` = routing options per
    /// destination).
    #[inline]
    pub fn fanout(&self) -> u16 {
        self.fanout
    }

    /// `(module, row)` of a linear address; the fanout is a power of
    /// two, so the module is the low address bits.
    #[inline]
    fn split(&self, addr: usize) -> (usize, usize) {
        (
            addr & (self.fanout as usize - 1),
            addr >> self.fanout.trailing_zeros(),
        )
    }

    /// Linear (subnet-manager) write: program one entry, exactly as a
    /// spec-conformant SMP `SubnSet(LinearForwardingTable)` would.
    pub fn set(&mut self, lid: Lid, port: PortIndex) -> Result<(), IbaError> {
        let addr = lid.raw() as usize;
        if addr >= self.len {
            return Err(IbaError::UnknownLid(lid.raw()));
        }
        let (m, row) = self.split(addr);
        self.modules[m][row] = port.0;
        Ok(())
    }

    /// Linear (subnet-manager) read of one entry.
    pub fn get(&self, lid: Lid) -> Option<PortIndex> {
        let addr = lid.raw() as usize;
        if addr >= self.len {
            return None;
        }
        let (m, row) = self.split(addr);
        let v = self.modules[m][row];
        (v != UNPROGRAMMED).then_some(PortIndex(v))
    }

    /// The physical *simultaneous* access a packet triggers (Figure 1),
    /// without allocating: all modules are read at the packet's group row
    /// in parallel; the DLID's least-significant bit decides whether only
    /// the first entry (deterministic) or the whole group (adaptive) is
    /// used. Returns the escape entry (`None` if unprogrammed or out of
    /// range) and the adaptive entries, de-duplicated, in module order.
    pub(crate) fn group(
        &self,
        dlid: Lid,
    ) -> (Option<PortIndex>, impl Iterator<Item = PortIndex> + '_) {
        let addr = dlid.raw() as usize;
        let (_, row) = self.split(addr);
        let in_range = addr < self.len;
        let valid = |v: u8| (v != UNPROGRAMMED).then_some(PortIndex(v));
        let escape = in_range.then(|| valid(self.modules[0][row])).flatten();
        let modules = if in_range && dlid.requests_adaptive() {
            &self.modules[1..]
        } else {
            &[]
        };
        let adaptive = modules.iter().enumerate().filter_map(move |(m, module)| {
            let v = module[row];
            let repeated = modules[..m].iter().any(|earlier| earlier[row] == v);
            valid(v).filter(|_| !repeated)
        });
        (escape, adaptive)
    }

    /// `group` collected into an owned [`TableLookup`].
    pub fn lookup(&self, dlid: Lid) -> TableLookup {
        let (escape, adaptive) = self.group(dlid);
        TableLookup {
            escape,
            adaptive: adaptive.collect(),
        }
    }

    /// The raw entries `start .. start + out.len()` into `out`, one byte
    /// each ([`UNPROGRAMMED`] for an unprogrammed entry or one past the
    /// table), module by module: an upload walks a table block by block
    /// without a linear copy of it.
    pub fn read_block(&self, start: usize, out: &mut [u8]) {
        out.fill(UNPROGRAMMED);
        let x = self.fanout as usize;
        for (m, module) in self.modules.iter().enumerate() {
            // Past the table a module holds only unprogrammed padding,
            // and past the module `out` keeps its fill.
            let first = first_in_module(start, m, x);
            let (Some(out), Some(held)) = (
                out.get_mut(first - start..),
                module.get(first >> x.trailing_zeros()..),
            ) else {
                continue;
            };
            for (entry, &held) in out.iter_mut().step_by(x).zip(held) {
                *entry = held;
            }
        }
    }

    /// Program every entry of `entries` but the [`UNPROGRAMMED`] ones at
    /// `start + k`, module by module: one SMP's block applied at once.
    /// An entry past the table is an error and leaves the table
    /// untouched.
    pub fn write_block(&mut self, start: usize, entries: &[u8]) -> Result<(), IbaError> {
        if let Some(k) = entries.iter().rposition(|&e| e != UNPROGRAMMED) {
            if start + k >= self.len {
                return Err(IbaError::UnknownLid(
                    (start + k).min(u16::MAX as usize) as u16
                ));
            }
        }
        let x = self.fanout as usize;
        for (m, module) in self.modules.iter_mut().enumerate() {
            // Every programmed entry is inside the table, so inside the
            // module.
            let first = first_in_module(start, m, x);
            let (Some(entries), Some(held)) = (
                entries.get(first - start..),
                module.get_mut(first >> x.trailing_zeros()..),
            ) else {
                continue;
            };
            for (&entry, held) in entries.iter().step_by(x).zip(held) {
                if entry != UNPROGRAMMED {
                    *held = entry;
                }
            }
        }
        Ok(())
    }

    /// Program `count` groups alike, at interleave rows `row`,
    /// `row + step`, …: `entries[m]` goes to module `m` of each. What
    /// the linear writes of those groups' addresses would do.
    #[inline]
    pub(crate) fn set_rows(&mut self, row: usize, step: usize, count: usize, entries: &[u8]) {
        for (module, &entry) in self.modules.iter_mut().zip(entries) {
            for at in module[row..].iter_mut().step_by(step).take(count) {
                *at = entry;
            }
        }
    }

    /// View the table as the plain linear array the subnet manager sees
    /// (`None` = unprogrammed). The interleaving is invisible here — this
    /// is the compatibility guarantee of §4.1.
    pub fn linear_view(&self) -> Vec<Option<PortIndex>> {
        let mut view = vec![UNPROGRAMMED; self.len];
        self.read_block(0, &mut view);
        (view.into_iter())
            .map(|e| (e != UNPROGRAMMED).then_some(PortIndex(e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table4() -> InterleavedForwardingTable {
        InterleavedForwardingTable::new(64, 4).unwrap()
    }

    #[test]
    fn fanout_must_be_power_of_two() {
        assert!(InterleavedForwardingTable::new(16, 1).is_ok());
        assert!(InterleavedForwardingTable::new(16, 2).is_ok());
        assert!(InterleavedForwardingTable::new(16, 3).is_err());
        assert!(InterleavedForwardingTable::new(16, 0).is_err());
        assert!(InterleavedForwardingTable::new(16, 256).is_err());
    }

    #[test]
    fn linear_set_get_roundtrip() {
        let mut t = table4();
        t.set(Lid(9), PortIndex(3)).unwrap();
        assert_eq!(t.get(Lid(9)), Some(PortIndex(3)));
        assert_eq!(t.get(Lid(8)), None);
        assert!(t.set(Lid(64), PortIndex(0)).is_err());
        assert_eq!(t.get(Lid(64)), None);
    }

    #[test]
    fn group_lookup_returns_all_options_simultaneously() {
        let mut t = table4();
        // Destination owns addresses 8..12: escape at 8, adaptive at 9-11.
        t.set(Lid(8), PortIndex(0)).unwrap();
        t.set(Lid(9), PortIndex(1)).unwrap();
        t.set(Lid(10), PortIndex(2)).unwrap();
        t.set(Lid(11), PortIndex(5)).unwrap();
        // Adaptive request (LSB set).
        let r = t.lookup(Lid(9));
        assert_eq!(r.escape, Some(PortIndex(0)));
        assert_eq!(r.adaptive, vec![PortIndex(1), PortIndex(2), PortIndex(5)]);
        // Any adaptive-flagged address of the group sees the same options.
        assert_eq!(t.lookup(Lid(11)), r);
    }

    #[test]
    fn deterministic_request_returns_only_the_escape_entry() {
        let mut t = table4();
        t.set(Lid(8), PortIndex(0)).unwrap();
        t.set(Lid(9), PortIndex(1)).unwrap();
        let r = t.lookup(Lid(8)); // LSB clear
        assert_eq!(r.escape, Some(PortIndex(0)));
        assert!(r.adaptive.is_empty());
    }

    #[test]
    fn duplicate_adaptive_entries_are_deduped() {
        let mut t = table4();
        t.set(Lid(8), PortIndex(0)).unwrap();
        // Fewer real options than modules: the subnet manager fills the
        // rest with copies (§4.1); the switch must not offer duplicates.
        t.set(Lid(9), PortIndex(1)).unwrap();
        t.set(Lid(10), PortIndex(1)).unwrap();
        t.set(Lid(11), PortIndex(1)).unwrap();
        assert_eq!(t.lookup(Lid(9)).adaptive, vec![PortIndex(1)]);
    }

    #[test]
    fn unprogrammed_entries_are_invisible() {
        let t = table4();
        let r = t.lookup(Lid(9));
        assert_eq!(r.escape, None);
        assert!(r.adaptive.is_empty());
    }

    #[test]
    fn out_of_range_lookup_is_empty() {
        let t = table4();
        let r = t.lookup(Lid(1000));
        assert_eq!(r.escape, None);
        assert!(r.adaptive.is_empty());
    }

    #[test]
    fn grow_to_extends_with_unprogrammed_entries_and_never_shrinks() {
        let mut t = InterleavedForwardingTable::new(6, 4).unwrap();
        t.set(Lid(5), PortIndex(2)).unwrap();
        t.grow_to(64);
        assert_eq!(t.len(), 64);
        assert_eq!(t.get(Lid(5)), Some(PortIndex(2)));
        assert_eq!(t.get(Lid(6)), None);
        t.set(Lid(63), PortIndex(1)).unwrap();
        t.grow_to(8);
        assert_eq!(t.len(), 64);
        assert_eq!(t.get(Lid(63)), Some(PortIndex(1)));
        // A grown table equals one allocated at that length and written alike.
        let mut eager = InterleavedForwardingTable::new(64, 4).unwrap();
        eager.set(Lid(5), PortIndex(2)).unwrap();
        eager.set(Lid(63), PortIndex(1)).unwrap();
        assert_eq!(t, eager);
    }

    #[test]
    fn fanout_one_behaves_like_a_plain_linear_table() {
        let mut t = InterleavedForwardingTable::new(8, 1).unwrap();
        t.set(Lid(3), PortIndex(2)).unwrap();
        let r = t.lookup(Lid(3)); // LSB set but there are no extra modules
        assert_eq!(r.escape, Some(PortIndex(2)));
        assert!(r.adaptive.is_empty());
    }

    proptest! {
        /// The interleaved organization is externally equivalent to a
        /// plain linear table: writing through the linear interface and
        /// reading back (entry-wise or via linear_view) agrees with a
        /// shadow Vec, for any fanout.
        #[test]
        fn prop_interleaved_equals_linear(
            fanout_log in 0u32..4,
            writes in proptest::collection::vec((0usize..128, 0u8..16), 0..200)
        ) {
            let fanout = 1u16 << fanout_log;
            let mut t = InterleavedForwardingTable::new(128, fanout).unwrap();
            let mut shadow: Vec<Option<PortIndex>> = vec![None; 128];
            for (addr, port) in writes {
                t.set(Lid(addr as u16), PortIndex(port)).unwrap();
                shadow[addr] = Some(PortIndex(port));
            }
            for (a, &expect) in shadow.iter().enumerate() {
                prop_assert_eq!(t.get(Lid(a as u16)), expect);
            }
            prop_assert_eq!(t.linear_view(), shadow.clone());
            // Block reads see the same array, past its end included.
            let mut block = [0u8; 24];
            for start in (0..128 + 24).step_by(24) {
                t.read_block(start, &mut block);
                for (k, &entry) in block.iter().enumerate() {
                    let want = shadow.get(start + k).copied().flatten();
                    prop_assert_eq!(entry, want.map_or(UNPROGRAMMED, |p| p.0));
                }
            }
        }

        /// Full `set`/`get` round-trip across every legal fanout and
        /// arbitrary table lengths — including lengths that leave the
        /// last interleave row partially filled and straddle the SM's
        /// 64-entry LFT upload blocks. Out-of-range writes must error
        /// without perturbing any in-range entry; out-of-range reads
        /// are `None`.
        #[test]
        fn prop_set_get_roundtrip_across_fanouts_blocks_and_range(
            fanout_log in 0u32..8,
            len in 1usize..300,
            writes in proptest::collection::vec((0usize..512, 0u8..32), 0..300)
        ) {
            let fanout = 1u16 << fanout_log; // 1..=128, every legal value
            let mut t = InterleavedForwardingTable::new(len, fanout).unwrap();
            let mut shadow: Vec<Option<PortIndex>> = vec![None; len];
            for (addr, port) in writes {
                if addr < len {
                    t.set(Lid(addr as u16), PortIndex(port)).unwrap();
                    shadow[addr] = Some(PortIndex(port));
                } else {
                    prop_assert!(t.set(Lid(addr as u16), PortIndex(port)).is_err());
                }
            }
            // Probe past the end too (to 512 > any len): every in-range
            // entry reads back exactly, every out-of-range read is None
            // — i.e. rejected writes really left no trace.
            for a in 0..512usize {
                let expect = shadow.get(a).copied().flatten();
                prop_assert_eq!(t.get(Lid(a as u16)), expect);
            }
            prop_assert_eq!(t.len(), len);
            prop_assert_eq!(t.fanout(), fanout);
        }

        /// Block I/O is entry I/O, at fanouts 1, 2, 4, 8 and 128, on
        /// lengths that leave the last block partial and at blocks past
        /// the table: `write_block` leaves the table as `set` of each of
        /// its `Some` entries does — or, when one falls past the table,
        /// errs and changes nothing — and `read_block` reads what `get`
        /// reads.
        #[test]
        fn prop_block_io_equals_entry_io(
            fanout_pick in 0usize..5,
            len in 1usize..300,
            writes in proptest::collection::vec(
                (0usize..7, proptest::collection::vec(0u8..24, 0..80)), 1..12),
        ) {
            let fanout = [1u16, 2, 4, 8, 128][fanout_pick];
            let mut blockwise = InterleavedForwardingTable::new(len, fanout).unwrap();
            let mut entrywise = blockwise.clone();
            for (block, raw) in writes {
                let start = block * 64;
                // Values from 16 up stand for unprogrammed entries.
                let entries: Vec<u8> =
                    raw.iter().map(|&v| if v < 16 { v } else { UNPROGRAMMED }).collect();
                let fits = (entries.iter().enumerate())
                    .all(|(k, &e)| e == UNPROGRAMMED || start + k < len);
                prop_assert_eq!(blockwise.write_block(start, &entries).is_ok(), fits);
                if fits {
                    for (k, &port) in entries.iter().enumerate() {
                        if port != UNPROGRAMMED {
                            entrywise.set(Lid((start + k) as u16), PortIndex(port)).unwrap();
                        }
                    }
                }
                prop_assert_eq!(&blockwise, &entrywise);
            }
            // Reads at any start, aligned or not, past the table too.
            let mut block = [0u8; 64];
            for start in (0..len + 128).step_by(61) {
                blockwise.read_block(start, &mut block);
                for (k, &entry) in block.iter().enumerate() {
                    let want = entrywise.get(Lid((start + k) as u16));
                    prop_assert_eq!(entry, want.map_or(UNPROGRAMMED, |p| p.0));
                }
            }
        }

        /// The allocation-free group read returns what `lookup` returns,
        /// and both agree with the linear view — escape is the entry at
        /// the group base, adaptive the de-duplicated non-base entries of
        /// an odd DLID — for fanouts 1–8, inside and past the table.
        #[test]
        fn prop_group_read_matches_lookup_and_linear_semantics(
            fanout_log in 0u32..4,
            len in 1usize..100,
            writes in proptest::collection::vec((0usize..100, 0u8..16), 0..150),
            probe in 0usize..140
        ) {
            let fanout = 1usize << fanout_log;
            let mut t = InterleavedForwardingTable::new(len, fanout as u16).unwrap();
            for (addr, port) in writes {
                let _ = t.set(Lid(addr as u16), PortIndex(port)); // some fall past `len`
            }
            let dlid = Lid(probe as u16);
            let (escape, adaptive) = t.group(dlid);
            let adaptive: Vec<PortIndex> = adaptive.collect();
            let r = t.lookup(dlid);
            prop_assert_eq!(r.escape, escape);
            prop_assert_eq!(&r.adaptive, &adaptive);

            let view = t.linear_view();
            let base = probe / fanout * fanout;
            let mut expect = Vec::new();
            if probe < len && probe % 2 == 1 {
                for v in view[(base + 1).min(len)..(base + fanout).min(len)].iter().flatten() {
                    if !expect.contains(v) {
                        expect.push(*v);
                    }
                }
            }
            prop_assert_eq!(escape, if probe < len { view[base] } else { None });
            prop_assert_eq!(adaptive, expect);
        }
    }
}
