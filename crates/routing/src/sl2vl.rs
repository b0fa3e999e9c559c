//! The SLtoVL mapping table (§4.4).
//!
//! In IBA, the virtual lane a packet uses on its next hop is computed
//! from the input port, the selected output port and the packet's service
//! level, through the per-switch SLtoVL table. The paper's mechanism
//! deliberately leaves this machinery untouched: the adaptive and escape
//! queues live *inside* one VL's buffer, so the SLtoVL table keeps its
//! spec-defined role.
//!
//! The default mapping used in the evaluation is the identity (`SL n →
//! VL n`, clamped to the number of data VLs the switch operates), which
//! is what subnet managers program when no QoS separation is requested.

use iba_core::{IbaError, PortIndex, ServiceLevel, VirtualLane};

/// A per-switch SLtoVL table.
///
/// Indexed by `(input port, output port, SL)`. Input port `None`
/// represents packets injected by the switch's own management interface —
/// not used by the data-path model, but kept for spec shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlToVlTable {
    ports: u8,
    /// `map[in_port * ports + out_port][sl]` → VL: one flat row per
    /// port pair, so a lookup on the arbitration path is one load.
    map: Vec<[u8; ServiceLevel::COUNT]>,
}

impl SlToVlTable {
    /// Identity mapping over `data_vls` lanes for a switch with `ports`
    /// ports: `SL n → VL (n mod data_vls)`.
    pub fn identity(ports: u8, data_vls: u8) -> Result<SlToVlTable, IbaError> {
        if data_vls == 0 || data_vls as usize > VirtualLane::COUNT - 1 {
            return Err(IbaError::InvalidConfig(format!(
                "data VL count {data_vls} outside 1..=15"
            )));
        }
        let mut row = [0u8; ServiceLevel::COUNT];
        for (sl, vl) in row.iter_mut().enumerate() {
            *vl = (sl % data_vls as usize) as u8;
        }
        Ok(SlToVlTable {
            ports,
            map: vec![row; ports as usize * ports as usize],
        })
    }

    /// Program a whole `(input, output)` row — one SMP's payload, a VL
    /// per SL in SL order. A row
    /// that is not [`ServiceLevel::COUNT`] long is an error, and an
    /// error leaves the table untouched.
    pub fn set_row(
        &mut self,
        input: PortIndex,
        output: PortIndex,
        vls: &[VirtualLane],
    ) -> Result<(), IbaError> {
        if input.index() >= self.ports as usize || output.index() >= self.ports as usize {
            return Err(IbaError::InvalidConfig(format!(
                "port out of range ({input}, {output})"
            )));
        }
        let at = self.row(input, output);
        let row = &mut self.map[at];
        if vls.len() != row.len() {
            return Err(IbaError::InvalidConfig(format!(
                "SLtoVL row of {} entries, not {}",
                vls.len(),
                row.len()
            )));
        }
        for (entry, vl) in row.iter_mut().zip(vls) {
            *entry = vl.0;
        }
        Ok(())
    }

    /// The VL a packet with service level `sl`, arriving on `input` and
    /// leaving through `output`, must use on the downstream link.
    #[inline]
    pub fn vl_for(&self, input: PortIndex, output: PortIndex, sl: ServiceLevel) -> VirtualLane {
        VirtualLane(self.map[self.row(input, output)][sl.index()])
    }

    /// The row of the `(input, output)` pair in `map`.
    #[inline]
    fn row(&self, input: PortIndex, output: PortIndex) -> usize {
        input.index() * self.ports as usize + output.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_maps_sl_to_same_vl() {
        let t = SlToVlTable::identity(8, 4).unwrap();
        assert_eq!(
            t.vl_for(PortIndex(0), PortIndex(1), ServiceLevel(2)),
            VirtualLane(2)
        );
        // Clamped modulo the data VL count.
        assert_eq!(
            t.vl_for(PortIndex(3), PortIndex(2), ServiceLevel(5)),
            VirtualLane(1)
        );
    }

    #[test]
    fn single_vl_collapses_everything_to_vl0() {
        let t = SlToVlTable::identity(8, 1).unwrap();
        for sl in 0..16 {
            assert_eq!(
                t.vl_for(PortIndex(0), PortIndex(7), ServiceLevel(sl)),
                VirtualLane(0)
            );
        }
    }

    proptest! {
        /// A row write is sixteen entry writes: `set_row` leaves the
        /// table as writing each SL's entry in order does, and a row of the
        /// wrong length or on a port past the switch errs and changes
        /// nothing.
        #[test]
        fn prop_row_write_equals_entry_writes(
            ports in 1u8..8,
            rows in proptest::collection::vec(
                (0u8..10, 0u8..10, proptest::collection::vec(0u8..15, 14..18)), 1..20),
        ) {
            let mut rowwise = SlToVlTable::identity(ports, 1).unwrap();
            let mut entrywise = rowwise.clone();
            for (input, output, vls) in rows {
                let (input, output) = (PortIndex(input), PortIndex(output));
                let vls: Vec<VirtualLane> = vls.into_iter().map(VirtualLane).collect();
                let fits = input.0 < ports && output.0 < ports && vls.len() == ServiceLevel::COUNT;
                prop_assert_eq!(rowwise.set_row(input, output, &vls).is_ok(), fits);
                if fits {
                    for (sl, vl) in vls.iter().enumerate() {
                        let row = entrywise.row(input, output);
                        entrywise.map[row][sl] = vl.0;
                    }
                }
                prop_assert_eq!(&rowwise.map, &entrywise.map);
            }
        }
    }

    #[test]
    fn rejects_bad_vl_counts() {
        assert!(SlToVlTable::identity(8, 0).is_err());
        assert!(SlToVlTable::identity(8, 16).is_err());
        assert!(SlToVlTable::identity(8, 15).is_ok());
    }
}
