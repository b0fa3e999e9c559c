//! Simplified subnet-management packets (SMPs).
//!
//! Real IBA subnet management rides on 256-byte MADs; this model keeps
//! the fields the bring-up logic actually consumes. The essential piece
//! is **directed-route addressing**: before any LID is assigned, an SMP
//! carries an explicit list of output ports to take at each switch hop,
//! and agents process it when the hop pointer reaches the end of the
//! path. Responses retrace the same path backwards.

use iba_core::{Lid, PortIndex, ServiceLevel, VirtualLane};

/// A directed route: the output port to take at each successive switch,
/// starting from the SM's attachment switch. An empty path addresses the
/// attachment switch itself.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct DirectedRoute {
    /// Output ports, outermost hop first.
    pub hops: Vec<PortIndex>,
}

impl DirectedRoute {
    /// The empty route (the SM's own switch).
    pub(crate) fn local() -> DirectedRoute {
        DirectedRoute::default()
    }

    /// Extend the route by one hop.
    pub(crate) fn then(&self, port: PortIndex) -> DirectedRoute {
        let mut hops = self.hops.clone();
        hops.push(port);
        DirectedRoute { hops }
    }

    /// Number of switch hops.
    pub(crate) fn len(&self) -> usize {
        self.hops.len()
    }
}

/// SMP methods (the two the bring-up needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SmpMethod {
    /// `SubnGet` — read an attribute.
    Get,
    /// `SubnSet` — write an attribute.
    Set,
}

/// Management attributes, with their `Set` payloads inline.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SmpAttribute {
    /// Node identity: kind, GUID, port count.
    NodeInfo,
    /// State of one port: what it is wired to (link sensing).
    PortInfo {
        /// The queried port.
        port: PortIndex,
    },
    /// Assign the switch's LID-facing identity (not used for forwarding
    /// by switches, but kept for spec shape).
    SwitchInfo {
        /// The switch's own management LID.
        lid: Lid,
    },
    /// One 64-entry block of the linear forwarding table.
    LinearForwardingTable {
        /// Block index: entries `block*64 .. block*64+63`.
        block: u32,
        /// Entry payload for `Set`, one port byte per entry
        /// ([`iba_routing::UNPROGRAMMED`] entries are skipped); ignored
        /// for `Get`.
        entries: Vec<u8>,
    },
    /// One (input port, output port) row of the SLtoVL table.
    SlToVlMappingTable {
        /// Input port of the row.
        input: PortIndex,
        /// Output port of the row.
        output: PortIndex,
        /// The 16 VL values for `Set`; ignored for `Get`.
        vls: Vec<VirtualLane>,
    },
}

/// A subnet-management packet.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Smp {
    /// Method.
    pub(crate) method: SmpMethod,
    /// Attribute (with payload for `Set`).
    pub(crate) attribute: SmpAttribute,
    /// Directed route from the SM's switch to the target.
    pub(crate) route: DirectedRoute,
    /// Transaction id (for bookkeeping and tests).
    pub(crate) tid: u64,
    /// SL of the management packet (always 0 here; SMPs ride VL15 in the
    /// spec, outside the data VLs this model simulates).
    pub sl: ServiceLevel,
}

/// What kind of node answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// A switch with the given port count.
    Switch {
        /// Physical ports.
        ports: u8,
    },
    /// A channel adapter (host).
    Host,
}

/// The remote end a `PortInfo` query reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PortState {
    /// Nothing connected.
    Down,
    /// Link trained; the remote GUID and port are readable through the
    /// peer's own NodeInfo once visited.
    Up,
}

/// SMP responses.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SmpResponse {
    /// Answer to `Get(NodeInfo)`.
    NodeInfo {
        /// Node kind (and port count for switches).
        kind: NodeKind,
        /// Globally unique id — stable across discovery sweeps.
        guid: u64,
    },
    /// Answer to `Get(PortInfo)`.
    PortInfo {
        /// Link state of the queried port.
        state: PortState,
    },
    /// Answer to `Get(LinearForwardingTable)`.
    LftBlock {
        /// The 64 entries of the block, one port byte each
        /// ([`iba_routing::UNPROGRAMMED`] = unprogrammed).
        entries: [u8; crate::managed::LFT_BLOCK],
    },
    /// Generic success for `Set`.
    Ok,
    /// The directed route left the fabric or addressed a down port.
    BadRoute,
    /// Attribute/method combination not supported.
    Unsupported,
    /// No response arrived: the SMP (or its reply) was lost in transit.
    /// VL15 is unacknowledged and unbuffered in the spec, so loss is
    /// silent — the SM only ever observes it as a response timeout.
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_route_building() {
        let r = DirectedRoute::local();
        assert_eq!(r.len(), 0);
        let r2 = r.then(PortIndex(3)).then(PortIndex(1));
        assert_eq!(r2.len(), 2);
        assert_eq!(r2.hops, vec![PortIndex(3), PortIndex(1)]);
        // `then` does not mutate the original.
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn smp_roundtrips_through_clone_eq() {
        let smp = Smp {
            method: SmpMethod::Set,
            attribute: SmpAttribute::LinearForwardingTable {
                block: 2,
                entries: vec![1; 64],
            },
            route: DirectedRoute::local().then(PortIndex(0)),
            tid: 7,
            sl: ServiceLevel(0),
        };
        assert_eq!(smp.clone(), smp);
    }
}
