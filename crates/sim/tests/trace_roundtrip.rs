//! Packet-journey rendering: `describe()` output is pinned against a
//! golden rendering so downstream tooling can rely on it.

use iba_core::{DropCause, HostId, PortIndex, SimTime, SwitchId, VirtualLane};
use iba_sim::{PacketTrace, TraceStep};

fn t(ns: u64) -> SimTime {
    SimTime::from_ns(ns)
}

/// A hand-built journey exercising every step variant.
fn full_trace() -> PacketTrace {
    PacketTrace {
        steps: vec![
            (t(100), TraceStep::Generated { host: HostId(0) }),
            (t(150), TraceStep::Injected),
            (
                t(250),
                TraceStep::ArrivedAt {
                    sw: SwitchId(1),
                    port: PortIndex(4),
                    vl: VirtualLane(0),
                },
            ),
            (
                t(350),
                TraceStep::Forwarded {
                    sw: SwitchId(1),
                    out_port: PortIndex(2),
                    via_escape: true,
                    from_escape_head: true,
                },
            ),
            (
                t(400),
                TraceStep::Forwarded {
                    sw: SwitchId(2),
                    out_port: PortIndex(0),
                    via_escape: false,
                    from_escape_head: false,
                },
            ),
            (t(800), TraceStep::Delivered { host: HostId(5) }),
        ],
    }
}

#[test]
fn describe_matches_golden_rendering() {
    let golden = "       100ns  generated at h0
       150ns  injected
       250ns  header at sw1 p4 VL0
       350ns  sw1 → p2 via ESCAPE option (escape read point)
       400ns  sw2 → p0 via adaptive option
       800ns  delivered at h5
";
    assert_eq!(full_trace().describe(), golden);

    let dropped = PacketTrace {
        steps: vec![
            (
                t(2_000),
                TraceStep::Dropped {
                    sw: SwitchId(3),
                    cause: DropCause::LinkDown,
                },
            ),
            (
                t(2_500),
                TraceStep::Dropped {
                    sw: SwitchId(0),
                    cause: DropCause::SourceQueueFull,
                },
            ),
        ],
    };
    let golden_dropped = "     2.000us  DROPPED on the dead link into sw3
     2.500us  DROPPED before sw0: source queue full
";
    assert_eq!(dropped.describe(), golden_dropped);
}
