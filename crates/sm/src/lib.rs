//! # iba-sm
//!
//! A model of the IBA **subnet manager** — the entity the paper charges
//! with deploying its mechanism: "Forwarding tables are filled by the
//! subnet manager at initialization time... once the different routing
//! choices have been computed for a given destination port, the subnet
//! manager stores them in a range of addresses of the forwarding tables,
//! as if they were different destinations" (§4.1).
//!
//! The crate models subnet bring-up the way the spec shapes it:
//!
//! * [`mad`] — simplified subnet-management packets (SMPs) with
//!   *directed-route* addressing: before LIDs exist, the SM steers a
//!   packet by listing the output port to take at each hop;
//! * [`managed`] — the switch-resident management agent: a port-count,
//!   a GUID, an LFT and an SLtoVL table that only change through SMPs;
//! * [`discovery`] — the breadth-first directed-route sweep that
//!   reconstructs the fabric graph purely through `SubnGet(NodeInfo)` /
//!   `SubnGet(PortInfo)` exchanges;
//! * [`program`] — LID assignment and forwarding-table upload in the
//!   spec's 64-entry linear-forwarding-table blocks, from an
//!   [`iba_routing::FaRouting`] path computation;
//! * [`retry`] — reliable SMP delivery over the spec's best-effort
//!   VL15: bounded retransmit, per-sweep retry budgets, and partition
//!   reporting when every retry is exhausted;
//! * [`apm`] — the §4.1 coexistence scheme: the LMC address range is
//!   partitioned by a high bit into *adaptive routing options* and
//!   *Automatic Path Migration* alternate paths, so both mechanisms use
//!   disjoint LIDs ("the subnet manager should guarantee that the APM
//!   mechanism uses different LIDs from those used for adaptive
//!   routing").
//!
//! The [`SubnetManager`] façade runs the whole
//! pipeline: discover → assign LIDs → compute routes → program → verify.

#![warn(missing_docs)]

pub mod apm;
pub mod discovery;
pub mod mad;
pub mod managed;
pub mod program;
pub mod retry;
pub mod sm;

pub use apm::ApmPlan;
pub use discovery::Discoverer;
pub use managed::ManagedFabric;
pub use program::Programmer;
pub use retry::{ReliableSender, RetryPolicy, RetryStats, SendOutcome};
pub use sm::{BringUp, Resweep, RobustBringUp, RobustResweep, SubnetManager, SweepReport};
