//! Reliable SMP delivery: timeout and bounded retransmit.
//!
//! VL15 is unacknowledged and unbuffered — the spec makes subnet
//! management packets *best effort* and puts the reliability burden on
//! the SM itself. This module is that burden: [`ReliableSender`] wraps
//! `ManagedFabric::send` with a bounded retransmit loop. A lost SMP
//! (or a directed route that silently fell off the fabric — the SM
//! cannot tell the difference, nothing answers either way) is retried
//! up to [`RetryPolicy::max_attempts`] times. Two exhaustion levels
//! exist:
//!
//! * **per-SMP**: all attempts used → the destination is declared
//!   [`SendOutcome::Unreachable`] and surfaced as a partition entry
//!   instead of being retried forever;
//! * **per-sweep**: the cumulative retransmit budget ran out →
//!   [`SendOutcome::BudgetExhausted`], and the sweep reports *partial*
//!   convergence rather than silently wedging.

use crate::mad::{Smp, SmpResponse};
use crate::managed::ManagedFabric;
use iba_core::{FlightEvent, IbaError};

/// Cap on retransmit events kept for the flight recorder; past this the
/// counters keep counting but the per-event log stops growing.
pub(crate) const MAX_LOGGED_RETRANSMITS: usize = 256;

/// Retry parameters of one management sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per SMP (first send included).
    pub max_attempts: u32,
    /// Cumulative retransmits allowed across the whole sweep; once
    /// spent, the sweep stops and reports partial convergence.
    pub(crate) sweep_budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            sweep_budget: 100_000,
        }
    }
}

/// The policy behind the plain (non-`_robust`) entry points: every SMP
/// is sent exactly once, so the retransmit budget is never touched and
/// a destination that does not answer is reported after one timeout —
/// which the plain caller turns into its hard error.
pub(crate) fn send_once() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    }
}

/// Counters a retried sweep accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// SMPs re-sent after a timeout.
    pub retransmits: u64,
    /// Whether the sweep's retransmit budget ran out.
    pub(crate) budget_exhausted: bool,
}

/// What one reliable send concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum SendOutcome {
    /// A response arrived (possibly `Unsupported` — delivery says
    /// nothing about the agent liking the request).
    Delivered(SmpResponse),
    /// Every attempt timed out: the destination is partitioned from the
    /// SM as far as VL15 can tell.
    Unreachable,
    /// The sweep-wide retransmit budget ran out mid-send.
    BudgetExhausted,
}

/// The reliable transport: policy + counters + capped retransmit log.
#[derive(Debug)]
pub struct ReliableSender {
    policy: RetryPolicy,
    /// Counters (public so sweep reports can fold them in).
    pub stats: RetryStats,
    events: Vec<FlightEvent>,
}

impl ReliableSender {
    /// Build a sender; rejects degenerate policies.
    pub(crate) fn new(policy: RetryPolicy) -> Result<ReliableSender, IbaError> {
        if policy.max_attempts == 0 {
            return Err(IbaError::InvalidConfig(
                "retry policy needs at least one attempt".into(),
            ));
        }
        Ok(ReliableSender {
            policy,
            stats: RetryStats::default(),
            events: Vec::new(),
        })
    }

    /// The policy this sender runs.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Retransmit events logged so far (capped at
    /// `MAX_LOGGED_RETRANSMITS`).
    pub fn events(&self) -> &[FlightEvent] {
        &self.events
    }

    /// Consume the sender, keeping the event log.
    pub(crate) fn into_events(self) -> Vec<FlightEvent> {
        self.events
    }

    /// Send `smp` reliably: retransmit on timeout until a response
    /// arrives, the per-SMP attempts run out, or the sweep budget is
    /// spent. `BadRoute` walks are treated
    /// exactly like timeouts — on the wire both look the same (no
    /// response ever comes back), so the SM must not distinguish them.
    pub(crate) fn send(&mut self, fabric: &mut ManagedFabric, smp: &Smp) -> SendOutcome {
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                if self.stats.retransmits >= self.policy.sweep_budget {
                    self.stats.budget_exhausted = true;
                    return SendOutcome::BudgetExhausted;
                }
                self.stats.retransmits += 1;
                if self.events.len() < MAX_LOGGED_RETRANSMITS {
                    self.events.push(FlightEvent::SmpRetransmit {
                        tid: smp.tid,
                        attempt,
                        hops: smp.route.len().min(u8::MAX as usize) as u8,
                    });
                }
            }
            match fabric.send(smp) {
                SmpResponse::Timeout | SmpResponse::BadRoute => {}
                resp => return SendOutcome::Delivered(resp),
            }
        }
        SendOutcome::Unreachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mad::{DirectedRoute, SmpAttribute, SmpMethod};
    use iba_core::ServiceLevel;
    use iba_topology::regular;

    fn node_info(tid: u64) -> Smp {
        Smp {
            method: SmpMethod::Get,
            attribute: SmpAttribute::NodeInfo,
            route: DirectedRoute::local(),
            tid,
            sl: ServiceLevel(0),
        }
    }

    #[test]
    fn lossless_delivery_needs_no_retries() {
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let mut tx = ReliableSender::new(RetryPolicy::default()).unwrap();
        let out = tx.send(&mut fab, &node_info(1));
        assert!(matches!(
            out,
            SendOutcome::Delivered(SmpResponse::NodeInfo { .. })
        ));
        assert_eq!(tx.stats, RetryStats::default());
        assert!(tx.events().is_empty());
    }

    #[test]
    fn total_loss_retries_then_declares_unreachable() {
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        fab.set_smp_faults(1.0, 7).unwrap();
        let mut tx = ReliableSender::new(RetryPolicy {
            max_attempts: 4,
            sweep_budget: 1_000,
        })
        .unwrap();
        let out = tx.send(&mut fab, &node_info(42));
        assert_eq!(out, SendOutcome::Unreachable);
        assert_eq!(tx.stats.retransmits, 3);
        let attempts: Vec<u32> = tx
            .events()
            .iter()
            .map(|e| match e {
                FlightEvent::SmpRetransmit { attempt, tid, .. } => {
                    assert_eq!(*tid, 42);
                    *attempt
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(attempts, vec![2, 3, 4]);
    }

    #[test]
    fn sweep_budget_cuts_the_retry_loop_short() {
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        fab.set_smp_faults(1.0, 3).unwrap();
        let mut tx = ReliableSender::new(RetryPolicy {
            max_attempts: 8,
            sweep_budget: 2,
        })
        .unwrap();
        let out = tx.send(&mut fab, &node_info(1));
        assert_eq!(out, SendOutcome::BudgetExhausted);
        assert_eq!(tx.stats.retransmits, 2);
        assert!(tx.stats.budget_exhausted);
    }

    #[test]
    fn bad_routes_look_exactly_like_loss() {
        // A route that falls off the fabric gets retried and declared
        // unreachable — the SM cannot (and must not) tell a dead route
        // from a lossy one.
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let mut tx = ReliableSender::new(RetryPolicy {
            max_attempts: 3,
            sweep_budget: 100,
        })
        .unwrap();
        let smp = Smp {
            route: DirectedRoute::local().then(iba_core::PortIndex(99)),
            ..node_info(9)
        };
        assert_eq!(tx.send(&mut fab, &smp), SendOutcome::Unreachable);
    }

    #[test]
    fn degenerate_policies_are_rejected() {
        assert!(ReliableSender::new(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        })
        .is_err());
    }
}
