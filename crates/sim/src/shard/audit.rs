//! What is asked of a shard after, or about, a run: quiescence,
//! residuals, the credit audit, utilisation, and the debug hooks.

use super::*;

impl Shard<'_> {
    /// The oracle behind `SwitchState::blocked` (debug builds, every
    /// pass): looking into a skipped input must grant nothing. Nobody
    /// listens to its looks, so an armed run is checked like a bare one.
    pub(super) fn assert_blocked_inputs_cannot_be_granted(&mut self, now: SimTime, sw: SwitchId) {
        let observers = self.observers.take();
        let st = &self.switches[sw.index()];
        let mut skipped = st.occupied_inputs & st.blocked;
        while skipped != 0 {
            let ip = skipped.trailing_zeros() as usize;
            skipped &= skipped - 1;
            assert!(
                self.switches[sw.index()].inputs[ip].read_busy_until > now
                    || self.pick_for_input(now, sw, ip).is_err(),
                "{sw} input {ip} is grantable at {now:?} but marked blocked: an unblock is missing"
            );
        }
        self.observers = observers;
    }

    /// Quiescence of one switch: every buffer empty with zero occupancy
    /// and every live sender-side counter back at capacity. Only
    /// meaningful on the owning shard.
    pub(crate) fn switch_quiescent(&self, si: usize) -> bool {
        let cap = self.config.vl_buffer_credits;
        let sw = &self.switches[si];
        sw.inputs.iter().all(|ip| {
            ip.vls
                .iter()
                .all(|b| b.is_empty() && b.occupied() == Credits::ZERO)
        }) && sw.outputs.iter().all(|op| {
            op.credits
                .as_ref()
                .is_none_or(|cs| cs.iter().all(|&c| c == cap))
        })
    }

    /// Quiescence of one host: empty source queue, counters at capacity.
    pub(crate) fn host_quiescent(&self, hi: usize) -> bool {
        let cap = self.config.vl_buffer_credits;
        let h = &self.hosts[hi];
        h.queue.is_empty() && h.credits.iter().all(|&c| c == cap)
    }

    /// Packets resident in one switch's VL buffers.
    pub(crate) fn switch_residual(&self, si: usize) -> usize {
        self.switches[si]
            .inputs
            .iter()
            .flat_map(|ip| ip.vls.iter())
            .map(|b| b.len())
            .sum()
    }

    /// Packets waiting in one host's source queue.
    pub(crate) fn host_residual(&self, hi: usize) -> usize {
        self.hosts[hi].queue.len()
    }

    /// Credit-audit lines for one switch (see `Network::credit_audit`);
    /// ports masked by an open fault window are skipped.
    pub(crate) fn audit_switch_into(&self, si: usize, out: &mut Vec<String>) {
        let cap = self.config.vl_buffer_credits;
        let sw = &self.switches[si];
        for (p, op) in sw.outputs.iter().enumerate() {
            if !sw.link_up(p) {
                continue;
            }
            let Some(cs) = op.credits.as_ref() else {
                continue;
            };
            for (v, &c) in cs.iter().enumerate() {
                if c != cap {
                    out.push(format!(
                        "switch {si} port {p} vl {v}: {}/{} credits",
                        c.count(),
                        cap.count()
                    ));
                }
            }
        }
    }

    /// Credit-audit lines for one host; a host behind a masked
    /// attachment port is skipped.
    pub(crate) fn audit_host_into(&self, hi: usize, out: &mut Vec<String>) {
        let cap = self.config.vl_buffer_credits;
        let h = &self.hosts[hi];
        let (sw, port) = self.topo.host_attachment(HostId(hi as u16));
        if !self.switches[sw.index()].link_up(port.index()) {
            return;
        }
        for (v, &c) in h.credits.iter().enumerate() {
            if c != cap {
                out.push(format!(
                    "host {hi} vl {v}: {}/{} credits",
                    c.count(),
                    cap.count()
                ));
            }
        }
    }

    /// Cumulative transmission time per output port of one switch
    /// (utilization probe numerator).
    pub(crate) fn port_busy_row(&self, si: usize) -> Vec<u64> {
        self.switches[si]
            .outputs
            .iter()
            .map(|op| op.busy_ns_total)
            .collect()
    }

    /// Test hook: zero the sender-side credit counters of one output
    /// port without marking the link down. Nothing can be forwarded
    /// through the port (and, with nothing in flight, no credits ever
    /// return), which wedges any buffer whose packets have no other
    /// feasible option — the credit-withholding flavour of a fabric
    /// wedge, as opposed to the dead-escape-link flavour.
    pub(crate) fn debug_block_output(&mut self, sw: SwitchId, port: PortIndex) {
        if let Some(cs) = self.switches[sw.index()].outputs[port.index()]
            .credits
            .as_mut()
        {
            for c in cs.iter_mut() {
                *c = Credits::ZERO;
            }
        }
    }
}
