//! Point-to-point message cost model — the one home of every message
//! charge the simulator and the what-if replay make.
//!
//! A LogGP-flavoured model with an eager/rendezvous protocol switch, the
//! same structure MPI implementations expose and the shape NetPIPE measures
//! (paper Figure 5):
//!
//! * **eager** (small messages): `o + L + n / B`
//! * **rendezvous** (large messages): `o + 3·L + n / B` — the extra
//!   round-trip is the ready-to-send handshake.
//!
//! `L` is the one-way latency (~1 µs on both of the paper's systems), `o`
//! the sender's injection overhead, and `B` the *effective* bandwidth (the
//! paper: ~27 of 32 Gb/s on NaCL, ~86 of 100 Gb/s on Stampede2). Measured
//! bandwidth therefore rises from a few percent of peak at 256 B toward
//! `B_eff / B_peak` (84–86 %) for megabyte messages — exactly the Figure 5
//! curves, including the small dip at the protocol switch.
//!
//! On top of the wire sits the runtime's dedicated communication thread:
//! every message costs it [`NetworkModel::msg_cost`] of processing on each
//! end. [`NetworkModel::send_busy`], [`NetworkModel::arrival`] and
//! [`NetworkModel::edge_delay`] compose the two; the receive charge is
//! `msg_cost` itself.

use machine::MachineProfile;
use serde::Serialize;

/// Cost model for one interconnect and the comm thread that drives it.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkModel {
    /// One-way latency, seconds.
    pub latency: f64,
    /// Per-message injection overhead, seconds.
    pub overhead: f64,
    /// Effective bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Theoretical peak bandwidth, bytes/s (for percent-of-peak reporting).
    pub peak_bandwidth: f64,
    /// Eager→rendezvous protocol switch point, bytes.
    pub rendezvous_threshold: usize,
    /// Per-message processing on the runtime's communication thread,
    /// seconds, charged once on each end (the profile's
    /// `runtime_msg_cost`). This per-message work, amortized by the CA
    /// scheme's fewer and larger messages, is the resource the paper's
    /// Figures 8–10 are about.
    pub msg_cost: f64,
}

impl NetworkModel {
    /// Build the model from a machine profile's network parameters.
    pub fn from_profile(p: &MachineProfile) -> Self {
        NetworkModel {
            latency: p.net_latency,
            overhead: p.net_msg_overhead,
            bandwidth: p.net_eff_bw_bytes(),
            peak_bandwidth: p.net_peak_bw_bytes(),
            rendezvous_threshold: p.rendezvous_threshold,
            msg_cost: p.runtime_msg_cost,
        }
    }

    /// True when `bytes` is carried by the rendezvous protocol.
    pub fn is_rendezvous(&self, bytes: usize) -> bool {
        bytes >= self.rendezvous_threshold
    }

    /// One-way time (seconds) to deliver a `bytes`-byte message between two
    /// distinct nodes.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        let protocol_latency = if self.is_rendezvous(bytes) {
            3.0 * self.latency
        } else {
            self.latency
        };
        self.overhead + protocol_latency + bytes as f64 / self.bandwidth
    }

    /// Sender-side occupancy (seconds) of one message: how long the comm
    /// engine is busy before it can start the next send. The wire time is
    /// charged here too because a single NIC port serializes back-to-back
    /// sends of large messages.
    pub fn sender_occupancy(&self, bytes: usize) -> f64 {
        self.overhead + bytes as f64 / self.bandwidth
    }

    /// How long the sending comm thread is busy with one message of
    /// `bytes` (at least one byte): its processing, then the injection.
    pub fn send_busy(&self, bytes: usize) -> f64 {
        self.msg_cost + self.sender_occupancy(bytes.max(1))
    }

    /// Time from the start of a send of `bytes` (at least one byte) until
    /// the message reaches the destination NIC, where it queues for the
    /// receiving comm thread's `msg_cost`.
    pub fn arrival(&self, bytes: usize) -> f64 {
        self.msg_cost + self.transfer_time(bytes.max(1))
    }

    /// End-to-end delay of one cross-node flow of `bytes` (at least one
    /// byte) with no queueing: send processing, wire, receive processing.
    /// The least a remote dependence edge can add to a critical path.
    pub fn edge_delay(&self, bytes: usize) -> f64 {
        2.0 * self.msg_cost + self.transfer_time(bytes.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nacl() -> NetworkModel {
        NetworkModel::from_profile(&MachineProfile::nacl())
    }

    #[test]
    fn latency_floor_for_tiny_messages() {
        let m = nacl();
        let t = m.transfer_time(8);
        // ~ o + L = 2 µs plus negligible wire time
        assert!((t - 2e-6).abs() < 0.1e-6, "t = {t}");
    }

    #[test]
    fn large_messages_approach_effective_bandwidth() {
        let m = nacl();
        let bytes = 16 * 1024 * 1024;
        let bw = bytes as f64 / m.transfer_time(bytes);
        assert!(bw > 0.98 * m.bandwidth, "bw = {bw}");
    }

    #[test]
    fn percent_of_peak_matches_paper_asymptote() {
        // NaCL: 27 of 32 Gb/s ≈ 84 % at large sizes.
        let m = nacl();
        let pct = |bytes: usize| 100.0 * bytes as f64 / m.transfer_time(bytes) / m.peak_bandwidth;
        let big = pct(4 * 1024 * 1024);
        assert!((big - 84.0).abs() < 2.0, "pct = {big}");
        // Small messages achieve only a few percent.
        assert!(pct(256) < 5.0);
    }

    #[test]
    fn rendezvous_adds_handshake() {
        let m = nacl();
        let just_below = m.transfer_time(m.rendezvous_threshold - 1);
        let just_above = m.transfer_time(m.rendezvous_threshold);
        let extra = just_above - just_below;
        // two extra latency hops, minus one byte of wire time
        assert!((extra - 2.0 * m.latency).abs() < 1e-9, "extra = {extra}");
    }

    #[test]
    fn transfer_time_monotone_within_protocol() {
        let m = nacl();
        let mut last = 0.0;
        for bytes in [1usize, 64, 1024, 32 * 1024, 63 * 1024] {
            let t = m.transfer_time(bytes);
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn sender_occupancy_below_transfer_time() {
        let m = nacl();
        for bytes in [64usize, 4096, 1 << 20] {
            assert!(m.sender_occupancy(bytes) < m.transfer_time(bytes));
        }
    }

    #[test]
    fn comm_thread_charges_compose_the_wire_model() {
        let m = nacl();
        for bytes in [1usize, 256, 64 * 1024, 1 << 20] {
            assert_eq!(m.send_busy(bytes), m.msg_cost + m.sender_occupancy(bytes));
            assert_eq!(m.arrival(bytes), m.msg_cost + m.transfer_time(bytes));
            assert_eq!(
                m.edge_delay(bytes),
                2.0 * m.msg_cost + m.transfer_time(bytes)
            );
        }
        // An empty payload still pays for one byte.
        assert_eq!(m.send_busy(0), m.send_busy(1));
        assert_eq!(m.arrival(0), m.arrival(1));
        assert_eq!(m.edge_delay(0), m.edge_delay(1));
        assert_eq!(m.msg_cost, MachineProfile::nacl().runtime_msg_cost);
    }
}
