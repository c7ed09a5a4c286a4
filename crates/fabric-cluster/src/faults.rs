//! The fault-injection plane: what can go wrong, where, and when.
//!
//! A [`FaultPlan`] is a declarative description of every fault a cluster
//! run injects — per-link packet faults ([`LinkFaults`]), peer kills at
//! arbitrary packet boundaries ([`KillPoint`]), and slow-follower stalls
//! ([`StallSpec`]). The plan is pure data: the same plan over the same
//! [`crate::ClusterConfig`] replays the same fault schedule, which is
//! what lets the proptest scenario matrix in
//! `tests/tests/cluster_faults.rs` shrink a failure to a reproducible
//! tuple.

use fabric_sim::SimTime;

/// Per-link packet-fault rates. All percentages are `0..=100` and are
/// rolled independently per packet from a deterministic per-link RNG
/// stream ([`LinkFaults::seed`]), so two links with the same rates still
/// fault at different packets.
#[derive(Debug, Clone, Copy)]
pub struct LinkFaults {
    /// Probability (%) a data packet is dropped in flight.
    pub loss_pct: u8,
    /// Probability (%) a data packet is delivered twice.
    pub dup_pct: u8,
    /// Probability (%) a data packet is delayed past its successors
    /// (reordering): its arrival is pushed back by 400 µs.
    pub reorder_pct: u8,
    /// Probability (%) a data packet is corrupted in flight. The link
    /// frames every packet with an FCS trailer, so corruption is
    /// *detected at the NIC* and the packet dropped — the Go-Back-N
    /// layer never acks bytes the BMac receiver cannot decode.
    pub corrupt_pct: u8,
    /// Probability (%) an ack/nack on the reverse path is lost.
    pub feedback_loss_pct: u8,
    /// Seed of this link's fault RNG stream.
    pub seed: u64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            loss_pct: 0,
            dup_pct: 0,
            reorder_pct: 0,
            corrupt_pct: 0,
            feedback_loss_pct: 0,
            seed: 1,
        }
    }
}

impl LinkFaults {
    /// A uniformly lossy link: `pct`% loss, everything else clean.
    pub fn lossy(pct: u8, seed: u64) -> Self {
        LinkFaults {
            loss_pct: pct,
            seed,
            ..LinkFaults::default()
        }
    }
}

/// Kill a peer after it has processed `after_packets` packets *in its
/// current life*. Multiple kill points for the same peer apply to
/// successive lives (the second entry arms only after the first rejoin),
/// which is how the double-kill and kill-during-recovery scenarios are
/// written.
#[derive(Debug, Clone, Copy)]
pub struct KillPoint {
    /// Which peer dies.
    pub peer: usize,
    /// Packets the peer processes before the crash — the kill lands at
    /// an arbitrary packet boundary, mid-block more often than not.
    pub after_packets: u64,
    /// Delay from the crash to the rejoin (store recovery + catch-up).
    /// `None` means the peer stays dead: the divergence audit then
    /// requires only that its on-disk store recovers to a serial
    /// *prefix*, while the survivors must reach the full chain.
    pub rejoin_after: Option<SimTime>,
}

/// Freeze a peer's ingest between `from` and `until` (a GC pause, a
/// noisy neighbor): packets arriving inside the window are held and
/// processed at `until` in arrival order. The sender keeps timing out
/// and retransmitting into the stall, which is exactly the
/// retransmission-storm regime the supervisor's cap bounds.
#[derive(Debug, Clone, Copy)]
pub struct StallSpec {
    /// Which peer stalls.
    pub peer: usize,
    /// Stall window start (absolute sim time).
    pub from: SimTime,
    /// Stall window end (absolute sim time).
    pub until: SimTime,
}

/// The full fault schedule of one cluster run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Faults applied to every orderer→peer link unless overridden.
    pub default_link: LinkFaults,
    /// Per-peer overrides of [`FaultPlan::default_link`].
    pub link_overrides: Vec<(usize, LinkFaults)>,
    /// Peer kills, in per-peer life order.
    pub kills: Vec<KillPoint>,
    /// Slow-follower stalls.
    pub stalls: Vec<StallSpec>,
}

impl FaultPlan {
    /// A plan with the same faults on every link and no kills/stalls.
    pub fn uniform(link: LinkFaults) -> Self {
        FaultPlan {
            default_link: link,
            ..FaultPlan::default()
        }
    }

    /// The faults of peer `peer`'s link, with the per-link seed
    /// decorrelated by peer index so identical rates still fault at
    /// different packets on different links.
    pub fn link_for(&self, peer: usize) -> LinkFaults {
        let mut faults = self
            .link_overrides
            .iter()
            .rev()
            .find(|(p, _)| *p == peer)
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link);
        faults.seed = faults.seed.wrapping_add(0x9E37 * (peer as u64 + 1));
        faults
    }

    /// Kill points for `peer`, in the order they arm (life order).
    pub fn kills_for(&self, peer: usize) -> Vec<KillPoint> {
        self.kills
            .iter()
            .filter(|k| k.peer == peer)
            .copied()
            .collect()
    }

    /// The stall window covering `peer` at time `at`, if any.
    pub fn stall_at(&self, peer: usize, at: SimTime) -> Option<&StallSpec> {
        self.stalls
            .iter()
            .find(|s| s.peer == peer && s.from <= at && at < s.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_overrides_win_and_seeds_decorrelate() {
        let plan = FaultPlan {
            default_link: LinkFaults::lossy(5, 7),
            link_overrides: vec![(1, LinkFaults::lossy(50, 7))],
            ..FaultPlan::default()
        };
        assert_eq!(plan.link_for(0).loss_pct, 5);
        assert_eq!(plan.link_for(1).loss_pct, 50);
        assert_ne!(plan.link_for(0).seed, plan.link_for(2).seed);
    }

    #[test]
    fn stall_window_is_half_open() {
        let plan = FaultPlan {
            stalls: vec![StallSpec {
                peer: 0,
                from: 10,
                until: 20,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.stall_at(0, 10).is_some());
        assert!(plan.stall_at(0, 19).is_some());
        assert!(plan.stall_at(0, 20).is_none());
        assert!(plan.stall_at(1, 15).is_none());
    }

    #[test]
    fn kills_arm_in_listed_order() {
        let plan = FaultPlan {
            kills: vec![
                KillPoint {
                    peer: 2,
                    after_packets: 9,
                    rejoin_after: Some(5),
                },
                KillPoint {
                    peer: 2,
                    after_packets: 3,
                    rejoin_after: None,
                },
            ],
            ..FaultPlan::default()
        };
        let kills = plan.kills_for(2);
        assert_eq!(kills.len(), 2);
        assert_eq!(kills[0].after_packets, 9);
        assert_eq!(kills[1].rejoin_after, None);
        assert!(plan.kills_for(0).is_empty());
    }
}
