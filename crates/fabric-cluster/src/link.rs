//! A lossy, reordering, corrupting point-to-point link.
//!
//! Wraps a [`NetLink`] (bandwidth + latency + queueing) with the fault
//! model of a [`LinkFaults`]: per-packet loss, duplication, reordering
//! and corruption, each rolled from a deterministic per-link RNG.
//!
//! Every transmitted packet is framed with a 4-byte FCS trailer and the
//! trailer is verified (and stripped) at delivery — the Ethernet-NIC
//! behaviour. This matters for protocol correctness, not just realism:
//! without it, a corrupted packet whose Go-Back-N trailer happened to
//! survive would be *acknowledged* by the ARQ layer and then fail BMac
//! reassembly, losing the block despite a positive ack. With the FCS,
//! corruption degenerates to loss and retransmission recovers it.

use fabric_sim::{NetLink, SimTime, MICROS};

use crate::faults::LinkFaults;

/// FCS trailer length (FNV-1a 32-bit).
pub const FCS_LEN: usize = 4;

/// Extra delay of a reordered packet, which lands it behind packets
/// sent after it.
const REORDER_EXTRA: SimTime = 400 * MICROS;

fn fcs32(bytes: &[u8]) -> [u8; 4] {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h.to_be_bytes()
}

/// Counters of what the fault plane actually did to this link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkTally {
    /// Packets handed to the link for transmission (before faults).
    pub sent: u64,
    /// Packets dropped in flight.
    pub lost: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Packets delayed past their successors.
    pub reordered: u64,
    /// Packets corrupted in flight (delivered mangled; the receiver's
    /// FCS check turns them into drops).
    pub corrupted: u64,
    /// Deliveries rejected by the receiver-side FCS check.
    pub fcs_drops: u64,
    /// Feedback (ack/nack) messages lost on the reverse path.
    pub feedback_lost: u64,
}

/// A faulty data link plus its clean-but-lossy feedback path.
#[derive(Debug)]
pub struct LossyLink {
    data: NetLink,
    feedback: NetLink,
    faults: LinkFaults,
    rng: u64,
    tally: LinkTally,
}

impl LossyLink {
    /// Builds a link: `data` carries framed packets forward, `feedback`
    /// carries acks/nacks back (small and fixed-size, so only loss and
    /// latency apply to it).
    pub fn new(data: NetLink, feedback: NetLink, faults: LinkFaults) -> Self {
        LossyLink {
            data,
            feedback,
            rng: faults.seed.wrapping_mul(2).wrapping_add(1),
            faults,
            tally: Default::default(),
        }
    }

    /// SplitMix64 stream; returns a roll in `0..100`.
    fn roll(&mut self) -> u8 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.rng;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x ^ (x >> 31)) % 100) as u8
    }

    /// Transmits one wire packet at `ready`: frames it with the FCS,
    /// occupies the link, applies the fault rolls, and returns the
    /// surviving deliveries as `(arrival_time, framed_bytes)`. Zero
    /// deliveries = the packet was lost; two = it was duplicated.
    pub fn transmit(&mut self, ready: SimTime, wire: &[u8]) -> Vec<(SimTime, Vec<u8>)> {
        self.tally.sent += 1;
        let mut framed = Vec::with_capacity(wire.len() + FCS_LEN);
        framed.extend_from_slice(wire);
        framed.extend_from_slice(&fcs32(wire));

        let copies = if self.roll() < self.faults.dup_pct {
            self.tally.duplicated += 1;
            2
        } else {
            1
        };
        let mut out = Vec::new();
        for _ in 0..copies {
            // Loss consumes link time too: the bits were sent, the drop
            // happens in flight.
            let mut arrival = self.data.transmit(ready, framed.len());
            if self.roll() < self.faults.loss_pct {
                self.tally.lost += 1;
                continue;
            }
            let mut bytes = framed.clone();
            if self.roll() < self.faults.corrupt_pct {
                let idx = (self.rng % bytes.len() as u64) as usize;
                bytes[idx] ^= 0x20;
                self.tally.corrupted += 1;
            }
            if self.roll() < self.faults.reorder_pct {
                arrival += REORDER_EXTRA;
                self.tally.reordered += 1;
            }
            out.push((arrival, bytes));
        }
        out
    }

    /// Receiver-side FCS check: strips the trailer and returns the inner
    /// wire packet, or `None` (counted) when the frame was mangled —
    /// the NIC drops it and the ARQ layer never sees it.
    pub fn deliver(&mut self, framed: &[u8]) -> Option<Vec<u8>> {
        if framed.len() < FCS_LEN {
            self.tally.fcs_drops += 1;
            return None;
        }
        let (inner, fcs) = framed.split_at(framed.len() - FCS_LEN);
        if fcs != fcs32(inner) {
            self.tally.fcs_drops += 1;
            return None;
        }
        Some(inner.to_vec())
    }

    /// Sends one feedback message back at `ready`; returns its arrival
    /// time, or `None` when the reverse path loses it.
    pub fn transmit_feedback(&mut self, ready: SimTime) -> Option<SimTime> {
        // Acks are ~16 bytes on the wire.
        let arrival = self.feedback.transmit(ready, 16);
        if self.roll() < self.faults.feedback_loss_pct {
            self.tally.feedback_lost += 1;
            return None;
        }
        Some(arrival)
    }

    /// What the fault plane did so far.
    pub fn tally(&self) -> LinkTally {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_link(faults: LinkFaults) -> LossyLink {
        LossyLink::new(NetLink::gigabit(), NetLink::gigabit(), faults)
    }

    #[test]
    fn clean_link_roundtrips_framed_packets() {
        let mut link = clean_link(LinkFaults::default());
        let deliveries = link.transmit(0, b"hello");
        assert_eq!(deliveries.len(), 1);
        let (at, framed) = &deliveries[0];
        assert!(*at > 0, "bandwidth + latency consumed");
        assert_eq!(framed.len(), 5 + FCS_LEN);
        assert_eq!(link.deliver(framed).as_deref(), Some(&b"hello"[..]));
        assert_eq!(link.tally().fcs_drops, 0);
    }

    #[test]
    fn corruption_is_caught_by_the_fcs() {
        let mut link = clean_link(LinkFaults {
            corrupt_pct: 100,
            ..LinkFaults::default()
        });
        let deliveries = link.transmit(0, b"payload");
        assert_eq!(deliveries.len(), 1);
        assert!(link.deliver(&deliveries[0].1).is_none());
        assert_eq!(link.tally().corrupted, 1);
        assert_eq!(link.tally().fcs_drops, 1);
    }

    #[test]
    fn loss_and_duplication_change_the_delivery_count() {
        let mut lossy = clean_link(LinkFaults {
            loss_pct: 100,
            ..LinkFaults::default()
        });
        assert!(lossy.transmit(0, b"x").is_empty());
        assert_eq!(lossy.tally().lost, 1);

        let mut dupy = clean_link(LinkFaults {
            dup_pct: 100,
            ..LinkFaults::default()
        });
        let out = dupy.transmit(0, b"x");
        assert_eq!(out.len(), 2);
        // The duplicate queues behind the original on the same link.
        assert!(out[1].0 > out[0].0);
    }

    #[test]
    fn reordering_pushes_a_packet_past_its_successor() {
        let mut link = clean_link(LinkFaults {
            reorder_pct: 100,
            ..LinkFaults::default()
        });
        let first = link.transmit(0, b"a").remove(0).0;
        let mut clean = clean_link(LinkFaults::default());
        let base = clean.transmit(0, b"a").remove(0).0;
        assert_eq!(first, base + REORDER_EXTRA);
    }

    #[test]
    fn fault_rolls_are_deterministic() {
        let faults = LinkFaults::lossy(30, 42);
        let run = |mut link: LossyLink| -> Vec<usize> {
            (0..50).map(|_| link.transmit(0, b"p").len()).collect()
        };
        let a = run(clean_link(faults));
        let b = run(clean_link(faults));
        assert_eq!(a, b);
        assert!(a.contains(&0), "some packets lost");
        assert!(a.contains(&1), "some packets survive");
    }

    #[test]
    fn feedback_loss_is_rolled_independently() {
        let mut link = clean_link(LinkFaults {
            feedback_loss_pct: 100,
            ..LinkFaults::default()
        });
        assert!(link.transmit_feedback(0).is_none());
        assert_eq!(link.tally().feedback_lost, 1);
        let mut clean = clean_link(LinkFaults::default());
        assert!(clean.transmit_feedback(0).is_some());
    }
}
