//! Gossip dissemination model (the baseline the BMac protocol replaces).
//!
//! Fabric broadcasts blocks over "a peer-to-peer Gossip protocol ... The
//! Gossip message is then transmitted through gRPC, which uses HTTP/2 and
//! TCP as its transport layer" (paper §2.1.2, Figure 2b). We model the
//! wire overhead of that stack — protobuf wrapping, gRPC/HTTP2 framing,
//! TCP/IP segmentation — and the resulting transmission time over a
//! [`NetLink`], which feeds the Figure 9 comparisons.

use crate::{NetLink, SimTime};

/// Standard Ethernet MTU used for TCP segmentation.
pub const MTU: usize = 1500;
/// TCP + IP + Ethernet header bytes per segment.
pub const TCP_IP_ETH_HEADERS: usize = 20 + 20 + 18;
/// HTTP/2 frame + gRPC message prefix per data frame.
pub const GRPC_FRAME_OVERHEAD: usize = 9 + 5;
/// Gossip protobuf wrapper (message envelope, channel MAC, nonce).
pub const GOSSIP_WRAPPER: usize = 96;

/// Per-block bytes on the wire when disseminated via Gossip.
///
/// The marshaled block is wrapped in a Gossip message, segmented into
/// gRPC data frames, and carried over TCP/IP/Ethernet.
pub fn gossip_wire_bytes(block_bytes: usize) -> usize {
    let app_bytes = block_bytes + GOSSIP_WRAPPER;
    // One gRPC frame per 16 KiB of payload (HTTP/2 default max frame).
    let frames = app_bytes.div_ceil(16 * 1024);
    let with_frames = app_bytes + frames * GRPC_FRAME_OVERHEAD;
    // TCP segments: MSS = MTU - TCP/IP headers (Ethernet added per frame).
    let mss = MTU - 40;
    let segments = with_frames.div_ceil(mss);
    with_frames + segments * TCP_IP_ETH_HEADERS
}

/// End-to-end Gossip transmission: returns the arrival time of the
/// complete block. TCP delivery is in-order and the receiver must buffer
/// the entire block before processing (paper §3.2 reason 2), so the
/// *usable* arrival is the last byte's arrival.
pub fn gossip_transmit(link: &mut NetLink, ready: SimTime, block_bytes: usize) -> SimTime {
    link.transmit(ready, gossip_wire_bytes(block_bytes))
}

/// Measured fraction of wire bytes that are protocol overhead (not block
/// payload).
pub fn gossip_overhead_fraction(block_bytes: usize) -> f64 {
    let wire = gossip_wire_bytes(block_bytes);
    (wire - block_bytes) as f64 / wire as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MICROS;

    #[test]
    fn wire_bytes_exceed_payload() {
        for size in [1_000, 100_000, 1_000_000] {
            let wire = gossip_wire_bytes(size);
            assert!(wire > size, "overhead for {size}");
            // Overhead is bounded (< 10%) for large blocks.
            assert!(
                wire < size + size / 10 + 1_000,
                "bounded overhead for {size}"
            );
        }
    }

    /// Truncation-audit regression (the PR 4 class): the segment/frame
    /// counts here are computed in usize space end to end. Pin the exact
    /// wire-byte arithmetic at the u16 boundary, where a narrowing cast
    /// in the segment count would wrap and silently under-report
    /// overhead for multi-megabyte blocks.
    #[test]
    fn wire_byte_arithmetic_is_exact_across_the_u16_boundary() {
        for block_bytes in [65_535usize, 65_536, 100_000_000] {
            let app = block_bytes + GOSSIP_WRAPPER;
            let frames = app.div_ceil(16 * 1024);
            let with_frames = app + frames * GRPC_FRAME_OVERHEAD;
            let segments = with_frames.div_ceil(MTU - 40);
            assert_eq!(
                gossip_wire_bytes(block_bytes),
                with_frames + segments * TCP_IP_ETH_HEADERS,
                "block_bytes={block_bytes}"
            );
            // A 100 MB block needs > 2^16 − 1 TCP segments: the overhead
            // must keep growing linearly, which a u16 segment count
            // could not express.
            if block_bytes == 100_000_000 {
                assert!(segments > usize::from(u16::MAX));
            }
        }
    }

    #[test]
    fn overhead_fraction_shrinks_with_block_size() {
        let small = gossip_overhead_fraction(1_000);
        let large = gossip_overhead_fraction(1_000_000);
        assert!(small > large);
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let mut link = NetLink::gigabit();
        let t1 = gossip_transmit(&mut link, 0, 10_000);
        let mut link2 = NetLink::gigabit();
        let t2 = gossip_transmit(&mut link2, 0, 1_000_000);
        assert!(t2 > t1);
        // ~1 MB at 1 Gbps ≈ 8 ms + latency.
        assert!(t2 > 8_000 * MICROS);
        assert!(t2 < 12_000 * MICROS);
    }
}

/// Dissemination topology: the orderer sends each block to one *lead
/// peer* per organization, which relays it to the other peers of its
/// organization (Fabric's Gossip leader election; the paper's §5 notes
/// the BMac protocol "can also be used by the lead peer to send blocks
/// to other peers in its own organization").
#[derive(Debug)]
pub struct DisseminationModel {
    orderer_links: Vec<NetLink>,
    relay_links: Vec<Vec<NetLink>>,
}

impl DisseminationModel {
    /// Builds a topology with `orgs` organizations of `peers_per_org`
    /// peers each, all links identical to `link`. A single-peer org is
    /// valid — its lone peer is the lead and receives directly over the
    /// orderer link with no intra-org relays.
    ///
    /// # Panics
    ///
    /// Panics on `orgs == 0` or `peers_per_org == 0`: a topology with no
    /// peers has no delivery targets, and silently disseminating into it
    /// would report every block as "delivered everywhere" vacuously.
    pub fn new(orgs: usize, peers_per_org: usize, link: &NetLink) -> Self {
        assert!(orgs > 0, "dissemination topology needs at least one org");
        assert!(
            peers_per_org > 0,
            "dissemination topology needs at least one peer per org \
             (a zero-peer org would make every block vacuously delivered)"
        );
        DisseminationModel {
            orderer_links: vec![link.clone(); orgs],
            relay_links: (0..orgs)
                .map(|_| vec![link.clone(); peers_per_org - 1])
                .collect(),
        }
    }

    /// Disseminates one block of `block_bytes` starting at `ready`;
    /// returns per-peer arrival times as `(org, peer_index, arrival)`
    /// where peer 0 of each org is the lead peer.
    pub fn disseminate(
        &mut self,
        ready: SimTime,
        block_bytes: usize,
    ) -> Vec<(usize, usize, SimTime)> {
        let mut arrivals = Vec::new();
        let wire = gossip_wire_bytes(block_bytes);
        for (org, link) in self.orderer_links.iter_mut().enumerate() {
            let lead_arrival = link.transmit(ready, wire);
            arrivals.push((org, 0, lead_arrival));
            for (peer, relay) in self.relay_links[org].iter_mut().enumerate() {
                let relayed = relay.transmit(lead_arrival, wire);
                arrivals.push((org, peer + 1, relayed));
            }
        }
        arrivals
    }
}

#[cfg(test)]
mod dissemination_tests {
    use super::*;

    #[test]
    fn relayed_peers_receive_after_their_lead() {
        let mut model = DisseminationModel::new(2, 3, &NetLink::gigabit());
        let arrivals = model.disseminate(0, 100_000);
        assert_eq!(arrivals.len(), 6);
        for org in 0..2 {
            let lead = arrivals
                .iter()
                .find(|(o, p, _)| *o == org && *p == 0)
                .unwrap()
                .2;
            for (o, p, t) in &arrivals {
                if *o == org && *p > 0 {
                    assert!(*t > lead, "org {org} peer {p} before its lead");
                }
            }
        }
    }

    #[test]
    fn orgs_receive_independently() {
        let mut model = DisseminationModel::new(3, 1, &NetLink::gigabit());
        let arrivals = model.disseminate(0, 50_000);
        // Separate orderer links: all leads get the same arrival time.
        let times: Vec<SimTime> = arrivals.iter().map(|(_, _, t)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] == w[1]));
    }

    /// Degenerate-org regression: a 1-peer org has no relay fan-out, but
    /// its lone (lead) peer must still receive every block via the
    /// orderer link — exactly one arrival per org, at peer index 0.
    #[test]
    fn single_peer_orgs_deliver_via_the_leader_link() {
        let mut model = DisseminationModel::new(3, 1, &NetLink::gigabit());
        let arrivals = model.disseminate(0, 100_000);
        assert_eq!(arrivals.len(), 3, "one delivery per single-peer org");
        for org in 0..3 {
            let org_arrivals: Vec<_> = arrivals.iter().filter(|(o, _, _)| *o == org).collect();
            assert_eq!(org_arrivals.len(), 1, "org {org} delivered exactly once");
            let (_, peer, at) = org_arrivals[0];
            assert_eq!(*peer, 0, "the lone peer is the lead");
            assert!(*at > 0, "a real transmission takes time");
        }
    }

    #[test]
    #[should_panic(expected = "at least one peer per org")]
    fn zero_peer_orgs_are_rejected_loudly() {
        let _ = DisseminationModel::new(2, 0, &NetLink::gigabit());
    }

    #[test]
    #[should_panic(expected = "at least one org")]
    fn zero_org_topologies_are_rejected_loudly() {
        let _ = DisseminationModel::new(0, 4, &NetLink::gigabit());
    }

    #[test]
    fn back_to_back_blocks_queue_on_links() {
        let mut model = DisseminationModel::new(1, 2, &NetLink::gigabit());
        let first = model.disseminate(0, 500_000);
        let second = model.disseminate(0, 500_000);
        assert!(
            second[0].2 > first[0].2,
            "second block queues behind the first"
        );
    }
}
