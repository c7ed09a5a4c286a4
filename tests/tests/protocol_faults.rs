//! Fault injection on the BMac protocol: loss, reordering, duplication,
//! corruption, mislabelled sections. The protocol has no retransmission
//! (paper §5) — losses must be *detected*, not silently absorbed — and
//! the link only reassembles: an envelope that does not decode is the
//! consumer's to reject.

use std::collections::HashMap;
use std::sync::Arc;

use bmac_hw::{BMacMachine, Geometry, MachineError, ProcessorConfig};
use bmac_protocol::{BmacPacket, BmacReceiver, BmacSender, ReceiveError, SectionType};
use fabric_crypto::identity::{Msp, Role};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_peer::pipeline::{ValidateError, ValidatorPipeline};
use fabric_peer::stream::{StreamConfig, StreamError, StreamValidator};
use fabric_policy::parse;
use fabric_protos::messages::Block;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn one_block(ntx: usize) -> Block {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(ntx)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let mut blocks = Vec::new();
    let mut i = 0;
    while blocks.is_empty() {
        blocks = net
            .submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
            .unwrap();
        i += 1;
    }
    blocks.remove(0)
}

#[test]
fn duplicated_packets_are_harmless() {
    let block = one_block(4);
    let mut sender = BmacSender::new();
    let mut receiver = BmacReceiver::new();
    let packets = sender.send_block(&block).unwrap();
    let mut completed = 0;
    for p in &packets {
        let wire = p.encode().unwrap();
        completed += receiver.ingest(&wire).unwrap().len();
        // Deliver everything twice.
        completed += receiver.ingest(&wire).unwrap().len();
    }
    assert_eq!(completed, 1, "duplicates must not produce extra blocks");
}

#[test]
fn arbitrary_reordering_still_reconstructs() {
    let block = one_block(6);
    let mut sender = BmacSender::new();
    let packets = sender.send_block(&block).unwrap();
    let mut rng = StdRng::seed_from_u64(33);
    for _trial in 0..5 {
        let mut shuffled = packets.clone();
        shuffled.shuffle(&mut rng);
        let mut receiver = BmacReceiver::new();
        let mut got = None;
        for p in &shuffled {
            for b in receiver.ingest(&p.encode().unwrap()).unwrap() {
                got = Some(b);
            }
        }
        let got = got.expect("block completes under any packet order");
        assert_eq!(got.block.marshal(), block.marshal());
    }
}

#[test]
fn corrupted_payload_fails_signature_not_crash() {
    let block = one_block(2);
    let mut sender = BmacSender::new();
    let mut receiver = BmacReceiver::new();
    let packets = sender.send_block(&block).unwrap();
    let mut received = None;
    for p in packets {
        let mut wire = p.encode().unwrap();
        // Corrupt one byte in the middle of each transaction payload.
        if p.section == SectionType::Transaction {
            let n = wire.len();
            wire[n - 10] ^= 0xff;
        }
        match receiver.ingest(&wire) {
            Ok(blocks) => {
                for b in blocks {
                    received = Some(b);
                }
            }
            Err(_) => return, // structural decode failure is acceptable
        }
    }
    // If reconstruction survived, the signatures must NOT verify.
    if let Some(rb) = received {
        let decoded = fabric_protos::txflow::decode_block(&rb.block.marshal());
        if let Ok(decoded) = decoded {
            let any_valid = decoded.txs.iter().any(|tx| {
                tx.creator_cert
                    .public_key
                    .verify(&tx.signed_payload, &tx.client_signature)
                    .is_ok()
            });
            assert!(!any_valid, "corruption must invalidate signatures");
        }
    }
}

#[test]
fn out_of_range_transaction_index_is_rejected_not_a_panic() {
    let block = one_block(2);
    let mut sender = BmacSender::new();
    let mut receiver = BmacReceiver::new();
    let mut completed = 0;
    let mut rejected = 0;
    for mut p in sender.send_block(&block).unwrap() {
        // Tx 1 claims to be tx 5 of 2: by count the block would look
        // complete, but slot 1 is empty.
        if p.section == SectionType::Transaction && p.index == 1 {
            p.index = 5;
        }
        match receiver.ingest(&p.encode().unwrap()) {
            Ok(blocks) => completed += blocks.len(),
            Err(ReceiveError::Malformed(_)) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(rejected, 1, "exactly the mislabelled packet is refused");
    assert_eq!(completed, 0);
    assert_eq!(receiver.incomplete_blocks(), vec![block.header.number]);
}

#[test]
fn transaction_count_is_fixed_by_the_first_packet() {
    let block = one_block(2);
    let mut packets = BmacSender::new().send_block(&block).unwrap();
    let metadata = packets.pop().unwrap();
    let mut receiver = BmacReceiver::new();
    for p in &packets {
        assert!(receiver.ingest(&p.encode().unwrap()).unwrap().is_empty());
    }
    // Were the count overwritable, a metadata section claiming one tx
    // would complete a block truncated to header + tx 0 + metadata.
    let mut lying = metadata.clone();
    lying.total_txs = 1;
    assert!(matches!(
        receiver.ingest(&lying.encode().unwrap()),
        Err(ReceiveError::Malformed(_))
    ));
    let done = receiver.ingest(&metadata.encode().unwrap()).unwrap();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].block.marshal(), block.marshal());
}

/// One block's packets with the first identity sync moved to the front,
/// and that sync.
fn packets_sync_first(block: &Block) -> (Vec<BmacPacket>, BmacPacket) {
    let mut packets = BmacSender::new().send_block(block).unwrap();
    let at = packets
        .iter()
        .position(|p| p.section == SectionType::IdentitySync)
        .expect("a fresh sender syncs every identity");
    let sync = packets.remove(at);
    packets.insert(0, sync.clone());
    (packets, sync)
}

/// Feeds `forged` right after the first (honest) identity sync, then the
/// rest of the block: the forgery must be refused as malformed and the
/// block must still come out byte-exact.
fn forged_sync_is_refused_and_harmless(block: &Block, forge: impl Fn(&BmacPacket) -> BmacPacket) {
    let (packets, sync) = packets_sync_first(block);
    let mut receiver = BmacReceiver::new();
    let mut done = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        done.extend(receiver.ingest(&p.encode().unwrap()).unwrap());
        if i == 0 {
            assert!(matches!(
                receiver.ingest(&forge(&sync).encode().unwrap()),
                Err(ReceiveError::Malformed(_))
            ));
        }
    }
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].block.marshal(), block.marshal());
}

#[test]
fn identity_sync_filed_under_another_id_is_rejected() {
    // An honest certificate announced under an id that is not its own:
    // accepted, it would be put back wherever that other id is located.
    let block = one_block(2);
    forged_sync_is_refused_and_harmless(&block, |sync| {
        let mut forged = sync.clone();
        forged.index ^= 0x0100; // another organization
        forged
    });
}

#[test]
fn identity_resync_with_different_bytes_is_rejected_and_identical_is_idempotent() {
    // A second certificate for the same node id (same subject, other
    // serial) must not replace the bytes every later block is rebuilt
    // from; the identical retransmission must stay harmless.
    let block = one_block(2);
    forged_sync_is_refused_and_harmless(&block, |sync| {
        let si = fabric_protos::messages::SerializedIdentity::unmarshal(&sync.payload).unwrap();
        let mut cert = fabric_crypto::identity::Certificate::from_bytes(&si.id_bytes).unwrap();
        cert.serial += 1;
        let forged_si = fabric_protos::messages::SerializedIdentity {
            id_bytes: cert.to_bytes(),
            ..si
        };
        let mut forged = sync.clone();
        forged.payload = forged_si.marshal().into();
        forged
    });
    let (packets, sync) = packets_sync_first(&block);
    let mut receiver = BmacReceiver::new();
    let mut done = 0;
    for p in &packets {
        done += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        done += receiver.ingest(&sync.encode().unwrap()).unwrap().len();
    }
    assert_eq!(done, 1, "identical re-syncs change nothing");
}

#[test]
fn identity_sync_with_a_garbage_payload_is_rejected() {
    let block = one_block(2);
    forged_sync_is_refused_and_harmless(&block, |sync| {
        let mut forged = sync.clone();
        forged.payload = vec![0xA5; sync.payload.len()].into();
        forged
    });
}

/// Applies a randomized delivery schedule — shuffling, duplication, and
/// an optional single drop — to one block's packets and returns what the
/// receiver produced plus whether it reported the block incomplete.
fn deliver_with_schedule(
    packets: &[BmacPacket],
    seed: u64,
    duplicate_every: Option<usize>,
    drop_index: Option<usize>,
) -> (BmacReceiver, Vec<Vec<u8>>) {
    let mut schedule: Vec<BmacPacket> = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        if Some(i) == drop_index {
            continue;
        }
        schedule.push(p.clone());
        if let Some(k) = duplicate_every {
            if k > 0 && i % k == 0 {
                schedule.push(p.clone());
            }
        }
    }
    schedule.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut receiver = BmacReceiver::new();
    let mut completed = Vec::new();
    for p in &schedule {
        for b in receiver.ingest(&p.encode().unwrap()).unwrap() {
            completed.push(b.block.marshal());
        }
    }
    (receiver, completed)
}

proptest! {
    // Each case builds and packetizes a real block; a moderate case
    // count still sweeps hundreds of distinct schedules.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any order + any duplication with NO loss must reconstruct the
    /// exact block bytes exactly once.
    #[test]
    fn reordered_duplicated_lossless_delivery_is_byte_exact(
        ntx in 1usize..5,
        seed in any::<u64>(),
        duplicate_every in prop_oneof![Just(None), Just(Some(1)), Just(Some(2)), Just(Some(3))],
    ) {
        let block = one_block(ntx);
        let mut sender = BmacSender::new();
        let packets = sender.send_block(&block).unwrap();
        let (receiver, completed) =
            deliver_with_schedule(&packets, seed, duplicate_every, None);
        prop_assert_eq!(completed.len(), 1, "exactly one completion");
        prop_assert_eq!(&completed[0], &block.marshal(), "byte-exact reconstruction");
        prop_assert!(receiver.incomplete_blocks().is_empty());
    }

    /// Dropping any single section packet — under any reordering and
    /// duplication of the REST — must leave the block loudly incomplete:
    /// never a completion, never a silent pass. (Duplicates of the
    /// dropped packet itself are excluded: the protocol treats a
    /// duplicate as a retransmission, which genuinely repairs the loss.)
    #[test]
    fn any_single_loss_is_detected_never_absorbed(
        ntx in 1usize..4,
        seed in any::<u64>(),
        drop_selector in any::<u64>(),
    ) {
        let block = one_block(ntx);
        let mut sender = BmacSender::new();
        let packets = sender.send_block(&block).unwrap();
        // Only section packets are droppable here: identity syncs are
        // config-like state a real deployment pre-installs (and their
        // loss parks the block instead, covered below).
        let section_indexes: Vec<usize> = packets
            .iter()
            .enumerate()
            .filter(|(_, p)| p.section != SectionType::IdentitySync)
            .map(|(i, _)| i)
            .collect();
        let drop_index = section_indexes[(drop_selector % section_indexes.len() as u64) as usize];
        let (receiver, completed) =
            deliver_with_schedule(&packets, seed, None, Some(drop_index));
        prop_assert!(completed.is_empty(), "lost packet must not complete a block");
        prop_assert_eq!(
            receiver.incomplete_blocks(),
            vec![block.header.number],
            "loss must be observable"
        );
    }

    /// One section packet of a real block relabelled with an arbitrary
    /// `(index, total_txs)`, any delivery order: every `ingest` returns,
    /// and whatever completes is the original block byte for byte.
    /// (Identity syncs are left alone — their `index` is the identity
    /// id, not a section label — and a *consistent* relabelling of
    /// several packets is, to the link, simply a different block.)
    #[test]
    fn relabelled_section_never_panics_nor_yields_a_wrong_block(
        ntx in 1usize..4,
        seed in any::<u64>(),
        victim in any::<u64>(),
        index in prop_oneof![0u16..5, any::<u16>()],
        total_txs in prop_oneof![0u16..5, any::<u16>()],
    ) {
        let block = one_block(ntx);
        let mut sender = BmacSender::new();
        let mut packets = sender.send_block(&block).unwrap();
        let sections: Vec<usize> = (0..packets.len())
            .filter(|&i| packets[i].section != SectionType::IdentitySync)
            .collect();
        let victim = sections[(victim % sections.len() as u64) as usize];
        packets[victim].index = index;
        packets[victim].total_txs = total_txs;
        packets.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut receiver = BmacReceiver::new();
        for p in &packets {
            // Ok or Err, never a panic.
            for b in receiver.ingest(&p.encode().unwrap()).unwrap_or_default() {
                prop_assert_eq!(b.block.marshal(), block.marshal());
            }
        }
    }

    /// Losing an identity-sync packet parks every block that references
    /// the identity: no completion, and the block stays reported as
    /// incomplete (the detectable-loss guarantee, paper §5).
    #[test]
    fn lost_identity_sync_parks_dependent_blocks(
        ntx in 1usize..4,
        seed in any::<u64>(),
    ) {
        let block = one_block(ntx);
        let mut sender = BmacSender::new();
        let packets = sender.send_block(&block).unwrap();
        let sections: Vec<BmacPacket> = packets
            .iter()
            .filter(|p| p.section != SectionType::IdentitySync)
            .cloned()
            .collect();
        let (receiver, completed) = deliver_with_schedule(&sections, seed, Some(2), None);
        prop_assert!(completed.is_empty());
        prop_assert_eq!(receiver.incomplete_blocks(), vec![block.header.number]);
    }
}

#[test]
fn loss_rate_sweep_detects_all_incomplete_blocks() {
    let mut sender = BmacSender::new();
    let mut rng = StdRng::seed_from_u64(77);
    let blocks: Vec<Block> = (0..4)
        .map(|i| {
            let mut b = one_block(3);
            b.header.number = i;
            b
        })
        .collect();
    let mut receiver = BmacReceiver::new();
    let mut completed = Vec::new();
    for block in &blocks {
        for p in sender.send_block(block).unwrap() {
            // Drop 20% of section packets (never syncs, which a real
            // deployment would pre-install from the config file).
            if p.section != SectionType::IdentitySync && rand::Rng::gen_bool(&mut rng, 0.2) {
                continue;
            }
            for b in receiver.ingest(&p.encode().unwrap()).unwrap() {
                completed.push(b.block.header.number);
            }
        }
    }
    let incomplete = receiver.incomplete_blocks();
    // Every block is either completed or reported incomplete.
    for n in 0..4u64 {
        assert!(
            completed.contains(&n) || incomplete.contains(&n),
            "block {n} lost without detection"
        );
    }
    assert!(
        !incomplete.is_empty(),
        "20% loss certainly broke some block"
    );
}

/// Three chained two-transaction blocks under a 2-of-2 policy.
fn three_block_chain() -> Vec<Block> {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(2)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let blocks: Vec<Block> = (0..6)
        .flat_map(|i| {
            net.submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
                .unwrap()
        })
        .collect();
    assert_eq!(blocks.len(), 3);
    blocks
}

/// A software validator that trusts [`three_block_chain`]'s network,
/// and the policies it runs under.
fn software_peer() -> (
    Arc<ValidatorPipeline>,
    HashMap<String, fabric_policy::Policy>,
) {
    let mut msp = Msp::new(2);
    for (org, role) in [
        (0, Role::Peer),
        (1, Role::Peer),
        (0, Role::Orderer),
        (0, Role::Client),
    ] {
        msp.issue(org, role, 0).unwrap();
    }
    let policies: HashMap<String, fabric_policy::Policy> =
        [("kv".to_string(), parse("2-outof-2 orgs").unwrap())].into();
    let pipeline = Arc::new(ValidatorPipeline::new(msp, policies.clone(), 2));
    (pipeline, policies)
}

/// The link reassembles an envelope it cannot parse byte-exactly; the
/// consumer's single decode is what rejects it — the stream validator
/// with the serial prefix committed, the hardware machine before its
/// block processor sees the block.
#[test]
fn undecodable_envelope_is_rejected_by_the_consumer_not_the_link() {
    let garbage = vec![0xffu8; 48];
    assert!(fabric_protos::txflow::decode_transaction(&garbage).is_err());

    // A three-block chain; the middle block's second envelope becomes
    // the garbage. The sender annotates envelopes and so cannot send it:
    // packetize the real block and swap that section's payload.
    let mut blocks = three_block_chain();
    let mut sender = BmacSender::new();
    let mut wires: Vec<Vec<Vec<u8>>> = Vec::new();
    for block in &blocks {
        let mut packets = sender.send_block(block).unwrap();
        for p in &mut packets {
            if (p.block_num, p.section, p.index) == (1, SectionType::Transaction, 1) {
                p.payload = garbage.clone().into();
                p.annotations.clear();
            }
        }
        wires.push(packets.iter().map(|p| p.encode().unwrap()).collect());
    }
    blocks[1].data.data[1] = garbage;

    // The link: all three blocks reassemble, the bad one byte-exactly.
    let mut receiver = BmacReceiver::new();
    let mut received = Vec::new();
    for wire in wires.iter().flatten() {
        received.extend(receiver.ingest(wire).unwrap());
    }
    assert_eq!(received.len(), 3);
    for (got, want) in received.iter().zip(&blocks) {
        assert_eq!(got.block.marshal(), want.marshal());
    }

    // The software consumer: decode error at block 1, block 0 committed,
    // block 2 never.
    let (pipeline, policies) = software_peer();
    let outcome = StreamValidator::run(
        Arc::clone(&pipeline),
        StreamConfig::default(),
        received.into_iter().map(|rb| rb.block),
    );
    assert!(matches!(
        outcome,
        Err(StreamError::Validate(ValidateError::Decode(_)))
    ));
    assert_eq!(pipeline.ledger().height(), 1, "exactly the serial prefix");

    // The hardware consumer: the packet completing block 1 is an error
    // and the block processor never runs on it.
    let mut machine = BMacMachine::new(ProcessorConfig::new(Geometry::new(4, 2), 2), &policies);
    for wire in &wires[0] {
        machine.ingest_wire(wire, 0).unwrap();
    }
    let errors: Vec<MachineError> = wires[1]
        .iter()
        .filter_map(|wire| machine.ingest_wire(wire, 0).err())
        .collect();
    assert!(matches!(errors[..], [MachineError::Decode(_)]));
    assert_eq!(machine.blocks_processed(), 1, "block 0 only");
}

/// The link reassembles what it is sent and checks nothing about it: a
/// block whose second envelope was replaced by another validly signed
/// one, under the original header, crosses it byte-exactly. Every
/// signature in it verifies; only the header's data hash says the
/// envelope is not the one the orderer cut. The committer must refuse it
/// — it used to commit it, and the ledger then refused its own store at
/// recovery.
#[test]
fn swapped_envelope_crosses_the_link_and_is_refused_by_the_committer() {
    let mut blocks = three_block_chain();
    blocks[1].data.data[1] = blocks[2].data.data[0].clone();

    let mut sender = BmacSender::new();
    let mut receiver = BmacReceiver::new();
    let mut received = Vec::new();
    for block in &blocks {
        for p in sender.send_block(block).unwrap() {
            received.extend(receiver.ingest(&p.encode().unwrap()).unwrap());
        }
    }
    assert_eq!(received.len(), 3);
    for (got, want) in received.iter().zip(&blocks) {
        assert_eq!(got.block.marshal(), want.marshal());
    }

    let (pipeline, _) = software_peer();
    let outcome = StreamValidator::run(
        Arc::clone(&pipeline),
        StreamConfig::default(),
        received.into_iter().map(|rb| rb.block),
    );
    assert!(
        matches!(
            outcome,
            Err(StreamError::Validate(ValidateError::DataHash { block: 1 }))
        ),
        "{outcome:?}"
    );
    assert_eq!(pipeline.ledger().height(), 1, "exactly the serial prefix");
}
