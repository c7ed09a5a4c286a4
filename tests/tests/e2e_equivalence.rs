//! End-to-end equivalence between the software validator and the BMac
//! peer — the paper's §4.1 correctness methodology: "we compared block
//! and transactions' valid/invalid flags, and commit hash ... We did not
//! find any mismatches in our experiments."

use std::collections::HashMap;

use bmac_core::{BMacPeer, BmacConfig, PeerError};
use bmac_hw::MachineError;
use bmac_protocol::BmacSender;
use fabric_crypto::identity::{Msp, Role};
use fabric_ledger::TxValidationCode;
use fabric_node::network::{FabricNetwork, FabricNetworkBuilder};
use fabric_peer::pipeline::{ValidateError, ValidatorPipeline};
use fabric_policy::parse;
use fabric_protos::messages::{
    Block, ChaincodeActionPayload, Endorsement, Envelope, Payload, Transaction,
};
use workload::{Driver, Smallbank, Workload};

fn make_msp() -> Msp {
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Peer, 0).unwrap();
    msp.issue(1, Role::Peer, 0).unwrap();
    msp.issue(0, Role::Orderer, 0).unwrap();
    msp.issue(0, Role::Client, 0).unwrap();
    msp
}

fn smallbank_net(block_size: usize) -> FabricNetwork {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(block_size)
        .chaincode("smallbank", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(Smallbank::new()));
    net
}

fn make_peers() -> (ValidatorPipeline, BMacPeer, BmacSender) {
    let policies: HashMap<String, fabric_policy::Policy> =
        [("smallbank".to_string(), parse("2-outof-2 orgs").unwrap())]
            .into_iter()
            .collect();
    let sw = ValidatorPipeline::new(make_msp(), policies, 4);
    let config = BmacConfig::from_yaml(
        "network:\n  orgs: 2\nchaincodes:\n  - name: smallbank\n    policy: 2-outof-2 orgs\n",
    )
    .unwrap();
    let bmac = BMacPeer::new(&config, make_msp());
    (sw, bmac, BmacSender::new())
}

fn validate_both(
    sw: &ValidatorPipeline,
    bmac: &mut BMacPeer,
    sender: &mut BmacSender,
    block: &Block,
) -> (
    Vec<fabric_ledger::TxValidationCode>,
    Vec<fabric_ledger::TxValidationCode>,
) {
    let sw_result = sw.validate_and_commit(block).unwrap();
    let mut hw_records = Vec::new();
    for p in sender.send_block(block).unwrap() {
        hw_records.extend(bmac.ingest_wire(&p.encode().unwrap(), 0).unwrap());
    }
    assert_eq!(hw_records.len(), 1, "one committed block per sent block");
    assert_eq!(
        sw_result.commit_hash, hw_records[0].commit_hash,
        "commit hashes agree"
    );
    (sw_result.codes, hw_records[0].flags.clone())
}

#[test]
fn driven_workload_produces_identical_results() {
    let mut net = smallbank_net(6);
    let mut driver = Driver::new(Workload::Smallbank, 10, 7);
    let (sw, mut bmac, mut sender) = make_peers();
    let mut blocks = driver.prepare(&mut net).unwrap();
    blocks.extend(driver.generate_blocks(&mut net, 4).unwrap());
    for block in &blocks {
        let (sw_codes, hw_flags) = validate_both(&sw, &mut bmac, &mut sender, block);
        assert_eq!(sw_codes, hw_flags, "block {}", block.header.number);
    }
    // State databases agree on every written key.
    let sw_db = sw.state_db();
    let hw_db = bmac.state_db();
    for i in 0..10 {
        let key = format!("acc{i}_checking");
        assert_eq!(
            sw_db.get(&key).map(|v| v.value),
            hw_db.get(&key).map(|v| v.value),
            "{key}"
        );
    }
}

#[test]
fn forged_client_signature_rejected_by_both() {
    let mut net = smallbank_net(2);
    let (sw, mut bmac, mut sender) = make_peers();
    net.submit_invocation(
        0,
        "smallbank",
        "create_account",
        &["a".into(), "1".into(), "1".into()],
    )
    .unwrap();
    let mut block = net
        .submit_invocation(
            0,
            "smallbank",
            "create_account",
            &["b".into(), "1".into(), "1".into()],
        )
        .unwrap()
        .remove(0);
    // Corrupt the second transaction's client signature (flip a byte in
    // the DER) and re-sign nothing: both peers must flag it.
    let mut env = Envelope::unmarshal(&block.data.data[1]).unwrap();
    let n = env.signature.len();
    env.signature[n - 1] ^= 0x01;
    block.data.data[1] = env.marshal();
    // Recompute data hash + orderer signature so only the tx is bad.
    let orderer = {
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Orderer, 0).unwrap()
    };
    let rebuilt = fabric_protos::txflow::build_block(
        block.header.number,
        &block.header.previous_hash,
        block.data.data.clone(),
        &orderer,
    );
    let (sw_codes, hw_flags) = validate_both(&sw, &mut bmac, &mut sender, &rebuilt);
    assert_eq!(sw_codes, hw_flags);
    assert!(sw_codes[0].is_valid());
    assert!(!sw_codes[1].is_valid());
}

/// Rewrites an envelope's endorsement list and re-signs the payload as
/// the (deterministically re-issued) client, so only what `edit` did to
/// the endorsements is wrong with the transaction.
fn edit_endorsements(envelope: &[u8], edit: impl FnOnce(&mut Vec<Endorsement>)) -> Vec<u8> {
    let client = Msp::new(2).issue(0, Role::Client, 0).unwrap();
    let mut env = Envelope::unmarshal(envelope).unwrap();
    let mut payload = Payload::unmarshal(&env.payload).unwrap();
    let mut tx = Transaction::unmarshal(&payload.data).unwrap();
    let mut cap = ChaincodeActionPayload::unmarshal(&tx.actions[0].payload).unwrap();
    edit(&mut cap.action.endorsements);
    tx.actions[0].payload = cap.marshal();
    payload.data = tx.marshal();
    env.payload = payload.marshal();
    env.signature = fabric_crypto::der::encode_signature(&client.sign(&env.payload));
    env.marshal()
}

/// One block, five ways to treat a signature: the hardware path forms its
/// verification requests (signer id, digest) from the same decoded block
/// the software validator reads, so both must flag each case alike.
#[test]
fn bad_and_duplicated_signatures_are_flagged_identically_by_both() {
    let mut net = smallbank_net(5);
    let (sw, mut bmac, mut sender) = make_peers();
    let mut cut = Vec::new();
    for account in ["a", "b", "c", "d", "e"] {
        cut = net
            .submit_invocation(
                0,
                "smallbank",
                "create_account",
                &[account.into(), "1".into(), "1".into()],
            )
            .unwrap();
    }
    let block = cut.remove(0);
    let mut envelopes = block.data.data.clone();
    // tx 1: client signature corrupted.
    let mut env = Envelope::unmarshal(&envelopes[1]).unwrap();
    *env.signature.last_mut().unwrap() ^= 0x01;
    envelopes[1] = env.marshal();
    // tx 2: one endorsement signature corrupted — 2-of-2 cannot be met.
    envelopes[2] = edit_endorsements(&envelopes[2], |e| {
        *e[1].signature.last_mut().unwrap() ^= 0x01;
    });
    // tx 3: an endorsement repeated beside a full set — still satisfied.
    envelopes[3] = edit_endorsements(&envelopes[3], |e| e.insert(1, e[0].clone()));
    // tx 4: an endorsement repeated in place of the other org's.
    envelopes[4] = edit_endorsements(&envelopes[4], |e| e[1] = e[0].clone());
    let orderer = Msp::new(2).issue(0, Role::Orderer, 0).unwrap();
    let rebuilt = fabric_protos::txflow::build_block(
        block.header.number,
        &block.header.previous_hash,
        envelopes,
        &orderer,
    );
    let (sw_codes, hw_flags) = validate_both(&sw, &mut bmac, &mut sender, &rebuilt);
    assert_eq!(sw_codes, hw_flags);
    assert_eq!(
        sw_codes,
        [
            TxValidationCode::Valid,
            TxValidationCode::BadSignature,
            TxValidationCode::EndorsementPolicyFailure,
            TxValidationCode::Valid,
            TxValidationCode::EndorsementPolicyFailure,
        ]
    );
}

#[test]
fn mvcc_conflicts_agree_between_peers() {
    let mut net = smallbank_net(2);
    let (sw, mut bmac, mut sender) = make_peers();
    // Two deposits to the same fresh account in one block: both endorsed
    // against version None; the second must MVCC-conflict on both peers.
    net.submit_invocation(
        0,
        "smallbank",
        "deposit_checking",
        &["x".into(), "5".into()],
    )
    .unwrap();
    let block = net
        .submit_invocation(
            0,
            "smallbank",
            "deposit_checking",
            &["x".into(), "7".into()],
        )
        .unwrap()
        .remove(0);
    let (sw_codes, hw_flags) = validate_both(&sw, &mut bmac, &mut sender, &block);
    assert_eq!(sw_codes, hw_flags);
    assert!(sw_codes[0].is_valid());
    assert_eq!(
        sw_codes[1],
        fabric_ledger::TxValidationCode::MvccReadConflict
    );
}

#[test]
fn ledgers_chain_identically_across_many_blocks() {
    let mut net = smallbank_net(3);
    let mut driver = Driver::new(Workload::Smallbank, 6, 21);
    let (sw, mut bmac, mut sender) = make_peers();
    let mut blocks = driver.prepare(&mut net).unwrap();
    blocks.extend(driver.generate_blocks(&mut net, 5).unwrap());
    for block in &blocks {
        validate_both(&sw, &mut bmac, &mut sender, block);
    }
    assert_eq!(sw.ledger().height(), bmac.ledger().height());
    assert_eq!(
        sw.ledger().tip_commit_hash(),
        bmac.ledger().tip_commit_hash()
    );
    assert!(sw.ledger().verify_chain().is_ok());
    assert!(bmac.ledger().verify_chain().is_ok());
}

/// A block whose envelope was swapped after the orderer hashed and
/// signed it: the software peer's committer and the hardware peer's
/// `HashCalculator` both compare the envelopes with `header.data_hash`,
/// refuse the block, and stay on the same prefix.
#[test]
fn swapped_envelope_is_refused_by_both_and_the_prefix_agrees() {
    let mut net = smallbank_net(3);
    let mut driver = Driver::new(Workload::Smallbank, 6, 33);
    let (sw, mut bmac, mut sender) = make_peers();
    let mut blocks = driver.prepare(&mut net).unwrap();
    blocks.extend(driver.generate_blocks(&mut net, 3).unwrap());
    let (bad, prefix) = blocks.split_last_mut().unwrap();
    for block in prefix.iter() {
        validate_both(&sw, &mut bmac, &mut sender, block);
    }
    bad.data.data[1] = prefix.last().unwrap().data.data[0].clone();

    let number = bad.header.number;
    assert!(matches!(
        sw.validate_and_commit(bad),
        Err(ValidateError::DataHash { block }) if block == number
    ));
    let mut refusal = None;
    for p in sender.send_block(bad).unwrap() {
        match bmac.ingest_wire(&p.encode().unwrap(), 0) {
            Ok(committed) => assert!(committed.is_empty(), "refused block committed"),
            Err(e) => refusal = Some(e),
        }
    }
    assert!(
        matches!(
            refusal,
            Some(PeerError::Machine(MachineError::DataHash { block })) if block == number
        ),
        "{refusal:?}"
    );
    assert_eq!(sw.ledger().height(), number);
    assert_eq!(bmac.ledger().height(), number);
    assert_eq!(
        sw.ledger().tip_commit_hash(),
        bmac.ledger().tip_commit_hash()
    );
}
