//! Block faults: a block that is not the orderer's next link is refused
//! whole, before any state write, by every validator.
//!
//! Fabric's committer drops a block its orderer did not sign and waits
//! for the genuine one; it flags a bad *transaction* inside a block it
//! keeps. The serial pipeline, the streaming validator and the BMac
//! peer's host are held here to the first half of that: a forged orderer
//! signature, a duplicate number and a broken previous hash each leave
//! the ledger's height and tip and the state database's hash where they
//! were. A block store that fails its append after the state writes
//! leaves the state ahead of the ledger, and the validator then refuses
//! every block with `ValidateError::StateAhead`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bmac_core::{BMacPeer, BmacConfig, PeerError};
use bmac_protocol::BmacSender;
use fabric_crypto::identity::{Msp, Role};
use fabric_ledger::{
    BlockStore, CommittedBlock, Ledger, LedgerError, MemoryBlockStore, StoreError,
};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_peer::{StreamConfig, StreamError, StreamValidator, ValidateError, ValidatorPipeline};
use fabric_policy::{parse, Policy};
use fabric_protos::messages::{metadata_index, Block};
use fabric_statedb::StateDb;

const POLICY: &str = "2-outof-2 orgs";

/// One single-transaction block per key, `put key 1` on a 2-org `kv`
/// network. Identities are issued deterministically, so two calls give
/// two chains signed by the same orderer.
fn chain(keys: &[&str]) -> Vec<Block> {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(1)
        .chaincode("kv", parse(POLICY).unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    keys.iter()
        .flat_map(|key| {
            net.submit_invocation(0, "kv", "put", &[key.to_string(), "1".into()])
                .unwrap()
        })
        .collect()
}

fn msp() -> Msp {
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Peer, 0).unwrap();
    msp.issue(1, Role::Peer, 0).unwrap();
    msp.issue(0, Role::Orderer, 0).unwrap();
    msp.issue(0, Role::Client, 0).unwrap();
    msp
}

fn policies() -> HashMap<String, Policy> {
    [("kv".to_string(), parse(POLICY).unwrap())].into()
}

/// `block` under the orderer signature of `other`: well formed, but not
/// over this header.
fn forged(block: &Block, other: &Block) -> Block {
    let slot = metadata_index::SIGNATURES;
    let mut forged = block.clone();
    forged.metadata.metadata[slot] = other.metadata.metadata[slot].clone();
    forged
}

/// The three validators, each offered one block at a time.
enum Peer {
    Serial(ValidatorPipeline),
    Stream(Arc<ValidatorPipeline>),
    Bmac(Box<BMacPeer>, BmacSender),
}

/// Why a peer refused a block.
#[derive(Debug)]
enum Refusal {
    Serial(ValidateError),
    Stream(StreamError),
    Bmac(PeerError),
    /// The BMac link delivered no block to the card.
    Undelivered,
}

impl Refusal {
    /// The validation error inside, if the refusal is one.
    fn validate_error(&self) -> Option<&ValidateError> {
        match self {
            Refusal::Serial(e)
            | Refusal::Stream(StreamError::Validate(e))
            | Refusal::Bmac(PeerError::Refused(e)) => Some(e),
            _ => None,
        }
    }
}

impl Peer {
    fn all() -> [Peer; 3] {
        let config = BmacConfig::from_yaml(&format!(
            "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: {POLICY}\n"
        ))
        .unwrap();
        [
            Peer::Serial(ValidatorPipeline::new(msp(), policies(), 2)),
            Peer::Stream(Arc::new(ValidatorPipeline::new(msp(), policies(), 2))),
            Peer::Bmac(Box::new(BMacPeer::new(&config, msp())), BmacSender::new()),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Peer::Serial(_) => "serial",
            Peer::Stream(_) => "stream",
            Peer::Bmac(..) => "bmac",
        }
    }

    /// Offers `block`; `Ok` once it is committed.
    fn offer(&mut self, block: &Block) -> Result<(), Refusal> {
        match self {
            Peer::Serial(pipeline) => pipeline
                .validate_and_commit(block)
                .map(drop)
                .map_err(Refusal::Serial),
            Peer::Stream(pipeline) => StreamValidator::run(
                Arc::clone(pipeline),
                StreamConfig::default(),
                [block.clone()],
            )
            .map(|report| assert_eq!(report.results.len(), 1))
            .map_err(Refusal::Stream),
            Peer::Bmac(peer, sender) => {
                let mut committed = Vec::new();
                for packet in sender.send_block(block).unwrap() {
                    let wire = packet.encode().unwrap();
                    committed.extend(peer.ingest_wire(&wire, 0).map_err(Refusal::Bmac)?);
                }
                if committed.is_empty() {
                    return Err(Refusal::Undelivered);
                }
                assert_eq!(committed.len(), 1);
                Ok(())
            }
        }
    }

    /// Ledger height, ledger tip hash, state hash.
    fn fingerprint(&self) -> (u64, [u8; 32], u64) {
        let (ledger, state) = match self {
            Peer::Serial(pipeline) => (pipeline.ledger(), pipeline.state_db()),
            Peer::Stream(pipeline) => (pipeline.ledger(), pipeline.state_db()),
            Peer::Bmac(peer, _) => (peer.ledger(), peer.state_db()),
        };
        (ledger.height(), ledger.tip_hash(), state.state_hash())
    }

    /// Offers `bad` after committing `prefix`, asserts it is refused
    /// with a refusal `expected` recognises and that it moved nothing.
    fn refuses_without_a_write(
        &mut self,
        prefix: &[Block],
        bad: &Block,
        expected: impl Fn(&Refusal) -> bool,
    ) {
        let name = self.name();
        for block in prefix {
            self.offer(block).unwrap();
        }
        let before = self.fingerprint();
        let refusal = self.offer(bad).expect_err(name);
        assert!(expected(&refusal), "{name}: {refusal:?}");
        assert_eq!(self.fingerprint(), before, "{name}: the refusal wrote");
    }
}

#[test]
fn a_forged_orderer_signature_is_refused_by_every_peer() {
    let blocks = chain(&["a", "b", "c"]);
    let bad = forged(&blocks[1], &blocks[2]);
    for mut peer in Peer::all() {
        peer.refuses_without_a_write(&blocks[..1], &bad, |r| {
            matches!(
                r.validate_error(),
                Some(ValidateError::OrdererSignature { block: 1 })
            )
        });
        if let Peer::Serial(pipeline) = &peer {
            // The peer is not stuck: the genuine block 1 still commits.
            pipeline.validate_and_commit(&blocks[1]).unwrap();
            assert_eq!(pipeline.ledger().height(), 2);
            assert_eq!(pipeline.state_db().get("b").unwrap().value, b"1");
        }
    }
}

#[test]
fn a_duplicate_number_is_refused_without_a_state_write() {
    // Chain `x`'s block 0 writes a key chain `a` never touched, and its
    // signature and data hash are good: only its number is wrong.
    let ours = chain(&["a"]);
    let theirs = chain(&["x"]);
    for mut peer in Peer::all() {
        // The stream's reorder buffer and the BMac link's receiver (a
        // completed number is a retransmission) drop it before any check.
        peer.refuses_without_a_write(&ours, &theirs[0], |r| {
            matches!(
                r.validate_error(),
                Some(ValidateError::Ledger(LedgerError::Duplicate(0)))
            ) || matches!(
                r,
                Refusal::Stream(StreamError::DuplicateBlock(0)) | Refusal::Undelivered
            )
        });
    }
}

#[test]
fn a_broken_previous_hash_is_refused_without_a_state_write() {
    let ours = chain(&["a"]);
    let theirs = chain(&["x", "y"]);
    for mut peer in Peer::all() {
        peer.refuses_without_a_write(&ours, &theirs[1], |r| {
            matches!(
                r.validate_error(),
                Some(ValidateError::Ledger(LedgerError::BrokenChain))
            )
        });
    }
}

/// A block store whose appends fail while `failing` is set.
#[derive(Debug)]
struct FailingStore {
    inner: MemoryBlockStore,
    failing: Arc<AtomicBool>,
}

impl BlockStore for FailingStore {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn get(&self, number: u64) -> Option<CommittedBlock> {
        self.inner.get(number)
    }

    fn append(&mut self, block: &CommittedBlock) -> Result<(), StoreError> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(StoreError::new("injected write failure"));
        }
        self.inner.append(block)
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.inner.flush()
    }
}

#[test]
fn a_failed_append_refuses_every_later_block_as_state_ahead() {
    let blocks = chain(&["a", "b", "c"]);
    let failing = Arc::new(AtomicBool::new(false));
    let store = FailingStore {
        inner: MemoryBlockStore::new(),
        failing: Arc::clone(&failing),
    };
    let ledger = Ledger::with_store(Box::new(store)).unwrap();
    let validator =
        ValidatorPipeline::with_storage(msp(), policies(), 2, 64, StateDb::new(), ledger);
    validator.validate_and_commit(&blocks[0]).unwrap();

    failing.store(true, Ordering::SeqCst);
    assert!(matches!(
        validator.validate_and_commit(&blocks[1]),
        Err(ValidateError::Ledger(LedgerError::Store(_)))
    ));
    // Block 1's writes were applied before the append failed.
    assert_eq!(validator.state_db().get("b").unwrap().value, b"1");
    assert_eq!(validator.ledger().height(), 1);

    // Even with the store healthy again, neither a retry of block 1 nor
    // block 2 may commit over the split.
    failing.store(false, Ordering::SeqCst);
    for block in &blocks[1..] {
        assert!(matches!(
            validator.validate_and_commit(block),
            Err(ValidateError::StateAhead {
                block: 1,
                height: 1
            })
        ));
    }
    assert_eq!(validator.ledger().height(), 1);
    assert!(validator.state_db().get("c").is_none());
}
