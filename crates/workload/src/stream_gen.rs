//! Multi-block stream scenarios for the streaming validator's
//! serial-equivalence harness and benchmarks.
//!
//! A [`StreamScenario`] turns a workload ([`Workload::Smallbank`] for the
//! hot-key regime — few accounts, every operation colliding on the same
//! checking/savings keys — or [`Workload::Drm`] for the wide-keyspace
//! regime, where every purchase mints a fresh license key) into an
//! ordered stream of real, orderer-signed blocks with controlled fault
//! injection:
//!
//! * **cross-block MVCC conflicts** — a block's writes are withheld from
//!   the endorsers with probability `stale_commit_pct`, so later blocks
//!   are endorsed against stale versions and must be flagged
//!   `MvccReadConflict` by any correct validator, streaming or serial
//!   (every other block's *valid* writes go back to the endorsers, as
//!   [`Driver::commit_back`] describes, so without injected faults the
//!   valid share does not depend on the stream's length);
//! * **invalid signatures** — `corrupt_sigs` client signatures are
//!   flipped (the tx must flag `BadSignature` while the rest of its
//!   block stays valid);
//! * **duplicate tx ids** — `duplicate_txs` envelopes are replayed into
//!   the following block verbatim.
//!
//! After injection the whole chain is rebuilt (data hashes, previous
//! hashes, orderer signatures), so every fault is *semantic*, never a
//! broken chain.

use std::collections::HashMap;

use fabric_crypto::identity::{Msp, Role, SigningIdentity};
use fabric_node::network::{FabricNetwork, FabricNetworkBuilder};
use fabric_policy::{parse, Policy};
use fabric_protos::messages::Block;
use fabric_protos::txflow::{block_header_hash, build_block, EnvelopeHead};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::driver::{Driver, Workload};
use crate::drm::Drm;
use crate::smallbank::Smallbank;

/// Parameters of one generated block stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamScenario {
    /// Which benchmark application drives the stream.
    pub workload: Workload,
    /// Pre-created accounts/contents. Small values concentrate traffic
    /// on hot keys; large values spread it wide.
    pub accounts: usize,
    /// Transactions per block.
    pub block_size: usize,
    /// Workload blocks to generate *after* the setup blocks produced by
    /// account creation (the setup blocks are part of the stream — the
    /// validator needs them for state).
    pub num_blocks: usize,
    /// Percentage (0–100) of blocks whose writes are NOT committed back
    /// to the endorsers, forcing later endorsements to read stale
    /// versions (cross-block MVCC conflicts).
    pub stale_commit_pct: u8,
    /// Client signatures to corrupt across the workload blocks.
    pub corrupt_sigs: usize,
    /// Envelopes duplicated verbatim into the following block
    /// (duplicate tx ids).
    pub duplicate_txs: usize,
    /// RNG seed: the whole stream is a deterministic function of the
    /// scenario.
    pub seed: u64,
}

impl Default for StreamScenario {
    fn default() -> Self {
        StreamScenario {
            workload: Workload::Smallbank,
            accounts: 4,
            block_size: 2,
            num_blocks: 4,
            stale_commit_pct: 0,
            corrupt_sigs: 0,
            duplicate_txs: 0,
            seed: 7,
        }
    }
}

/// A generated stream plus everything a validator needs to process it.
#[derive(Debug)]
pub struct GeneratedStream {
    /// The ordered blocks (numbers `0..`), setup blocks first.
    pub blocks: Vec<Block>,
    /// Number of leading setup (account/content creation) blocks.
    pub setup_blocks: usize,
}

impl StreamScenario {
    /// The chaincode policies a validator of this stream must know.
    pub fn policies(&self) -> HashMap<String, Policy> {
        let mut policies = HashMap::new();
        policies.insert(
            self.workload.chaincode().to_string(),
            parse("2-outof-2 orgs").expect("literal policy parses"),
        );
        policies
    }

    /// An MSP trusting the same deterministic org CAs as the generated
    /// network, with the identities the blocks reference issued.
    pub fn validator_msp(&self) -> Msp {
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).expect("issue in fresh msp");
        msp.issue(1, Role::Peer, 0).expect("issue in fresh msp");
        msp.issue(0, Role::Orderer, 0).expect("issue in fresh msp");
        msp.issue(0, Role::Client, 0).expect("issue in fresh msp");
        msp
    }

    /// The deterministic orderer identity used to (re-)sign blocks.
    /// Public so a mempool-fed ordering service can cut blocks the
    /// serial oracle will accept as genuinely orderer-signed.
    pub fn orderer(&self) -> SigningIdentity {
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Orderer, 0).expect("issue in fresh msp")
    }

    fn network(&self) -> FabricNetwork {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(self.block_size)
            .chaincode(
                self.workload.chaincode(),
                parse("2-outof-2 orgs").expect("literal policy parses"),
            )
            .build();
        match self.workload {
            Workload::Smallbank | Workload::SplitPayment(_) => {
                net.install_chaincode(|| Box::new(Smallbank::new()));
            }
            Workload::Drm => {
                net.install_chaincode(|| Box::new(Drm::new()));
            }
        }
        net
    }

    /// Generates the stream.
    ///
    /// # Panics
    ///
    /// Panics if the underlying network rejects a driver invocation —
    /// scenarios are deterministic, so that is a bug, not an input
    /// condition.
    pub fn generate(&self) -> GeneratedStream {
        let mut net = self.network();
        let mut driver = Driver::new(self.workload, self.accounts, self.seed);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_b10c);

        // Setup: account/content creation, always committed back so the
        // workload proper starts from consistent state.
        let setup = driver.prepare(&mut net).expect("scenario setup");
        let setup_blocks = setup.len();
        let mut blocks = setup;

        // Workload blocks with per-block stale-commit injection.
        let mut produced = 0usize;
        while produced < self.num_blocks {
            let cut = driver.submit_one(&mut net).expect("scenario submission");
            for block in cut {
                let withhold = rng.gen_range(0..100u8) < self.stale_commit_pct;
                driver.commit_back(&mut net, &block, withhold);
                blocks.push(block);
                produced += 1;
            }
        }

        // Fault injection over the workload blocks (setup stays clean so
        // the stream always has live state to conflict on).
        let lo = setup_blocks;
        let hi = blocks.len();
        // Corrupt *distinct* (block, tx) targets: hitting the same
        // signature twice would XOR it back to valid and silently inject
        // fewer faults than configured.
        let mut targets: Vec<(usize, usize)> = (lo..hi)
            .flat_map(|b| (0..blocks[b].data.data.len()).map(move |t| (b, t)))
            .collect();
        targets.shuffle(&mut rng);
        for &(b, t) in targets.iter().take(self.corrupt_sigs) {
            let env = &mut blocks[b].data.data[t];
            let head = EnvelopeHead::walk(env).expect("envelope decodes");
            // The signature's last byte, flipped in place.
            let last = head.signature.as_ptr_range().end as usize - env.as_ptr() as usize - 1;
            env[last] ^= 0x01;
        }
        for _ in 0..self.duplicate_txs {
            if hi - lo < 2 {
                break;
            }
            let b = rng.gen_range(lo..hi - 1);
            let ntx = blocks[b].data.data.len();
            let t = rng.gen_range(0..ntx);
            let replayed = blocks[b].data.data[t].clone();
            blocks[b + 1].data.data.push(replayed);
        }

        // Rebuild the chain: tampering changed data hashes, so every
        // header (and orderer signature) is recomputed from block 0.
        let orderer = self.orderer();
        let mut prev = [0u8; 32];
        for (number, block) in blocks.iter_mut().enumerate() {
            let rebuilt = build_block(number as u64, &prev, block.data.data.clone(), &orderer);
            prev = block_header_hash(&rebuilt.header);
            *block = rebuilt;
        }

        GeneratedStream {
            blocks,
            setup_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_stream_is_deterministic_and_chains() {
        let scenario = StreamScenario {
            num_blocks: 3,
            ..StreamScenario::default()
        };
        let a = scenario.generate();
        let b = scenario.generate();
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.marshal(), y.marshal());
        }
        // Chain integrity after the rebuild pass.
        let mut prev = [0u8; 32];
        for (i, block) in a.blocks.iter().enumerate() {
            assert_eq!(block.header.number, i as u64);
            assert_eq!(block.header.previous_hash, prev.to_vec());
            prev = block_header_hash(&block.header);
        }
    }

    #[test]
    fn stale_commits_do_not_break_decoding() {
        let scenario = StreamScenario {
            stale_commit_pct: 100,
            corrupt_sigs: 1,
            duplicate_txs: 1,
            num_blocks: 3,
            ..StreamScenario::default()
        };
        let stream = scenario.generate();
        for block in &stream.blocks {
            fabric_protos::txflow::decode_block(&block.marshal()).expect("still decodable");
        }
        // The duplicate landed: some block carries more envelopes than
        // the configured size (setup blocks can also be partial).
        let sizes: Vec<usize> = stream.blocks.iter().map(|b| b.data.data.len()).collect();
        assert!(
            sizes.iter().any(|&s| s > scenario.block_size),
            "no duplicated envelope found in {sizes:?}"
        );
    }

    #[test]
    fn corrupt_sigs_hits_distinct_targets() {
        // Same seed with and without corruption: exactly `corrupt_sigs`
        // envelopes must differ — a repeated target would XOR a
        // signature back to valid and inject fewer faults.
        let base = StreamScenario {
            num_blocks: 3,
            block_size: 1,
            seed: 5,
            ..StreamScenario::default()
        };
        let clean = base.generate();
        let faulty = StreamScenario {
            corrupt_sigs: 2,
            ..base
        }
        .generate();
        let mut differing = 0;
        for (a, b) in clean.blocks.iter().zip(&faulty.blocks) {
            assert_eq!(a.data.data.len(), b.data.data.len());
            for (ea, eb) in a.data.data.iter().zip(&b.data.data) {
                if ea != eb {
                    differing += 1;
                }
            }
        }
        assert_eq!(differing, 2, "every configured corruption must land");
    }

    #[test]
    fn valid_share_does_not_decay_along_a_fault_free_stream() {
        // With every write set committed back to the endorsers — those
        // of MVCC-invalid transactions too — each in-block conflict
        // poisons its keys for good and the stream rots as it grows.
        let scenario = StreamScenario {
            accounts: 200,
            block_size: 20,
            num_blocks: 60,
            seed: 11,
            ..StreamScenario::default()
        };
        let stream = scenario.generate();
        let validator =
            fabric_peer::ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 1);
        let valid_per_block: Vec<usize> = stream
            .blocks
            .iter()
            .map(|b| validator.validate_and_commit(b).unwrap().valid_count())
            .collect();
        let workload = &valid_per_block[stream.setup_blocks..];
        assert_eq!(workload.len(), 60);
        let share = |blocks: &[usize]| {
            blocks.iter().sum::<usize>() as f64 / (blocks.len() * scenario.block_size) as f64
        };
        let (first, last) = (share(&workload[..15]), share(&workload[45..]));
        assert!(
            (first - last).abs() <= 0.10,
            "valid share drifted from {first:.2} to {last:.2} over 60 blocks"
        );
        assert!(first > 0.8, "first quarter only {first:.2} valid");
    }

    #[test]
    fn drm_scenario_mints_wide_keyspace() {
        let scenario = StreamScenario {
            workload: Workload::Drm,
            accounts: 8,
            num_blocks: 3,
            ..StreamScenario::default()
        };
        let stream = scenario.generate();
        assert!(stream.blocks.len() > stream.setup_blocks);
    }
}
