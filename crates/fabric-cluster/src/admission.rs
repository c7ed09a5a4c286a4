//! Mempool-fed ordering: the cluster's block stream produced by the
//! admission front-end instead of taken verbatim from the scenario.
//!
//! The cluster transmits its oracle's blocks.
//! [`SerialOracle::build`](crate::SerialOracle::build) holds `scenario.generate()`'s blocks as-is — including the injected
//! duplicate tx ids and corrupted client signatures, which the
//! *validators* then flag. A real Fabric network never orders most of
//! that traffic: the ordering service sits behind an admission
//! front-end that deduplicates and signature-checks first.
//! [`mempool_feed_blocks`] reproduces that path: every envelope of the
//! generated stream is submitted to a [`Mempool`], verified by its
//! worker pool, and the survivors are drained — in admission order —
//! into a single-orderer [`OrderingService`] that cuts fresh blocks
//! signed by the scenario's deterministic orderer identity.
//!
//! The output is deterministic (admission order is the generated-stream
//! order; the verify pool never reorders), so a mempool-fed run is
//! audited exactly as a generated one, against the oracle of the stream
//! it produced:
//!
//! ```text
//! let fed = mempool_feed_blocks(&scenario, &feed).blocks;
//! run_with_oracle(&cfg, &plan, &SerialOracle::from_blocks(&scenario, fed))
//! ```

use std::sync::Arc;

use fabric_mempool::{AdmitOutcome, Mempool, MempoolConfig, MempoolStats, SignatureCache};
use fabric_node::orderer::{OrdererConfig, OrderingService};
use fabric_protos::messages::Block;
use workload::StreamScenario;

use crate::cluster::SIG_CACHE;

/// Shape of the admission front-end feeding the orderer.
#[derive(Debug, Clone, Copy)]
pub struct MempoolFeed {
    /// The mempool's tuning (TTL, workers, backpressure bound).
    pub mempool: MempoolConfig,
    /// Every `resubmit_every`-th envelope is submitted twice, modelling
    /// impatient clients; the dedup window must strip the copies
    /// without disturbing the stream. `0` disables resubmission.
    pub resubmit_every: usize,
    /// Admissions between verify-pool/drain cycles (the feed's batching
    /// granularity; any positive value yields the same blocks).
    pub verify_batch: usize,
}

impl Default for MempoolFeed {
    fn default() -> Self {
        MempoolFeed {
            mempool: MempoolConfig::default(),
            resubmit_every: 3,
            verify_batch: 8,
        }
    }
}

/// What the admission front-end produced for one scenario.
#[derive(Debug)]
pub struct FeedOutcome {
    /// The blocks the orderer cut from mempool drains.
    pub blocks: Vec<Block>,
    /// Mempool counters at the end of the feed (dedup hits = the
    /// scenario's duplicates plus resubmissions; invalid = its
    /// corrupted signatures).
    pub stats: MempoolStats,
}

/// Feeds every envelope of `scenario`'s generated stream through an
/// admission mempool into a single-orderer ordering service and
/// returns the blocks that result.
///
/// # Panics
///
/// Panics if the feed sheds (its purpose is a complete, deterministic
/// stream — pick `mempool.max_pending ≥ verify_batch + 1`), or on
/// mempool/orderer misconfiguration.
pub fn mempool_feed_blocks(scenario: &StreamScenario, feed: &MempoolFeed) -> FeedOutcome {
    assert!(feed.verify_batch > 0, "verify_batch must be positive");
    let generated = scenario.generate();
    let mempool = Mempool::with_msp(
        feed.mempool,
        Arc::new(SignatureCache::new(SIG_CACHE)),
        Some(scenario.validator_msp()),
    );
    let mut orderer = OrderingService::new(
        scenario.orderer(),
        OrdererConfig {
            block_size: scenario.block_size,
            ..OrdererConfig::default()
        },
    );
    let mut blocks = Vec::new();
    let mut submitted = 0usize;
    let cycle = |mempool: &Mempool, orderer: &mut OrderingService, blocks: &mut Vec<Block>| {
        mempool.verify_pending();
        let Ok(cut) = orderer.ingest_mempool(mempool);
        blocks.extend(cut);
    };
    for envelope in generated.blocks.iter().flat_map(|b| &b.data.data) {
        let outcome = mempool.admit(envelope);
        assert_ne!(
            outcome,
            AdmitOutcome::Shed,
            "feed shed at submission {submitted}: raise max_pending above verify_batch"
        );
        submitted += 1;
        if feed.resubmit_every > 0 && submitted.is_multiple_of(feed.resubmit_every) {
            // The impatient client: the dedup window absorbs the copy
            // whatever state (pending/ready/recorded) the original is in.
            let dup = mempool.admit(envelope);
            assert!(
                matches!(dup, AdmitOutcome::Duplicate | AdmitOutcome::Malformed),
                "resubmitted envelope was {dup:?}, not deduplicated"
            );
        }
        if submitted.is_multiple_of(feed.verify_batch) {
            cycle(&mempool, &mut orderer, &mut blocks);
        }
    }
    cycle(&mempool, &mut orderer, &mut blocks);
    blocks.extend(orderer.cut_partial_block());
    FeedOutcome {
        blocks,
        stats: mempool.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> StreamScenario {
        StreamScenario {
            accounts: 3,
            block_size: 2,
            num_blocks: 4,
            stale_commit_pct: 25,
            corrupt_sigs: 2,
            duplicate_txs: 2,
            seed: 21,
            ..StreamScenario::default()
        }
    }

    #[test]
    fn feed_strips_duplicates_and_bad_signatures() {
        let scenario = scenario();
        let generated = scenario.generate();
        let submitted: usize = generated.blocks.iter().map(|b| b.data.data.len()).sum();
        let outcome = mempool_feed_blocks(&scenario, &MempoolFeed::default());
        let ordered: usize = outcome.blocks.iter().map(|b| b.data.data.len()).sum();
        // Exactly the distinct, validly-signed envelopes get ordered.
        assert_eq!(
            ordered as u64,
            outcome.stats.admitted - outcome.stats.invalid,
            "ordered = admitted − invalid"
        );
        assert!(
            outcome.stats.duplicates >= scenario.duplicate_txs as u64,
            "scenario duplicates deduplicated at admission"
        );
        assert_eq!(
            outcome.stats.invalid, scenario.corrupt_sigs as u64,
            "corrupted client signatures rejected by the verify pool"
        );
        assert!(ordered < submitted, "something was actually stripped");
        assert_eq!(outcome.stats.shed, 0);
        // Blocks chain from genesis (fresh orderer, fresh numbering).
        for (i, b) in outcome.blocks.iter().enumerate() {
            assert_eq!(b.header.number, i as u64);
        }
    }

    #[test]
    fn feed_is_deterministic_across_batching_and_workers() {
        let scenario = scenario();
        let base = mempool_feed_blocks(&scenario, &MempoolFeed::default());
        for (verify_batch, workers) in [(1, 1), (5, 8), (64, 3)] {
            let alt = mempool_feed_blocks(
                &scenario,
                &MempoolFeed {
                    verify_batch,
                    mempool: MempoolConfig {
                        verify_workers: workers,
                        ..MempoolConfig::default()
                    },
                    ..MempoolFeed::default()
                },
            );
            assert_eq!(
                base.blocks.len(),
                alt.blocks.len(),
                "batch={verify_batch} workers={workers}"
            );
            for (a, b) in base.blocks.iter().zip(&alt.blocks) {
                assert_eq!(
                    a.marshal(),
                    b.marshal(),
                    "batch={verify_batch} workers={workers}"
                );
            }
        }
    }
}
