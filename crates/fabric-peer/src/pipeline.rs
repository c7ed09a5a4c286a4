//! The functional validation pipeline of a software-only validator peer.
//!
//! Implements the five steps of Figure 2a with real cryptography:
//!
//! 1. retrieve block data and verify the orderer's signature;
//! 2. verify each transaction (client signature) and run vscc
//!    (endorsement signatures + endorsement policy) — parallelized over a
//!    worker pool like Fabric's validator goroutines, and verifying *all*
//!    endorsements regardless of the policy, as Fabric does (§4.3);
//! 3. MVCC: sequentially re-read each valid transaction's read set from
//!    the state database and compare versions;
//! 4. commit: apply valid write sets to the state database and append the
//!    block to the ledger with the validation flags and commit hash;
//! 5. miscellaneous: history database updates.
//!
//! A *block* fault refuses the whole block with a [`ValidateError`]
//! before anything of it is written; a *transaction* fault is a flag in
//! the committed block. Commit runs check → MVCC → apply → append.
//!
//! Wall-clock time spent in each stage is recorded so tests and examples
//! can reproduce the bottleneck analysis of Figure 3 on real hardware.
//!
//! A block is decoded **once**, at the top of the verify stage (step 1):
//! the link hands over reassembled bytes, and every later step — and
//! `verify_block_signatures`, which is the verify stage alone — reads
//! that one `DecodedBlock`. The hardware peer (`bmac-core`) drops a
//! block whose card-computed block_verify bit failed (§3.5), and commits
//! the card's flags through [`ValidatorPipeline::commit_flagged`].
//!
//! # Verification architecture
//!
//! Step 2 runs as a five-phase signature pipeline that mirrors how the
//! Blockchain Machine feeds its `ecdsa_engine` bank (§3.2), rather than
//! naïvely verifying transaction-by-transaction:
//!
//! * **collect** — gather → digest → key → intern: walk the decoded
//!   block once and gather every signature check (client + all
//!   endorsements) whose certificate is trusted, asking membership once
//!   per distinct certificate; digest all the signed messages in one
//!   call ([`fabric_crypto::sha256::sha256_many`] — the paper's
//!   `HashCalculator` bank: sixteen messages to a pass of AVX-512 lanes
//!   where the CPU has them, one `sha256` each where it does not) and
//!   derive all the cache keys in one more
//!   ([`SigCacheKey::compute_many`]); then intern the tasks,
//!   deduplicated by `(pubkey, digest, signature)` so a triple repeated
//!   within the block is verified at most once;
//! * **lookup** — ask the sharded LRU [`SignatureCache`] for every
//!   unique task before anything is spent on it. A block whose verdicts
//!   are all cached (re-delivered, or checked at admission) ends here:
//!   nothing is inverted, no thread is spawned;
//! * **invert the misses** — the `s⁻¹ mod n` of the tasks the cache did
//!   not answer, with a single modular inversion
//!   ([`fabric_crypto::ecdsa::batch_s_inverses`]);
//! * **verify the misses** — [`Verifier::par_map`] over *chunks* of
//!   eight of them ([`fabric_crypto::ecdsa::BATCH_LANES`]):
//!   [`ValidatorPipeline::workers`] threads (the paper's "vscc threads =
//!   vCPUs") steal chunk indices, and each chunk goes through
//!   [`Verifier::check_batch`] — which claims the chunk's keys without
//!   waiting, so a task another thread began verifying since the lookup
//!   is waited for only after this thread's own claims are fulfilled —
//!   and then, as one batch, through
//!   [`fabric_crypto::ecdsa::verify_batch`]: eight verifications in the
//!   lanes of one AVX-512 IFMA pass where the CPU has them, the
//!   precomputed fixed-base + wNAF scalar engine one by one where it
//!   does not. The orderer check (step 1) is looked up and verified the
//!   same way, a chunk of one, and the mempool's admission pool goes
//!   through the same [`Verifier`];
//! * **assemble** — fold task verdicts back into per-transaction
//!   validation codes, evaluating each endorsement policy sequentially
//!   (Fabric v1.4 semantics).
//!
//! Parallelism over chunks of signatures load-balances much better than
//! per-tx parallelism when endorsement counts vary, and the cache converts the
//! cross-transaction signature redundancy Fabric blocks carry (repeated
//! endorser signatures, replayed envelopes) into lookups.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fabric_crypto::ecdsa::{batch_s_inverses, verify_batch, BatchItem, BATCH_LANES};
use fabric_crypto::identity::NodeId;
use fabric_crypto::sha256::sha256_many;
use fabric_crypto::{
    KnownCert, Msp, SigCacheKey, SigCacheStats, Signature, SignatureCache, Verifier, VerifyingKey,
    U256,
};
use fabric_ledger::{Ledger, LedgerError, TxValidationCode};
use fabric_policy::Policy;
use fabric_protos::messages::Block;
use fabric_protos::txflow::{decode_block_struct, hash_block_data, DecodedBlock};
use fabric_statedb::{Height, StateDb, WriteBatch};

/// Per-stage wall-clock timings of one block validation (µs).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Unmarshaling / data retrieval.
    pub unmarshal_us: u64,
    /// Orderer signature check.
    pub block_verify_us: u64,
    /// Parallel verify + vscc.
    pub verify_vscc_us: u64,
    /// Sequential MVCC.
    pub mvcc_us: u64,
    /// State DB commit.
    pub statedb_commit_us: u64,
    /// Ledger commit.
    pub ledger_us: u64,
}

impl StageTimings {
    /// Total validation time excluding ledger commit (the paper's metric
    /// basis, §4.2).
    pub fn total_excl_ledger_us(&self) -> u64 {
        self.unmarshal_us
            + self.block_verify_us
            + self.verify_vscc_us
            + self.mvcc_us
            + self.statedb_commit_us
    }
}

/// Result of validating and committing one block.
#[derive(Debug)]
pub struct BlockValidationResult {
    /// Block number.
    pub block_num: u64,
    /// Per-transaction validation codes, in order.
    pub codes: Vec<TxValidationCode>,
    /// Transaction ids, in order.
    pub tx_ids: Vec<String>,
    /// Commit hash after this block.
    pub commit_hash: [u8; 32],
    /// Wall-clock stage timings.
    pub timings: StageTimings,
}

impl BlockValidationResult {
    /// Number of valid transactions.
    pub fn valid_count(&self) -> usize {
        self.codes.iter().filter(|c| c.is_valid()).count()
    }
}

/// Errors from block validation. Each refuses the whole block before
/// any write of it, except a failed store append after the state writes.
#[derive(Debug)]
pub enum ValidateError {
    /// The block could not be decoded: its metadata or any one of its
    /// envelopes.
    Decode(fabric_protos::wire::WireError),
    /// The header's `data_hash` is not the hash of the envelopes that
    /// arrived with it: the block is refused like an undecodable one.
    DataHash {
        /// Number the header claims.
        block: u64,
    },
    /// The orderer's signature (or certificate) does not verify.
    OrdererSignature {
        /// Number the header claims.
        block: u64,
    },
    /// The state holds writes of a block the ledger lacks (its append
    /// failed): every block is refused until the store is reopened.
    StateAhead {
        /// Block of the state database's last write.
        block: u64,
        /// The ledger's height.
        height: u64,
    },
    /// The block is not the ledger's next link (duplicate, out of
    /// order, broken chain) or its append failed.
    Ledger(LedgerError),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::Decode(e) => write!(f, "block decode failed: {e}"),
            ValidateError::DataHash { block } => {
                write!(
                    f,
                    "block {block}: header data hash does not match its envelopes"
                )
            }
            ValidateError::OrdererSignature { block } => {
                write!(f, "block {block}: bad orderer signature")
            }
            ValidateError::StateAhead { block, height } => {
                write!(f, "state holds block {block} at ledger height {height}")
            }
            ValidateError::Ledger(e) => write!(f, "ledger commit failed: {e}"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// The software validator peer.
///
/// Owns a state database and ledger; configured with the chaincode
/// endorsement policies, and — inside its [`Verifier`] — the MSP trust
/// anchors, the signature cache and the number of parallel vscc workers
/// (the paper's "vscc threads" = vCPUs, §4.1).
#[derive(Debug)]
pub struct ValidatorPipeline {
    policies: HashMap<String, Policy>,
    state_db: StateDb,
    ledger: Ledger,
    verifier: Verifier,
}

/// Default number of cached signature verdicts (~1 MiB of keys): a few
/// hundred blocks of smallbank-shaped traffic.
const DEFAULT_SIG_CACHE_CAPACITY: usize = 8192;

impl ValidatorPipeline {
    /// Creates a validator with `workers` parallel vscc workers and the
    /// default signature-cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(msp: Msp, policies: HashMap<String, Policy>, workers: usize) -> Self {
        Self::with_storage(
            msp,
            policies,
            workers,
            DEFAULT_SIG_CACHE_CAPACITY,
            StateDb::new(),
            Ledger::new(),
        )
    }

    /// Creates a validator over *existing* storage handles — the durable
    /// mode: pass the state database and ledger recovered by
    /// `fabric_store::FabricStore::open` and the peer resumes the chain
    /// where it left off (the streaming validator picks its first block
    /// number up from `ledger.height()`). With a journal
    /// attached to the state database and a durable block store under
    /// the ledger, a block is acknowledged only after its store write:
    /// the commit stage writes state batches (journaled write-ahead) and
    /// appends to the block store before reporting the block committed.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_storage(
        msp: Msp,
        policies: HashMap<String, Policy>,
        workers: usize,
        cache_capacity: usize,
        state_db: StateDb,
        ledger: Ledger,
    ) -> Self {
        Self::with_shared_cache(
            msp,
            policies,
            workers,
            Arc::new(SignatureCache::new(cache_capacity)),
            state_db,
            ledger,
        )
    }

    /// Creates a validator over existing storage *and* an externally
    /// owned signature cache. This is the cache-sharing constructor: the
    /// admission-side verify pool (`fabric-mempool`) and the committer
    /// pass the same `Arc`, so a verdict produced on either side is a
    /// lookup on the other.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_shared_cache(
        msp: Msp,
        policies: HashMap<String, Policy>,
        workers: usize,
        sig_cache: Arc<SignatureCache>,
        state_db: StateDb,
        ledger: Ledger,
    ) -> Self {
        ValidatorPipeline {
            policies,
            state_db,
            ledger,
            verifier: Verifier::new(Some(msp), sig_cache, workers),
        }
    }

    /// Flushes the storage layer (state journal, then block store) — the
    /// durable group-commit boundary. A no-op on in-memory storage.
    ///
    /// # Errors
    ///
    /// [`ValidateError::Ledger`] when the block store flush fails.
    pub fn flush_storage(&self) -> Result<(), ValidateError> {
        // Journal first: the write-ahead ordering must hold across the
        // two files, so state records are never the missing half.
        self.state_db.flush_journal();
        self.ledger.flush().map_err(ValidateError::Ledger)
    }

    /// Signature-cache statistics (hits, misses, residency).
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        self.verifier.sig_cache().stats()
    }

    /// The peer's state database handle.
    pub fn state_db(&self) -> StateDb {
        self.state_db.clone()
    }

    /// The peer's ledger handle.
    pub fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// Total *underlying* ECDSA verifications performed so far — cache
    /// hits do not count (Figure 12a's "Fabric verifies all
    /// endorsements" evidence and the cache-dedup tests read this).
    pub fn verifications(&self) -> usize {
        self.verifier.verifications()
    }

    /// Number of vscc workers.
    pub fn workers(&self) -> usize {
        self.verifier.workers()
    }

    /// Validates and commits one block (steps 1–5 of Figure 2a).
    ///
    /// # Errors
    ///
    /// [`ValidateError::Decode`] when the metadata or any one envelope
    /// does not decode (one bad envelope refuses the whole block),
    /// [`ValidateError::DataHash`], [`ValidateError::OrdererSignature`],
    /// and the errors of [`ValidatorPipeline::commit_flagged`]. A bad
    /// signature, policy or read set is a transaction's *flag*.
    pub fn validate_and_commit(
        &self,
        block: &Block,
    ) -> Result<BlockValidationResult, ValidateError> {
        let verified = self.verify_stage(block)?;
        // This entry point's one copy: caller and ledger each keep one.
        self.commit_stage(block.clone(), verified)
    }

    /// Steps 1–2: unmarshal, orderer check, parallel verify/vscc. This
    /// half touches no shared validator state beyond the caches, so the
    /// streaming validator runs it for several blocks concurrently.
    ///
    /// The block's one decode happens here: the link delivers reassembled
    /// bytes, and everything downstream (vscc, MVCC, commit) reads this
    /// `DecodedBlock`. A block with an envelope that does not parse,
    /// whose envelopes are not the ones its header's `data_hash` commits
    /// to, or whose orderer signature fails, is rejected here and never
    /// committed.
    pub(crate) fn verify_stage(&self, block: &Block) -> Result<VerifiedBlock, ValidateError> {
        let mut timings = StageTimings::default();

        // Step 1a: retrieve block and transaction data (unmarshal). The
        // marshaled length is not known without re-marshaling the block,
        // and `DecodedBlock::block_len` has no reader: pass 0.
        let t0 = Instant::now();
        let decoded = decode_block_struct(block, 0).map_err(ValidateError::Decode)?;
        timings.unmarshal_us = t0.elapsed().as_micros() as u64;

        // Step 1b: the envelopes must be the ones the header commits to
        // (the ledger checks the same at recovery, so a block accepted
        // here without it could not be read back), then the orderer
        // signature over that header.
        let t0 = Instant::now();
        if block.header.data_hash != hash_block_data(&block.data) {
            return Err(ValidateError::DataHash {
                block: block.header.number,
            });
        }
        if !self.verify_orderer(&decoded) {
            return Err(ValidateError::OrdererSignature {
                block: block.header.number,
            });
        }
        timings.block_verify_us = t0.elapsed().as_micros() as u64;

        // Step 2: parallel verification + vscc.
        let t0 = Instant::now();
        let codes = self.verify_vscc_parallel(&decoded);
        timings.verify_vscc_us = t0.elapsed().as_micros() as u64;

        Ok(VerifiedBlock {
            decoded,
            codes,
            timings,
        })
    }

    /// Check, then steps 3–5: sequential MVCC against the *current* state
    /// database, state commit, ledger append. Must run strictly in block
    /// order — the streaming validator funnels every block through its
    /// commit sequencer before calling this.
    pub(crate) fn commit_stage(
        &self,
        block: Block,
        verified: VerifiedBlock,
    ) -> Result<BlockValidationResult, ValidateError> {
        let VerifiedBlock {
            decoded,
            mut codes,
            mut timings,
        } = verified;
        self.check_next(&block)?;

        // Step 3: sequential MVCC, "applied successively to all the valid
        // transactions of the block, starting from the first one"
        // (§2.1.2): an in-block updates overlay makes earlier valid
        // transactions' writes visible to later version checks.
        let t0 = Instant::now();
        let mut overlay: HashMap<&str, Height> = HashMap::new();
        for (i, tx) in decoded.txs.iter().enumerate() {
            if codes[i] != TxValidationCode::Valid {
                continue;
            }
            let conflict = tx.reads.iter().any(|(key, expected)| {
                let expected = expected.map(|v| Height::new(v.block_num, v.tx_num));
                let current = overlay
                    .get(key.as_str())
                    .copied()
                    .or_else(|| self.state_db.get_version(key));
                current != expected
            });
            if conflict {
                codes[i] = TxValidationCode::MvccReadConflict;
                continue;
            }
            for (key, _) in &tx.writes {
                overlay.insert(key, Height::new(decoded.number, i as u64));
            }
        }
        timings.mvcc_us = t0.elapsed().as_micros() as u64;

        self.apply_and_append(block, decoded, codes, timings)
    }

    /// The check before any write: the state holds nothing the ledger
    /// lacks (so MVCC of block N+1 saw every write of block N), and
    /// `block` is the ledger's next link.
    fn check_next(&self, block: &Block) -> Result<(), ValidateError> {
        let height = self.ledger.height();
        if let Some(tip) = self.state_db.tip_height().filter(|h| h.block_num >= height) {
            let block = tip.block_num;
            return Err(ValidateError::StateAhead { block, height });
        }
        self.ledger
            .check_next(&block.header)
            .map_err(ValidateError::Ledger)
    }

    /// The commit of a block whose flags are final (the hardware peer's,
    /// from its card): the check, then steps 4–5 — the write sets of the
    /// transactions `codes` marks valid go to the state database, then
    /// `block` to the ledger with those codes. `decoded` must be the
    /// decode of `block`, `codes` one per transaction. Both are moved.
    ///
    /// # Errors
    ///
    /// [`ValidateError::StateAhead`] or [`ValidateError::Ledger`], before
    /// any write unless the append itself failed.
    pub fn commit_flagged(
        &self,
        block: Block,
        decoded: DecodedBlock,
        codes: Vec<TxValidationCode>,
    ) -> Result<BlockValidationResult, ValidateError> {
        self.check_next(&block)?;
        self.apply_and_append(block, decoded, codes, StageTimings::default())
    }

    /// Steps 4–5 of a block that passed [`Self::check_next`].
    fn apply_and_append(
        &self,
        block: Block,
        mut decoded: DecodedBlock,
        codes: Vec<TxValidationCode>,
        mut timings: StageTimings,
    ) -> Result<BlockValidationResult, ValidateError> {
        assert_eq!(codes.len(), decoded.txs.len(), "one code per transaction");
        let block_num = decoded.number;
        // Step 4a: state DB commit of valid write sets.
        let t0 = Instant::now();
        // One batch per valid transaction — including empty write sets,
        // because a durable journal counts one record per valid tx —
        // handed to the state DB as a single block so the sharded
        // backend can fan the apply out over disjoint shards. The ledger
        // indexes a valid transaction's keys, taken by move; the batch
        // copies its writes (what is left of `decoded` is freed after
        // both stage timers).
        let mut batches: Vec<(WriteBatch, Height)> = Vec::with_capacity(codes.len());
        let mut tx_ids = Vec::with_capacity(codes.len());
        let mut modified: Vec<Vec<String>> = Vec::with_capacity(codes.len());
        for (i, tx) in decoded.txs.iter_mut().enumerate() {
            tx_ids.push(std::mem::take(&mut tx.tx_id));
            if codes[i] != TxValidationCode::Valid {
                modified.push(Vec::new());
                continue;
            }
            let mut batch = WriteBatch::new();
            for (k, v) in &tx.writes {
                batch.put(k, v);
            }
            modified.push(
                std::mem::take(&mut tx.writes)
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect(),
            );
            batches.push((batch, Height::new(block_num, i as u64)));
        }
        self.state_db.apply_block(&batches);
        timings.statedb_commit_us = t0.elapsed().as_micros() as u64;

        // Step 4b/5: ledger commit + history.
        let t0 = Instant::now();
        let committed = self
            .ledger
            .commit_block(block, &tx_ids, codes.clone(), &modified)
            .map_err(ValidateError::Ledger)?;
        timings.ledger_us = t0.elapsed().as_micros() as u64;

        Ok(BlockValidationResult {
            block_num,
            codes,
            tx_ids,
            commit_hash: committed.commit_hash,
            timings,
        })
    }

    /// Runs only the *signature* stages of validation — decode, orderer
    /// check, and the parallel verify/vscc phase — without touching
    /// MVCC, the state database, or the ledger. Useful for
    /// re-validation flows and for benchmarking the verification
    /// pipeline in isolation; repeated calls exercise the signature
    /// cache exactly like re-delivered blocks do.
    ///
    /// # Errors
    ///
    /// [`ValidateError::Decode`] when the block structure is unparsable,
    /// [`ValidateError::DataHash`] when it does not match its header,
    /// [`ValidateError::OrdererSignature`] when the orderer did not sign it.
    pub fn verify_block_signatures(
        &self,
        block: &Block,
    ) -> Result<Vec<TxValidationCode>, ValidateError> {
        self.verify_stage(block).map(|v| v.codes)
    }

    /// Step 1b: the orderer check is one more verification task — a
    /// slice of one through the same [`intern_tasks`], lookup-first order
    /// and [`Verifier::check_batch`] as every client and endorsement
    /// signature.
    fn verify_orderer(&self, decoded: &DecodedBlock) -> bool {
        if !self.verifier.trusted(&decoded.orderer_cert) {
            return false;
        }
        let (tasks, _) = intern_tasks(&[(
            &decoded.orderer_cert.public_key,
            &decoded.orderer_signed_message,
            &decoded.orderer_signature,
        )]);
        self.verdicts(&tasks)[0]
    }

    /// Step 2: the five-phase signature pipeline described in the module
    /// docs — collect tasks, look each up, batch-invert and verify the
    /// misses, assemble per-transaction codes.
    fn verify_vscc_parallel(&self, decoded: &DecodedBlock) -> Vec<TxValidationCode> {
        // Phase 1: collect unique verification tasks. Certificate (MSP)
        // validation is cheap and stays sequential here.
        let (tasks, txs) = self.collect_tasks(decoded);

        // Phases 2–4: the cache first, the ECDSA engine for the rest.
        let verdicts = self.verdicts(&tasks);

        // Phase 5: fold verdicts into per-transaction validation codes.
        txs.iter()
            .map(|tx| match tx {
                TxPlan::BadCreator => TxValidationCode::BadSignature,
                TxPlan::Tasks {
                    chaincode,
                    client,
                    endorsements,
                } => {
                    if !verdicts[*client] {
                        return TxValidationCode::BadSignature;
                    }
                    let valid_endorsers: Vec<NodeId> = endorsements
                        .iter()
                        .filter(|(_, task)| verdicts[*task])
                        .map(|(node, _)| *node)
                        .collect();
                    let policy = match self.policies.get(*chaincode) {
                        Some(p) => p,
                        None => return TxValidationCode::EndorsementPolicyFailure,
                    };
                    let (satisfied, _visits) = policy.evaluate_sequential(&valid_endorsers);
                    if satisfied {
                        TxValidationCode::Valid
                    } else {
                        TxValidationCode::EndorsementPolicyFailure
                    }
                }
            })
            .collect()
    }

    /// Phases 2–4, one verdict per task: each is looked up unclaimed, and
    /// only the misses have their `s` batch-inverted and go, in chunks
    /// of [`BATCH_LANES`], through [`Verifier::par_map`] to
    /// [`Verifier::check_batch`] — work-stealing over *chunks of
    /// signatures* (better load balance than per-transaction when
    /// endorsement counts vary), each signature verified exactly once
    /// and a chunk's worth in one pass of the ECDSA engine.
    fn verdicts(&self, tasks: &[VerifyTask<'_>]) -> Vec<bool> {
        let cache = self.verifier.sig_cache();
        let cached: Vec<Option<bool>> = tasks
            .iter()
            .map(|task| cache.lookup(&task.cache_key))
            .collect();
        let misses: Vec<&VerifyTask<'_>> = tasks
            .iter()
            .zip(&cached)
            .filter_map(|(task, hit)| hit.is_none().then_some(task))
            .collect();
        let mut verified = Vec::new();
        if !misses.is_empty() {
            #[cfg(test)]
            INVERTED.with(|n| n.set(n.get() + misses.len()));
            let sigs: Vec<Signature> = misses.iter().map(|task| task.sig).collect();
            let sinvs = batch_s_inverses(&sigs);
            let chunks: Vec<_> = misses
                .chunks(BATCH_LANES)
                .zip(sinvs.chunks(BATCH_LANES))
                .collect();
            let chunks = self.verifier.par_map(chunks.len(), |c| {
                let (tasks, sinvs) = chunks[c];
                self.verify_chunk(tasks, sinvs)
            });
            verified = chunks.concat();
        }
        let mut verified = verified.into_iter();
        cached
            .into_iter()
            .map(|hit| hit.unwrap_or_else(|| verified.next().expect("one verdict per miss")))
            .collect()
    }

    /// Phase 1, gather → digest → key → intern: walks the block once,
    /// MSP-validating each *distinct* certificate (the block's few
    /// certificates are `Arc`s out of one registry, so the pointer names
    /// them and the verifier's memo is asked once each, not once per
    /// signature) and gathering every trusted `(key, message, signature)`;
    /// then [`intern_tasks`] digests all messages in one call, derives all
    /// cache keys in one call, and emits one [`VerifyTask`] per *unique*
    /// `(pubkey, digest, signature)` triple. Transactions reference tasks
    /// by index, so a signature repeated across (or within) transactions
    /// is verified once — and no chunk of [`Self::verdicts`] holds the
    /// same cache key twice.
    fn collect_tasks<'a>(
        &self,
        decoded: &'a DecodedBlock,
    ) -> (Vec<VerifyTask<'a>>, Vec<TxPlan<'a>>) {
        let mut seen: HashMap<*const KnownCert, bool> = HashMap::new();
        let mut trusted = |cert: &Arc<KnownCert>| {
            *seen
                .entry(Arc::as_ptr(cert))
                .or_insert_with(|| self.verifier.trusted(cert))
        };
        // Until they are interned, the plans index `triples`.
        let mut triples: Vec<Triple<'a>> = Vec::new();
        let mut txs = Vec::with_capacity(decoded.txs.len());
        for tx in &decoded.txs {
            // The creator identity must chain to its org CA before its
            // signature is worth checking.
            if !trusted(&tx.creator_cert) {
                txs.push(TxPlan::BadCreator);
                continue;
            }
            let client = triples.len();
            triples.push((
                &tx.creator_cert.public_key,
                &tx.signed_payload,
                &tx.client_signature,
            ));
            // vscc verifies ALL endorsements (Fabric semantics);
            // endorsers with invalid certificates are skipped, exactly
            // like the seed's per-tx loop.
            let mut endorsements = Vec::with_capacity(tx.endorsements.len());
            for e in &tx.endorsements {
                if !trusted(&e.endorser_cert) {
                    continue;
                }
                endorsements.push((e.endorser_cert.node_id, triples.len()));
                triples.push((&e.endorser_cert.public_key, &e.signed_message, &e.signature));
            }
            txs.push(TxPlan::Tasks {
                chaincode: &tx.chaincode,
                client,
                endorsements,
            });
        }
        let (tasks, task_of) = intern_tasks(&triples);
        for tx in &mut txs {
            if let TxPlan::Tasks {
                client,
                endorsements,
                ..
            } = tx
            {
                *client = task_of[*client];
                for (_, task) in endorsements {
                    *task = task_of[*task];
                }
            }
        }
        (tasks, txs)
    }

    /// One chunk of misses: the keys this thread can claim are verified
    /// as one batch, the rest waited for afterwards.
    fn verify_chunk(&self, tasks: &[&VerifyTask<'_>], sinvs: &[U256]) -> Vec<bool> {
        let keys: Vec<SigCacheKey> = tasks.iter().map(|task| task.cache_key).collect();
        self.verifier.check_batch(&keys, |claimed| {
            let items: Vec<BatchItem<'_>> = claimed
                .iter()
                .map(|&i| BatchItem {
                    key: tasks[i].key,
                    digest: tasks[i].digest,
                    sig: tasks[i].sig,
                    sinv: sinvs[i],
                })
                .collect();
            verify_batch(&items)
        })
    }
}

/// Output of the signature half of validation (steps 1–2), ready for the
/// order-sensitive MVCC/commit half. Fully owned, so the streaming
/// validator can hand it between threads.
#[derive(Debug)]
pub(crate) struct VerifiedBlock {
    pub(crate) decoded: DecodedBlock,
    pub(crate) codes: Vec<TxValidationCode>,
    pub(crate) timings: StageTimings,
}

/// One unique signature check: the precomputed cache key, the message
/// digest, and the signature; the public key is borrowed from the
/// decoded block.
struct VerifyTask<'a> {
    cache_key: SigCacheKey,
    digest: [u8; 32],
    sig: Signature,
    key: &'a VerifyingKey,
}

/// Per-transaction plan produced by task collection.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum TxPlan<'a> {
    /// Creator certificate failed MSP validation; no tasks emitted.
    BadCreator,
    /// Verifiable transaction: task indices for the client signature and
    /// each MSP-valid endorsement.
    Tasks {
        chaincode: &'a str,
        client: usize,
        endorsements: Vec<(NodeId, usize)>,
    },
}

/// One signature check as a block carries it: key, signed message,
/// signature.
type Triple<'a> = (&'a VerifyingKey, &'a [u8], &'a Signature);

/// The one way a `(key, message, signature)` becomes a task: every
/// message digested in one call ([`sha256_many`]), every cache key
/// derived in one call ([`SigCacheKey::compute_many`]), then one
/// [`VerifyTask`] per distinct cache key, in order of first appearance.
/// Returns the tasks and, for each triple, the index of its task.
fn intern_tasks<'a>(triples: &[Triple<'a>]) -> (Vec<VerifyTask<'a>>, Vec<usize>) {
    let messages: Vec<&[u8]> = triples.iter().map(|&(_, message, _)| message).collect();
    let digests = sha256_many(&messages);
    let cache_keys = SigCacheKey::compute_many(
        triples
            .iter()
            .zip(&digests)
            .map(|(&(key, _, sig), digest)| (key, digest, sig)),
    );
    let mut tasks = Vec::new();
    let mut index: HashMap<SigCacheKey, usize> = HashMap::with_capacity(triples.len());
    let task_of = triples
        .iter()
        .zip(digests)
        .zip(cache_keys)
        .map(|((&(key, _, sig), digest), cache_key)| {
            *index.entry(cache_key).or_insert_with(|| {
                tasks.push(VerifyTask {
                    cache_key,
                    digest,
                    sig: *sig,
                    key,
                });
                tasks.len() - 1
            })
        })
        .collect();
    (tasks, task_of)
}

#[cfg(test)]
thread_local! {
    /// Signatures whose `s` this thread batch-inverted.
    static INVERTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::Role;
    use fabric_crypto::Claim;
    use fabric_node::chaincode::KvChaincode;
    use fabric_node::network::FabricNetworkBuilder;
    use fabric_policy::parse;

    fn network_and_validator(
        block_size: usize,
        workers: usize,
    ) -> (fabric_node::FabricNetwork, ValidatorPipeline) {
        network_of_clients_and_validator(1, block_size, workers)
    }

    /// [`network_and_validator`] with `clients` client identities, dealt
    /// over the two organizations in turn.
    fn network_of_clients_and_validator(
        clients: u8,
        block_size: usize,
        workers: usize,
    ) -> (fabric_node::FabricNetwork, ValidatorPipeline) {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .clients(clients.into())
            .block_size(block_size)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        // The validator trusts the same org CAs; rebuild an identical MSP
        // (deterministic issuance) and register the network identities.
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        for i in 0..clients {
            msp.issue(i % 2, Role::Client, i / 2).unwrap();
        }
        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), parse("2-outof-2 orgs").unwrap());
        (net, ValidatorPipeline::new(msp, policies, workers))
    }

    /// A validator and the first two single-transaction blocks (`put a`,
    /// `put b`) of a chain it trusts.
    fn validator_and_two_blocks() -> (ValidatorPipeline, Block, Block) {
        let (mut net, validator) = network_and_validator(1, 2);
        let mut submit = |key: &str| {
            net.submit_invocation(0, "kv", "put", &[key.into(), "1".into()])
                .unwrap()
                .remove(0)
        };
        let (first, second) = (submit("a"), submit("b"));
        (validator, first, second)
    }

    #[test]
    fn valid_block_commits_all_transactions() {
        let (mut net, validator) = network_and_validator(2, 4);
        net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.valid_count(), 2);
        assert_eq!(validator.state_db().get("a").unwrap().value, b"1");
        assert_eq!(validator.ledger().height(), 1);
    }

    #[test]
    fn mvcc_conflict_is_flagged() {
        let (mut net, validator) = network_and_validator(2, 2);
        // Two writes to the same key in one block, both endorsed against
        // the same (missing) version: the second must fail MVCC.
        net.submit_invocation(0, "kv", "put", &["k".into(), "1".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["k".into(), "2".into()])
            .unwrap();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.codes[0], TxValidationCode::Valid);
        assert_eq!(result.codes[1], TxValidationCode::MvccReadConflict);
        // First write won.
        assert_eq!(validator.state_db().get("k").unwrap().value, b"1");
    }

    #[test]
    fn all_endorsements_are_verified_even_when_policy_needs_fewer() {
        // 1of2 policy with 2 endorsements: Fabric still verifies both.
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(1)
            .chaincode("kv", parse("1-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), parse("1-outof-2 orgs").unwrap());
        let validator = ValidatorPipeline::new(msp, policies, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let before = validator.verifications();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.valid_count(), 1);
        // orderer(1) + client(1) + BOTH endorsements(2) = 4
        assert_eq!(validator.verifications() - before, 4);
    }

    #[test]
    fn unknown_chaincode_policy_invalidates() {
        let (mut net, _) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        // Validator with no policy for "kv".
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        let validator = ValidatorPipeline::new(msp, HashMap::new(), 2);
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.codes[0], TxValidationCode::EndorsementPolicyFailure);
    }

    #[test]
    fn forged_orderer_invalidates_block() {
        let (validator, mut block, next) = validator_and_two_blocks();
        // A well-formed orderer signature, over another header.
        let slot = fabric_protos::messages::metadata_index::SIGNATURES;
        block.metadata.metadata[slot] = next.metadata.metadata[slot].clone();
        let before = validator.verifications();
        let refused = validator.validate_and_commit(&block);
        assert!(matches!(
            refused,
            Err(ValidateError::OrdererSignature { block: 0 })
        ));
        assert_eq!(validator.verifications() - before, 1, "the orderer's alone");
        assert_eq!(validator.ledger().height(), 0);
        assert_eq!(
            validator.state_db().state_hash(),
            StateDb::new().state_hash()
        );
    }

    #[test]
    fn swapped_envelope_is_refused_before_any_verification() {
        // The envelope is replaced by another validly signed one and the
        // header left alone: every signature in the block would verify,
        // but the header no longer commits to what it carries. Committing
        // it would write a block the ledger refuses at recovery.
        let (validator, mut block, next) = validator_and_two_blocks();
        block.data.data[0] = next.data.data[0].clone();
        let before = validator.verifications();
        assert!(matches!(
            validator.validate_and_commit(&block),
            Err(ValidateError::DataHash { block: 0 })
        ));
        assert!(matches!(
            validator.verify_block_signatures(&block),
            Err(ValidateError::DataHash { block: 0 })
        ));
        assert_eq!(validator.verifications(), before, "no verification burned");
        assert_eq!(validator.ledger().height(), 0);
        assert!(validator.state_db().get("b").is_none());
    }

    #[test]
    fn timings_are_recorded() {
        let (mut net, validator) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        // vscc does 3 real ECDSA verifications; it cannot be instant.
        assert!(result.timings.verify_vscc_us > 0);
        assert!(result.timings.total_excl_ledger_us() > 0);
    }

    #[test]
    fn repeated_endorsements_verify_once() {
        // A block whose transaction carries N copies of the same
        // endorsement must cost exactly ONE underlying ECDSA
        // verification for all of them (plus one client + one orderer).
        let (mut net, validator) = network_and_validator(1, 4);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let block_len = blocks[0].marshal().len();
        let mut decoded =
            fabric_protos::txflow::decode_block_struct(&blocks[0], block_len).unwrap();
        let endorsement = decoded.txs[0].endorsements[0].clone();
        for _ in 0..7 {
            decoded.txs[0].endorsements.push(endorsement.clone());
        }
        assert_eq!(decoded.txs[0].endorsements.len(), 9);
        let before = validator.verifications();
        let codes = validator.verify_vscc_parallel(&decoded);
        assert_eq!(codes[0], TxValidationCode::Valid);
        // 1 client + 2 unique endorsements; the 7 duplicates were
        // deduplicated before reaching the ECDSA engine.
        assert_eq!(validator.verifications() - before, 3);
    }

    #[test]
    fn identical_blocks_hit_the_cache() {
        let (mut net, validator) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let block_len = blocks[0].marshal().len();
        let decoded = fabric_protos::txflow::decode_block_struct(&blocks[0], block_len).unwrap();
        let first = validator.verifications();
        validator.verify_vscc_parallel(&decoded);
        let after_first = validator.verifications();
        assert_eq!(after_first - first, 3, "client + 2 endorsements");
        // Re-validating the same signatures costs zero verifications.
        validator.verify_vscc_parallel(&decoded);
        assert_eq!(validator.verifications(), after_first);
        let stats = validator.sig_cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn cache_does_not_leak_verdicts_across_triples() {
        // A *tampered* copy of a cached-valid signature must still fail:
        // the cache key covers (pubkey, digest, signature), so any
        // change misses the cache and verifies for real.
        let (mut net, validator) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let block_len = blocks[0].marshal().len();
        let mut decoded =
            fabric_protos::txflow::decode_block_struct(&blocks[0], block_len).unwrap();
        let codes = validator.verify_vscc_parallel(&decoded);
        assert_eq!(codes[0], TxValidationCode::Valid);
        // Corrupt the client's signed payload: digest changes, cache
        // misses, verification fails.
        decoded.txs[0].signed_payload.push(0xFF);
        let codes = validator.verify_vscc_parallel(&decoded);
        assert_eq!(codes[0], TxValidationCode::BadSignature);
    }

    #[test]
    fn stage_timings_total_is_the_sum_of_its_components() {
        // Distinct powers of two: any component dropped from (or double
        // counted in) total_excl_ledger_us would change the sum.
        let t = StageTimings {
            unmarshal_us: 1,
            block_verify_us: 2,
            verify_vscc_us: 4,
            mvcc_us: 8,
            statedb_commit_us: 16,
            ledger_us: 32,
        };
        assert_eq!(t.total_excl_ledger_us(), 1 + 2 + 4 + 8 + 16);
        // The paper's metric excludes exactly one stage: ledger commit.
        assert_eq!(t.total_excl_ledger_us() + t.ledger_us, 63);
        // Guard against silent stage additions: adding a field to
        // StageTimings changes its size — whoever does that must decide
        // whether the new stage belongs in total_excl_ledger_us and
        // update this test alongside it.
        assert_eq!(
            std::mem::size_of::<StageTimings>(),
            6 * std::mem::size_of::<u64>(),
            "StageTimings gained a field: include it in total_excl_ledger_us \
             (or document why not) and update this test"
        );
    }

    #[test]
    fn stage_timings_are_monotone_over_a_real_block() {
        // For a real validation every stage is non-negative, the
        // exclusive total dominates each component, and adding ledger
        // time never decreases the total (monotonicity of the metric).
        let (mut net, validator) = network_and_validator(2, 2);
        net.submit_invocation(0, "kv", "put", &["m1".into(), "1".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["m2".into(), "2".into()])
            .unwrap();
        let t = validator.validate_and_commit(&blocks[0]).unwrap().timings;
        let total = t.total_excl_ledger_us();
        for (name, component) in [
            ("unmarshal", t.unmarshal_us),
            ("block_verify", t.block_verify_us),
            ("verify_vscc", t.verify_vscc_us),
            ("mvcc", t.mvcc_us),
            ("statedb_commit", t.statedb_commit_us),
        ] {
            assert!(
                component <= total,
                "{name} ({component}) exceeds total {total}"
            );
        }
        assert_eq!(
            total,
            t.unmarshal_us + t.block_verify_us + t.verify_vscc_us + t.mvcc_us + t.statedb_commit_us
        );
        assert!(total + t.ledger_us >= total);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (mut net, v1) = network_and_validator(4, 1);
        let (_, v8) = network_and_validator(4, 8);
        for i in 0..3 {
            net.submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
                .unwrap();
        }
        let blocks = net
            .submit_invocation(0, "kv", "put", &["k3".into(), "1".into()])
            .unwrap();
        let r1 = v1.validate_and_commit(&blocks[0]).unwrap();
        let r8 = v8.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(r1.codes, r8.codes);
        assert_eq!(r1.commit_hash, r8.commit_hash);
    }

    /// This thread's count of batch-inverted signatures and the count of
    /// threads `validator`'s `par_map` spawned.
    fn inverted_and_spawned(validator: &ValidatorPipeline) -> (usize, usize) {
        (INVERTED.with(|n| n.get()), validator.verifier.spawned())
    }

    /// A validator with four workers and one 4-transaction block: 13
    /// unique signature checks (the orderer's, 4 clients', 8 endorsers').
    fn validator_and_block_of_four() -> (ValidatorPipeline, Block) {
        let (mut net, validator) = network_and_validator(4, 4);
        let mut blocks = Vec::new();
        for key in ["a", "b", "c", "d"] {
            blocks = net
                .submit_invocation(0, "kv", "put", &[key.into(), "1".into()])
                .unwrap();
        }
        (validator, blocks.remove(0))
    }

    #[test]
    fn cold_block_misses_every_task_and_its_replay_hits_every_task_for_nothing() {
        let (validator, block) = validator_and_block_of_four();
        let (inverted, spawned) = inverted_and_spawned(&validator);
        let cold = validator.verify_block_signatures(&block).unwrap();
        assert!(cold.iter().all(|c| c.is_valid()));
        let stats = validator.sig_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 13));
        assert_eq!(validator.verifications(), 13);
        // The orderer's alone is one chunk, verified inline; the 12 of
        // vscc are ⌈12 / 8⌉ = 2 chunks, so two of the 4 workers have
        // something to take and one of them is the caller.
        assert_eq!(BATCH_LANES, 8);
        assert_eq!(
            inverted_and_spawned(&validator),
            (inverted + 13, spawned + 1)
        );

        let warm = validator.verify_block_signatures(&block).unwrap();
        assert_eq!(warm, cold);
        let stats = validator.sig_cache_stats();
        assert_eq!((stats.hits, stats.misses), (13, 13));
        assert_eq!(validator.verifications(), 13);
        assert_eq!(
            inverted_and_spawned(&validator),
            (inverted + 13, spawned + 1),
            "an all-hit block inverts nothing and spawns nothing"
        );
    }

    /// A certificate that still parses but is no longer what its CA
    /// signed.
    fn forged(cert: &KnownCert) -> Arc<KnownCert> {
        let mut forged = fabric_crypto::Certificate::from_bytes(&cert.to_bytes()).unwrap();
        forged.serial += 1;
        KnownCert::resolve(&forged.to_bytes()).unwrap()
    }

    #[test]
    fn batched_collect_yields_the_tasks_and_codes_of_deriving_each_task_alone() {
        let (validator, block) = validator_and_block_of_four();
        let mut decoded = decode_block_struct(&block, 0).unwrap();
        // Every triple of the first transaction again in the third, a
        // creator the CA never signed, and an endorser it never signed.
        decoded.txs[2] = decoded.txs[0].clone();
        decoded.txs[1].creator_cert = forged(&decoded.txs[1].creator_cert);
        let endorser = &mut decoded.txs[3].endorsements[0].endorser_cert;
        *endorser = forged(endorser);

        // The reference: membership asked per signature, one `sha256`
        // and one `SigCacheKey::compute` per message, interned in order.
        let mut expected_tasks = Vec::new();
        let mut index = HashMap::new();
        let mut intern = |key: &VerifyingKey, message: &[u8], sig: &Signature| {
            let digest = fabric_crypto::sha256(message);
            let cache_key = SigCacheKey::compute(key, &digest, sig);
            *index.entry(cache_key).or_insert_with(|| {
                expected_tasks.push((cache_key, digest, *sig, key.to_sec1_bytes()));
                expected_tasks.len() - 1
            })
        };
        let expected_plans: Vec<TxPlan<'_>> = decoded
            .txs
            .iter()
            .map(|tx| {
                if !validator.verifier.trusted(&tx.creator_cert) {
                    return TxPlan::BadCreator;
                }
                let creator = &tx.creator_cert.public_key;
                TxPlan::Tasks {
                    chaincode: &tx.chaincode,
                    client: intern(creator, &tx.signed_payload, &tx.client_signature),
                    endorsements: tx
                        .endorsements
                        .iter()
                        .filter(|e| validator.verifier.trusted(&e.endorser_cert))
                        .map(|e| {
                            let key = &e.endorser_cert.public_key;
                            let task = intern(key, &e.signed_message, &e.signature);
                            (e.endorser_cert.node_id, task)
                        })
                        .collect(),
                }
            })
            .collect();

        let (tasks, plans) = validator.collect_tasks(&decoded);
        let tasks: Vec<_> = tasks
            .iter()
            .map(|t| (t.cache_key, t.digest, t.sig, t.key.to_sec1_bytes()))
            .collect();
        assert_eq!(tasks, expected_tasks);
        assert_eq!(
            tasks.len(),
            5,
            "3 shared by two transactions, 2 of the last"
        );
        assert_eq!(plans, expected_plans);
        assert_eq!(plans[0], plans[2], "the repeat names the same tasks");
        assert_eq!(plans[1], TxPlan::BadCreator);
        assert_eq!(
            validator.verify_vscc_parallel(&decoded),
            [
                TxValidationCode::Valid,
                TxValidationCode::BadSignature,
                TxValidationCode::Valid,
                TxValidationCode::EndorsementPolicyFailure,
            ]
        );
    }

    #[test]
    fn a_block_takes_the_certificate_memo_once_per_distinct_certificate() {
        // Two 100-transaction blocks over six identities: the orderer,
        // three clients, one endorser in each of two organizations.
        let (mut net, validator) = network_of_clients_and_validator(3, 100, 2);
        let mut blocks = Vec::new();
        for i in 0..200 {
            let args = [format!("k{i}"), "1".into()];
            blocks.extend(net.submit_invocation(i % 3, "kv", "put", &args).unwrap());
        }
        let memo_locks = || validator.verifier.memo_locks();
        for (block, locks_per_certificate) in blocks.iter().zip([
            2, // cold: one to look, one to record the chain check
            1,
        ]) {
            let before = memo_locks();
            let result = validator.validate_and_commit(block).unwrap();
            assert_eq!(result.valid_count(), 100);
            assert_eq!(
                memo_locks() - before,
                6 * locks_per_certificate,
                "300 signatures and the orderer's, six certificates"
            );
        }
    }

    #[test]
    fn half_warm_block_inverts_and_verifies_exactly_what_is_missing() {
        let (validator, block) = validator_and_block_of_four();
        let decoded = decode_block_struct(&block, 0).unwrap();
        let mut half = decoded.clone();
        half.txs.truncate(2);
        validator.verify_vscc_parallel(&half);
        let stats = validator.sig_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 6));
        let (inverted, _) = inverted_and_spawned(&validator);

        let codes = validator.verify_vscc_parallel(&decoded);
        assert!(codes.iter().all(|c| c.is_valid()));
        let stats = validator.sig_cache_stats();
        assert_eq!((stats.hits, stats.misses), (6, 12));
        assert_eq!(validator.verifications(), 12);
        assert_eq!(inverted_and_spawned(&validator).0, inverted + 6);
    }

    #[test]
    fn a_key_another_thread_is_verifying_misses_the_lookup_and_coalesces_in_check() {
        let (validator, block, _) = validator_and_two_blocks();
        let decoded = decode_block_struct(&block, 0).unwrap();
        let tx = &decoded.txs[0];
        let (client, _) = intern_tasks(&[(
            &tx.creator_cert.public_key,
            &tx.signed_payload,
            &tx.client_signature,
        )]);
        let cache = Arc::clone(validator.verifier.sig_cache());
        let Claim::Verify(in_flight) = cache.claim(&client[0].cache_key) else {
            panic!("nothing is cached yet");
        };
        std::thread::scope(|s| {
            let vscc = s.spawn(|| validator.verify_vscc_parallel(&decoded));
            // Every lookup precedes every claim, and the two endorsement
            // claims are counted misses: once both are in, the client
            // key has been looked up — while still held here.
            while cache.stats().misses < 3 {
                std::thread::yield_now();
            }
            assert_eq!(cache.stats().hits, 0, "a key in flight is not a hit");
            in_flight.fulfill(true);
            assert_eq!(vscc.join().unwrap(), vec![TxValidationCode::Valid]);
        });
        // The verdict published here answered the client check: parked
        // on the flight, or — reaching `check` only after — cached.
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits + stats.coalesced, 1);
        assert_eq!(validator.verifications(), 2, "the two endorsements");
    }
}
