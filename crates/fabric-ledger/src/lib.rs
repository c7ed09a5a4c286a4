//! Append-only block ledger with index, hash chain and history database.
//!
//! The final step of validation "commits the block ... the entire block is
//! written to the ledger with its transactions' valid/invalid flags and a
//! commit hash. ... Internally, the ledger commit writes the block to a
//! file and updates the block index (stored in an internal database, and
//! used for checking duplicates)" (paper §2.1.2/§2.1.3). The paper keeps
//! ledger commit on the CPU in both peers — it is I/O-bound — so both the
//! software validator and the BMac peer share this implementation.
//!
//! # Pluggable block stores
//!
//! Where committed blocks physically live is behind the [`BlockStore`]
//! trait, following the crate convention set by the crypto backends: the
//! in-memory [`MemoryBlockStore`] is the default *and* the differential
//! oracle, and a durable implementation (`fabric-store`'s segmented
//! store) plugs in via [`Ledger::with_store`]. Opening a ledger over an
//! existing store is a *recovery*: the tx index and history database are
//! rebuilt from the stored blocks and the whole hash chain — header
//! links, data hashes, and the running commit hash — is re-verified, so
//! a corrupted stored block is rejected at reopen with its block number.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric_crypto::sha256::Sha256;
use fabric_protos::messages::{metadata_index, Block, BlockHeader};
use fabric_protos::txflow::{block_header_hash, decode_block_struct, hash_block_data};
use parking_lot::Mutex;

/// Transaction validation codes stored in the block's transactions filter
/// (a subset of Fabric's `peer.TxValidationCode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxValidationCode {
    /// Transaction is valid and its writes were committed.
    Valid,
    /// A signature failed verification.
    BadSignature,
    /// The endorsement policy was not satisfied.
    EndorsementPolicyFailure,
    /// An MVCC read conflict invalidated the transaction.
    MvccReadConflict,
    /// The envelope could not be decoded.
    BadPayload,
}

impl TxValidationCode {
    /// Byte value stored in the transactions filter (matching Fabric's
    /// numeric codes where they exist).
    pub fn code(self) -> u8 {
        match self {
            TxValidationCode::Valid => 0,
            TxValidationCode::BadPayload => 2,
            TxValidationCode::BadSignature => 4,
            TxValidationCode::EndorsementPolicyFailure => 10,
            TxValidationCode::MvccReadConflict => 11,
        }
    }

    /// Inverse of [`TxValidationCode::code`], used when reconstructing
    /// validation flags from a stored transactions filter.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => TxValidationCode::Valid,
            2 => TxValidationCode::BadPayload,
            4 => TxValidationCode::BadSignature,
            10 => TxValidationCode::EndorsementPolicyFailure,
            11 => TxValidationCode::MvccReadConflict,
            _ => return None,
        })
    }

    /// Whether this code marks the transaction valid.
    pub fn is_valid(self) -> bool {
        self == TxValidationCode::Valid
    }
}

/// A committed block with its validation results.
#[derive(Debug, Clone)]
pub struct CommittedBlock {
    /// The block, with metadata slots filled in at commit.
    pub block: Block,
    /// Hash of the block header.
    pub header_hash: [u8; 32],
    /// Per-transaction validation flags.
    pub tx_filter: Vec<TxValidationCode>,
    /// Running commit hash after this block.
    pub commit_hash: [u8; 32],
}

impl CommittedBlock {
    /// Reconstructs a committed block from a block whose metadata was
    /// already stamped by [`Ledger::commit_block`] — the shape a durable
    /// store reads back from disk (only the marshaled block is
    /// persisted; filter, commit hash and header hash are re-derived).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the metadata slots do not carry a decodable
    /// filter or a 32-byte commit hash.
    pub fn from_stamped_block(block: Block) -> Result<Self, StoreError> {
        let filter_bytes = &block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER];
        if filter_bytes.len() != block.data.data.len() {
            return Err(StoreError::new("stored filter length != tx count"));
        }
        let tx_filter = filter_bytes
            .iter()
            .map(|&b| TxValidationCode::from_code(b))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| StoreError::new("stored filter carries an unknown code"))?;
        let commit_hash: [u8; 32] = block.metadata.metadata[metadata_index::COMMIT_HASH]
            .as_slice()
            .try_into()
            .map_err(|_| StoreError::new("stored commit hash is not 32 bytes"))?;
        let header_hash = block_header_hash(&block.header);
        Ok(CommittedBlock {
            block,
            header_hash,
            tx_filter,
            commit_hash,
        })
    }
}

/// A block-store failure (I/O, framing, serialization). Carried inside
/// [`LedgerError::Store`]; the message is diagnostic, not programmatic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(String);

impl StoreError {
    /// Wraps a diagnostic message.
    pub fn new(msg: impl Into<String>) -> Self {
        StoreError(msg.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

/// Physical storage of committed blocks, append-only and numbered from
/// zero. Implementations: [`MemoryBlockStore`] (default, also the
/// differential oracle for the durable backend) and `fabric-store`'s
/// segmented on-disk store.
pub trait BlockStore: Send + fmt::Debug {
    /// Number of stored blocks (the chain height).
    fn len(&self) -> u64;

    /// Whether the store holds no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads a block by number. `None` for out-of-range numbers *and*
    /// for records that fail integrity checks — [`Ledger::with_store`]
    /// turns a `None` inside the valid range into
    /// [`LedgerError::Corrupt`] with the block number.
    fn get(&self, number: u64) -> Option<CommittedBlock>;

    /// Appends the next block. The caller ([`Ledger`]) guarantees
    /// `block.block.header.number == self.len()`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure.
    fn append(&mut self, block: &CommittedBlock) -> Result<(), StoreError>;

    /// Forces buffered writes down to the backing medium (group-commit
    /// boundary; a no-op for memory stores).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure.
    fn flush(&mut self) -> Result<(), StoreError>;
}

/// The default in-memory block store.
#[derive(Debug, Default)]
pub struct MemoryBlockStore {
    blocks: Vec<CommittedBlock>,
}

impl MemoryBlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemoryBlockStore::default()
    }
}

impl BlockStore for MemoryBlockStore {
    fn len(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn get(&self, number: u64) -> Option<CommittedBlock> {
        self.blocks.get(number as usize).cloned()
    }

    fn append(&mut self, block: &CommittedBlock) -> Result<(), StoreError> {
        self.blocks.push(block.clone());
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Errors appending to (or recovering) the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The block number is not `height()`.
    OutOfOrder {
        /// Expected next block number.
        expected: u64,
        /// Number of the rejected block.
        got: u64,
    },
    /// `previous_hash` does not match the chain tip.
    BrokenChain,
    /// A block with this number was already committed.
    Duplicate(u64),
    /// The tx filter length does not match the block's tx count.
    FilterMismatch,
    /// The underlying block store failed.
    Store(StoreError),
    /// A stored block failed integrity verification at recovery: hash
    /// chain, data hash, commit-hash chain, or record-level checks.
    Corrupt {
        /// Number of the offending block.
        block: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::OutOfOrder { expected, got } => {
                write!(f, "expected block {expected}, got {got}")
            }
            LedgerError::BrokenChain => write!(f, "previous_hash does not match chain tip"),
            LedgerError::Duplicate(n) => write!(f, "duplicate block {n}"),
            LedgerError::FilterMismatch => {
                write!(
                    f,
                    "validation filter length does not match transaction count"
                )
            }
            LedgerError::Store(e) => write!(f, "{e}"),
            LedgerError::Corrupt { block } => {
                write!(f, "stored block {block} failed integrity verification")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<StoreError> for LedgerError {
    fn from(e: StoreError) -> Self {
        LedgerError::Store(e)
    }
}

/// Cached facts about the chain tip so commits never re-read the store.
#[derive(Debug, Clone, Copy)]
struct TipInfo {
    header_hash: [u8; 32],
    commit_hash: [u8; 32],
}

/// The append-only block store + index. Thread-safe and cheaply clonable
/// (clones share the chain).
#[derive(Debug, Clone)]
pub struct Ledger {
    inner: Arc<Mutex<LedgerInner>>,
    /// The chain height, published after each commit so that reading it
    /// never waits behind a commit's durable append (which holds `inner`
    /// for milliseconds).
    height: Arc<AtomicU64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::from_inner(LedgerInner {
            store: Box::new(MemoryBlockStore::new()),
            tip: None,
            tx_index: HashMap::new(),
            history: HistoryDb::new(),
        })
    }
}

#[derive(Debug)]
struct LedgerInner {
    store: Box<dyn BlockStore>,
    tip: Option<TipInfo>,
    /// Block index: tx_id -> (block number, tx index); used for duplicate
    /// detection on commit.
    tx_index: HashMap<String, (u64, usize)>,
    history: HistoryDb,
}

impl LedgerInner {
    fn check_next(&self, header: &BlockHeader) -> Result<(), LedgerError> {
        let (got, expected) = (header.number, self.store.len());
        let tip_hash = self.tip.map(|t| t.header_hash).unwrap_or([0u8; 32]);
        match got.cmp(&expected) {
            std::cmp::Ordering::Less => Err(LedgerError::Duplicate(got)),
            std::cmp::Ordering::Greater => Err(LedgerError::OutOfOrder { expected, got }),
            _ if header.previous_hash != tip_hash => Err(LedgerError::BrokenChain),
            _ => Ok(()),
        }
    }
}

impl Ledger {
    /// Creates an empty in-memory ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    fn from_inner(inner: LedgerInner) -> Self {
        Ledger {
            height: Arc::new(AtomicU64::new(inner.store.len())),
            inner: Arc::new(Mutex::named("ledger.inner", inner)),
        }
    }

    /// Opens a ledger over an existing block store — the recovery path.
    ///
    /// Every stored block is decoded and the whole chain re-verified
    /// (header-hash links, data hashes, and the running commit hash)
    /// while the tx index and history database are rebuilt, so a bad
    /// block is pinned to its number instead of surfacing later as a
    /// mystery chain break.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] with the offending block number when a
    /// stored block is missing, undecodable, or fails any chain check.
    pub fn with_store(store: Box<dyn BlockStore>) -> Result<Self, LedgerError> {
        let mut tx_index = HashMap::new();
        let mut history = HistoryDb::new();
        let mut tip: Option<TipInfo> = None;
        let mut prev_header = [0u8; 32];
        let mut prev_commit = [0u8; 32];
        for number in 0..store.len() {
            let corrupt = || LedgerError::Corrupt { block: number };
            let cb = store.get(number).ok_or_else(corrupt)?;
            (prev_header, prev_commit) =
                verify_stored_block(number, &prev_header, &prev_commit, &cb)
                    .map_err(|block| LedgerError::Corrupt { block })?;
            let block = &cb.block;
            let decoded = decode_block_struct(block, block.encoded_len()).map_err(|_| corrupt())?;
            if decoded.txs.len() != cb.tx_filter.len() {
                return Err(corrupt());
            }
            for (i, tx) in decoded.txs.iter().enumerate() {
                tx_index.entry(tx.tx_id.clone()).or_insert((number, i));
                if cb.tx_filter[i] == TxValidationCode::Valid {
                    for (key, _) in &tx.writes {
                        history.record(key, number, i as u64);
                    }
                }
            }
            tip = Some(TipInfo {
                header_hash: cb.header_hash,
                commit_hash: cb.commit_hash,
            });
        }
        Ok(Ledger::from_inner(LedgerInner {
            store,
            tip,
            tx_index,
            history,
        }))
    }

    /// Current chain height (number of the next block). Lock-free: while
    /// a commit is in flight this is still the height before it.
    pub fn height(&self) -> u64 {
        self.height.load(Ordering::Acquire)
    }

    /// Hash of the chain tip's header, or zeros for an empty chain.
    pub fn tip_hash(&self) -> [u8; 32] {
        let g = self.inner.lock();
        g.tip.map(|t| t.header_hash).unwrap_or([0u8; 32])
    }

    /// Running commit hash at the tip (zeros for an empty chain).
    pub fn tip_commit_hash(&self) -> [u8; 32] {
        let g = self.inner.lock();
        g.tip.map(|t| t.commit_hash).unwrap_or([0u8; 32])
    }

    /// Checks that `header` is the chain's next link — number and
    /// `previous_hash` — as [`Ledger::commit_block`] does; the committer
    /// calls it before it writes any state.
    ///
    /// # Errors
    ///
    /// Duplicate, out-of-order or broken-chain [`LedgerError`]s.
    pub fn check_next(&self, header: &BlockHeader) -> Result<(), LedgerError> {
        self.inner.lock().check_next(header)
    }

    /// Commits a validated block: stamps the transactions filter and
    /// commit hash into the metadata, indexes tx ids, and appends.
    ///
    /// `tx_ids` pairs with `tx_filter` index-by-index and is used to build
    /// the duplicate-detection index and the history database.
    ///
    /// # Errors
    ///
    /// Any [`LedgerError`] variant: out-of-order blocks, chain breaks,
    /// duplicates, a filter length mismatch, or a store write failure.
    pub fn commit_block(
        &self,
        mut block: Block,
        tx_ids: &[String],
        tx_filter: Vec<TxValidationCode>,
        modified_keys: &[Vec<String>],
    ) -> Result<CommittedBlock, LedgerError> {
        let mut g = self.inner.lock();
        g.check_next(&block.header)?;
        let expected = block.header.number;
        if tx_filter.len() != block.data.data.len() || tx_ids.len() != tx_filter.len() {
            return Err(LedgerError::FilterMismatch);
        }

        let filter_bytes: Vec<u8> = tx_filter.iter().map(|c| c.code()).collect();
        let prev_commit = g.tip.map(|t| t.commit_hash).unwrap_or([0u8; 32]);
        let commit_hash = compute_commit_hash(&prev_commit, &block, &filter_bytes);
        block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER] = filter_bytes;
        block.metadata.metadata[metadata_index::COMMIT_HASH] = commit_hash.to_vec();

        let header_hash = block_header_hash(&block.header);
        let committed = CommittedBlock {
            block,
            header_hash,
            tx_filter,
            commit_hash,
        };
        // Store write first: if it fails the indexes stay untouched and
        // the commit is cleanly rejected.
        g.store.append(&committed)?;
        // A replayed tx id keeps its first occurrence.
        for (i, tx_id) in tx_ids.iter().enumerate() {
            g.tx_index.entry(tx_id.clone()).or_insert((expected, i));
        }
        for (i, keys) in modified_keys.iter().enumerate() {
            if committed.tx_filter[i] == TxValidationCode::Valid {
                for key in keys {
                    g.history.record(key, expected, i as u64);
                }
            }
        }
        g.tip = Some(TipInfo {
            header_hash,
            commit_hash,
        });
        self.height.store(expected + 1, Ordering::Release);
        Ok(committed)
    }

    /// Fetches a committed block by number.
    pub fn block(&self, number: u64) -> Option<CommittedBlock> {
        self.inner.lock().store.get(number)
    }

    /// Looks up which block and position first committed `tx_id` (the
    /// duplicate check of ledger commit); a later replay of the same id,
    /// in that block or another, does not move the entry.
    pub fn find_tx(&self, tx_id: &str) -> Option<(u64, usize)> {
        self.inner.lock().tx_index.get(tx_id).copied()
    }

    /// Returns the modification history `(block, tx)` for a state key.
    pub fn key_history(&self, key: &str) -> Vec<(u64, u64)> {
        self.inner.lock().history.of(key)
    }

    /// Flushes the underlying block store (the durable group-commit
    /// boundary; a no-op for the in-memory store).
    ///
    /// # Errors
    ///
    /// [`LedgerError::Store`] on write failure.
    pub fn flush(&self) -> Result<(), LedgerError> {
        self.inner.lock().store.flush().map_err(LedgerError::Store)
    }

    /// Verifies the whole chain — header-hash links, data hashes, and
    /// the running commit hash — and returns the first bad block. The
    /// per-block check is `verify_stored_block`, the same one
    /// [`Ledger::with_store`] runs (with index rebuilding) at recovery.
    pub fn verify_chain(&self) -> Result<(), u64> {
        let g = self.inner.lock();
        let mut prev_header = [0u8; 32];
        let mut prev_commit = [0u8; 32];
        for number in 0..g.store.len() {
            let cb = g.store.get(number).ok_or(number)?;
            (prev_header, prev_commit) =
                verify_stored_block(number, &prev_header, &prev_commit, &cb)?;
        }
        Ok(())
    }
}

/// Verifies one stored block against the chain cursor: header number,
/// previous-hash link, data hash, recomputed header hash, and the
/// running commit hash (both the recomputation and the stamped
/// metadata slots). Shared by [`Ledger::with_store`] and
/// [`Ledger::verify_chain`] so the recovery and audit paths can never
/// drift apart. Returns the `(header_hash, commit_hash)` cursor for
/// the next block, or the offending block number.
fn verify_stored_block(
    number: u64,
    prev_header: &[u8; 32],
    prev_commit: &[u8; 32],
    cb: &CommittedBlock,
) -> Result<([u8; 32], [u8; 32]), u64> {
    let block = &cb.block;
    if block.header.number != number
        || block.header.previous_hash != *prev_header
        || block.header.data_hash != hash_block_data(&block.data)
    {
        return Err(number);
    }
    if block_header_hash(&block.header) != cb.header_hash {
        return Err(number);
    }
    let filter_bytes: Vec<u8> = cb.tx_filter.iter().map(|c| c.code()).collect();
    let commit_hash = compute_commit_hash(prev_commit, block, &filter_bytes);
    if commit_hash != cb.commit_hash
        || block.metadata.metadata[metadata_index::COMMIT_HASH] != commit_hash
        || block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER] != filter_bytes
    {
        return Err(number);
    }
    Ok((cb.header_hash, cb.commit_hash))
}

/// Running commit hash: `sha256(prev ++ header ++ filter)`. Both peer
/// implementations must agree on it — the paper used commit-hash equality
/// to confirm BMac did not alter validation behaviour (§4.1).
pub fn compute_commit_hash(prev: &[u8; 32], block: &Block, filter: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&block.header.marshal());
    h.update(filter);
    h.finalize()
}

/// Tracks "which keys have been modified by which blocks and
/// transactions" (paper §2.1.2 step 5).
#[derive(Debug, Default)]
pub struct HistoryDb {
    entries: HashMap<String, Vec<(u64, u64)>>,
}

impl HistoryDb {
    /// Creates an empty history database.
    pub fn new() -> Self {
        HistoryDb::default()
    }

    /// Records that `key` was modified by `(block, tx)`. Only a key
    /// with no history yet is copied.
    pub fn record(&mut self, key: &str, block: u64, tx: u64) {
        match self.entries.get_mut(key) {
            Some(history) => history.push((block, tx)),
            None => {
                self.entries.insert(key.to_string(), vec![(block, tx)]);
            }
        }
    }

    /// All modifications of `key`, oldest first.
    pub fn of(&self, key: &str) -> Vec<(u64, u64)> {
        self.entries.get(key).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::{Msp, Role};
    use fabric_protos::txflow::{build_block, build_transaction, TxParams};

    fn make_block(number: u64, prev: [u8; 32], ntx: usize) -> (Block, Vec<String>) {
        let mut msp = Msp::new(1);
        let client = msp.issue(0, Role::Client, 0).unwrap();
        let endorser = msp.issue(0, Role::Peer, 0).unwrap();
        let mut envs = Vec::new();
        let mut ids = Vec::new();
        for i in 0..ntx {
            let built = build_transaction(
                &client,
                &[&endorser],
                &TxParams {
                    channel_id: "ch",
                    chaincode: "cc",
                    reads: vec![],
                    writes: vec![(format!("k{number}_{i}"), vec![1])],
                    nonce: vec![number as u8, i as u8],
                    timestamp: 0,
                },
            );
            envs.push(built.envelope);
            ids.push(built.tx_id);
        }
        (block_of(number, prev, envs), ids)
    }

    /// An orderer-signed block of `envs` as given, replays included.
    fn block_of(number: u64, prev: [u8; 32], envs: Vec<Vec<u8>>) -> Block {
        let orderer = Msp::new(1).issue(0, Role::Orderer, 0).unwrap();
        build_block(number, &prev, envs, &orderer)
    }

    #[test]
    fn commit_and_fetch() {
        let ledger = Ledger::new();
        let (block, ids) = make_block(0, [0u8; 32], 2);
        let committed = ledger
            .commit_block(
                block,
                &ids,
                vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict],
                &[vec!["k0_0".into()], vec!["k0_1".into()]],
            )
            .unwrap();
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.tip_hash(), committed.header_hash);
        let fetched = ledger.block(0).unwrap();
        assert_eq!(
            fetched.block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER],
            vec![0u8, 11]
        );
    }

    /// A store whose `append` reports that it was entered, then waits to
    /// be released: a commit held in flight for as long as a test likes.
    #[derive(Debug)]
    struct GatedStore {
        blocks: MemoryBlockStore,
        entered: Arc<std::sync::Barrier>,
        release: Arc<std::sync::Barrier>,
    }

    impl BlockStore for GatedStore {
        fn len(&self) -> u64 {
            self.blocks.len()
        }
        fn get(&self, number: u64) -> Option<CommittedBlock> {
            self.blocks.get(number)
        }
        fn append(&mut self, block: &CommittedBlock) -> Result<(), StoreError> {
            self.entered.wait();
            self.release.wait();
            self.blocks.append(block)
        }
        fn flush(&mut self) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn height_does_not_wait_behind_an_in_flight_commit() {
        let entered = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let ledger = Ledger::with_store(Box::new(GatedStore {
            blocks: MemoryBlockStore::new(),
            entered: Arc::clone(&entered),
            release: Arc::clone(&release),
        }))
        .unwrap();
        let (b0, ids) = make_block(0, [0u8; 32], 1);
        let committer = {
            let ledger = ledger.clone();
            std::thread::spawn(move || {
                ledger.commit_block(b0, &ids, vec![TxValidationCode::Valid], &[vec![]])
            })
        };
        entered.wait(); // the commit now holds the ledger inside `append`
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let ledger = ledger.clone();
            std::thread::spawn(move || tx.send(ledger.height()))
        };
        let during = rx.recv_timeout(std::time::Duration::from_secs(3));
        release.wait();
        committer.join().unwrap().unwrap();
        reader.join().unwrap().unwrap();
        assert_eq!(
            during,
            Ok(0),
            "height() waited for the commit instead of reporting the height before it"
        );
        assert_eq!(ledger.height(), 1);
    }

    #[test]
    fn duplicate_and_out_of_order_rejected() {
        let ledger = Ledger::new();
        let (b0, ids) = make_block(0, [0u8; 32], 1);
        ledger
            .commit_block(b0.clone(), &ids, vec![TxValidationCode::Valid], &[vec![]])
            .unwrap();
        assert_eq!(
            ledger
                .commit_block(b0, &ids, vec![TxValidationCode::Valid], &[vec![]])
                .unwrap_err(),
            LedgerError::Duplicate(0)
        );
        let (b5, ids5) = make_block(5, ledger.tip_hash(), 1);
        assert_eq!(
            ledger
                .commit_block(b5, &ids5, vec![TxValidationCode::Valid], &[vec![]])
                .unwrap_err(),
            LedgerError::OutOfOrder {
                expected: 1,
                got: 5
            }
        );
    }

    #[test]
    fn chain_break_rejected() {
        let ledger = Ledger::new();
        let (b0, ids) = make_block(0, [0u8; 32], 1);
        ledger
            .commit_block(b0, &ids, vec![TxValidationCode::Valid], &[vec![]])
            .unwrap();
        let (b1_bad, ids1) = make_block(1, [9u8; 32], 1);
        assert_eq!(
            ledger
                .commit_block(b1_bad, &ids1, vec![TxValidationCode::Valid], &[vec![]])
                .unwrap_err(),
            LedgerError::BrokenChain
        );
    }

    #[test]
    fn filter_mismatch_rejected() {
        let ledger = Ledger::new();
        let (b0, ids) = make_block(0, [0u8; 32], 2);
        assert_eq!(
            ledger
                .commit_block(b0, &ids, vec![TxValidationCode::Valid], &[vec![], vec![]])
                .unwrap_err(),
            LedgerError::FilterMismatch
        );
    }

    #[test]
    fn tx_index_finds_transactions() {
        let ledger = Ledger::new();
        let (b0, ids) = make_block(0, [0u8; 32], 3);
        ledger
            .commit_block(
                b0,
                &ids,
                vec![TxValidationCode::Valid; 3],
                &[vec![], vec![], vec![]],
            )
            .unwrap();
        assert_eq!(ledger.find_tx(&ids[1]), Some((0, 1)));
        assert_eq!(ledger.find_tx("nope"), None);
        // A replay keeps the first occurrence, inside a block (the fresh
        // id twice) and across blocks (block 0's second transaction).
        let (fresh, fresh_ids) = make_block(1, ledger.tip_hash(), 1);
        let fresh_env = fresh.data.data[0].clone();
        let replayed_env = ledger.block(0).unwrap().block.data.data[1].clone();
        ledger
            .commit_block(
                block_of(
                    1,
                    ledger.tip_hash(),
                    vec![fresh_env.clone(), replayed_env, fresh_env],
                ),
                &[fresh_ids[0].clone(), ids[1].clone(), fresh_ids[0].clone()],
                vec![TxValidationCode::Valid; 3],
                &[vec![], vec![], vec![]],
            )
            .unwrap();
        assert_eq!(ledger.find_tx(&fresh_ids[0]), Some((1, 0)));
        assert_eq!(ledger.find_tx(&ids[1]), Some((0, 1)));
    }

    #[test]
    fn commit_hash_chains() {
        let ledger = Ledger::new();
        let (b0, ids0) = make_block(0, [0u8; 32], 1);
        let c0 = ledger
            .commit_block(b0, &ids0, vec![TxValidationCode::Valid], &[vec![]])
            .unwrap();
        let (b1, ids1) = make_block(1, ledger.tip_hash(), 1);
        let c1 = ledger
            .commit_block(b1, &ids1, vec![TxValidationCode::Valid], &[vec![]])
            .unwrap();
        assert_ne!(c0.commit_hash, c1.commit_hash);
        assert_eq!(ledger.tip_commit_hash(), c1.commit_hash);
        assert!(ledger.verify_chain().is_ok());
    }

    #[test]
    fn history_records_only_valid_txs() {
        let ledger = Ledger::new();
        let (b0, ids) = make_block(0, [0u8; 32], 2);
        ledger
            .commit_block(
                b0,
                &ids,
                vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict],
                &[vec!["a".into()], vec!["b".into()]],
            )
            .unwrap();
        assert_eq!(ledger.key_history("a"), vec![(0, 0)]);
        assert!(ledger.key_history("b").is_empty());
    }

    /// Builds a two-block chain and returns its memory store.
    fn committed_two_block_store() -> (MemoryBlockStore, Ledger) {
        let ledger = Ledger::new();
        let (b0, ids0) = make_block(0, [0u8; 32], 2);
        ledger
            .commit_block(
                b0,
                &ids0,
                vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict],
                &[vec!["k0_0".into()], vec!["k0_1".into()]],
            )
            .unwrap();
        let (b1, ids1) = make_block(1, ledger.tip_hash(), 1);
        ledger
            .commit_block(
                b1,
                &ids1,
                vec![TxValidationCode::Valid],
                &[vec!["k1_0".into()]],
            )
            .unwrap();
        let mut store = MemoryBlockStore::new();
        for n in 0..ledger.height() {
            store.append(&ledger.block(n).unwrap()).unwrap();
        }
        (store, ledger)
    }

    #[test]
    fn with_store_rebuilds_indexes_and_tip() {
        let (store, original) = committed_two_block_store();
        let reopened = Ledger::with_store(Box::new(store)).unwrap();
        assert_eq!(reopened.height(), 2);
        assert_eq!(reopened.tip_hash(), original.tip_hash());
        assert_eq!(reopened.tip_commit_hash(), original.tip_commit_hash());
        // tx index and history were rebuilt from the stored blocks.
        let decoded =
            fabric_protos::txflow::decode_block(&original.block(1).unwrap().block.marshal())
                .unwrap();
        assert_eq!(
            reopened.find_tx(&decoded.txs[0].tx_id),
            Some((1, 0)),
            "tx index rebuilt"
        );
        assert_eq!(reopened.key_history("k1_0"), vec![(1, 0)]);
        // Invalid tx of block 0 must NOT be in history.
        assert!(reopened.key_history("k0_1").is_empty());
        assert!(reopened.verify_chain().is_ok());
        // And the reopened chain keeps accepting blocks.
        let (b2, ids2) = make_block(2, reopened.tip_hash(), 1);
        reopened
            .commit_block(b2, &ids2, vec![TxValidationCode::Valid], &[vec![]])
            .unwrap();
        assert_eq!(reopened.height(), 3);
        // Replays, inside block 3 and of block 1's transaction, keep the
        // first occurrence when committed and when rebuilt on reopen.
        let (fresh, fresh_ids) = make_block(3, reopened.tip_hash(), 1);
        let fresh_env = fresh.data.data[0].clone();
        let replayed_env = reopened.block(1).unwrap().block.data.data[0].clone();
        let replayed = decoded.txs[0].tx_id.clone();
        reopened
            .commit_block(
                block_of(
                    3,
                    reopened.tip_hash(),
                    vec![fresh_env.clone(), fresh_env, replayed_env],
                ),
                &[fresh_ids[0].clone(), fresh_ids[0].clone(), replayed.clone()],
                vec![TxValidationCode::Valid; 3],
                &[vec![], vec![], vec![]],
            )
            .unwrap();
        let mut store = MemoryBlockStore::new();
        for n in 0..reopened.height() {
            store.append(&reopened.block(n).unwrap()).unwrap();
        }
        let rebuilt = Ledger::with_store(Box::new(store)).unwrap();
        for ledger in [&reopened, &rebuilt] {
            assert_eq!(ledger.find_tx(&fresh_ids[0]), Some((3, 0)));
            assert_eq!(ledger.find_tx(&replayed), Some((1, 0)));
        }
    }

    #[test]
    fn with_store_rejects_tampered_block_with_its_number() {
        let (mut store, _) = committed_two_block_store();
        // Flip one byte inside block 1's first envelope: the data hash
        // no longer matches, and recovery must name block 1.
        store.blocks[1].block.data.data[0][0] ^= 0x40;
        match Ledger::with_store(Box::new(store)) {
            Err(LedgerError::Corrupt { block }) => assert_eq!(block, 1),
            other => panic!("expected Corrupt{{block: 1}}, got {other:?}"),
        }
    }

    #[test]
    fn with_store_rejects_tampered_filter_with_its_number() {
        let (mut store, _) = committed_two_block_store();
        // Flip a validation flag: the commit-hash chain breaks at block 0.
        store.blocks[0].tx_filter[1] = TxValidationCode::Valid;
        store.blocks[0].block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER] =
            vec![0u8, 0u8];
        match Ledger::with_store(Box::new(store)) {
            Err(LedgerError::Corrupt { block }) => assert_eq!(block, 0),
            other => panic!("expected Corrupt{{block: 0}}, got {other:?}"),
        }
    }

    #[test]
    fn stamped_block_roundtrips_committed_block() {
        let (store, _) = committed_two_block_store();
        for n in 0..store.len() {
            let cb = store.get(n).unwrap();
            let rebuilt = CommittedBlock::from_stamped_block(cb.block.clone()).unwrap();
            assert_eq!(rebuilt.header_hash, cb.header_hash);
            assert_eq!(rebuilt.tx_filter, cb.tx_filter);
            assert_eq!(rebuilt.commit_hash, cb.commit_hash);
        }
    }

    #[test]
    fn validation_codes_roundtrip_through_bytes() {
        for code in [
            TxValidationCode::Valid,
            TxValidationCode::BadPayload,
            TxValidationCode::BadSignature,
            TxValidationCode::EndorsementPolicyFailure,
            TxValidationCode::MvccReadConflict,
        ] {
            assert_eq!(TxValidationCode::from_code(code.code()), Some(code));
        }
        assert_eq!(TxValidationCode::from_code(255), None);
    }
}
