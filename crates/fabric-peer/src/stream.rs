//! Multi-block streaming validator: the paper's pipelined block
//! processor in software.
//!
//! The Blockchain Machine's protocol processor hands block N+1 to the
//! signature engines while block N is still in MVCC/commit (Figure 2b),
//! so the accelerator sustains a block *stream* instead of one block at
//! a time. [`StreamValidator`] reproduces that stage overlap on top of
//! the functional [`ValidatorPipeline`]:
//!
//! * **verify lanes** — a small pool of OS threads runs the signature
//!   half of validation (`ValidatorPipeline::verify_stage`: the block's
//!   one decode, orderer check, parallel verify/vscc) for several blocks
//!   concurrently. Signature verification is state-independent, so this
//!   is safe at any depth.
//! * **commit sequencer** — a single thread drains verified blocks in
//!   strict block-number order and runs the order-sensitive half
//!   (`ValidatorPipeline::commit_stage`: MVCC, then the
//!   [`ValidatorPipeline::commit_flagged`] tail — state DB commit, ledger
//!   append). Because MVCC for block N+1 only ever runs *after* block
//!   N's writes are applied, the stream observes exactly the state a
//!   serial `validate_and_commit` replay would — the serial-equivalence
//!   harness in `tests/tests/stream_equivalence.rs` proves this
//!   bit-for-bit (validation flags, commit hashes, final state) on
//!   randomized multi-block streams.
//! * **reorder buffer** — blocks may be pushed in any arrival order
//!   (UDP reassembly in `bmac-protocol` completes blocks out of order);
//!   they are buffered by header number and dispatched consecutively
//!   starting from the ledger's next expected block.
//!
//! Backpressure: verify lanes never run more than
//! [`StreamConfig::max_in_flight`] blocks ahead of the sequencer, so the
//! *verified* queue (decoded blocks, the expensive representation) stays
//! bounded under a slow commit stage. The reorder buffer of raw pushed
//! blocks is deliberately NOT bounded — `push` never blocks, because a
//! single-threaded feeder delivering blocks out of order must be able to
//! push the missing block the window is waiting on. Callers ingesting
//! from an untrusted or unbounded source should throttle on their side.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use std::time::Instant;

use fabric_protos::messages::Block;

use crate::pipeline::{BlockValidationResult, ValidateError, ValidatorPipeline, VerifiedBlock};

/// Streaming configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Number of concurrent verify lanes (blocks in the signature stage
    /// at once). Each lane additionally fans its block's signatures over
    /// the pipeline's vscc worker pool.
    pub verify_lanes: usize,
    /// Maximum blocks dispatched to verification but not yet committed.
    /// Bounds the verified-block queue; must be ≥ `verify_lanes` to keep
    /// every lane busy.
    pub max_in_flight: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            verify_lanes: 2,
            max_in_flight: 4,
        }
    }
}

/// Errors from the streaming validator.
#[derive(Debug)]
pub enum StreamError {
    /// A block failed structural decode or ledger append (same cases as
    /// [`ValidateError`]); blocks before it committed, later ones were
    /// discarded.
    Validate(ValidateError),
    /// A block number at or below the already-dispatched horizon was
    /// pushed again.
    DuplicateBlock(u64),
    /// The stream was closed while a gap remained in the sequence: block
    /// `expected` never arrived but `buffered` (a later number) did.
    Gap {
        /// The missing block number.
        expected: u64,
        /// The smallest buffered number above the gap.
        buffered: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Validate(e) => write!(f, "stream validation failed: {e}"),
            StreamError::DuplicateBlock(n) => write!(f, "block {n} pushed twice"),
            StreamError::Gap { expected, buffered } => {
                write!(
                    f,
                    "stream closed with a gap: block {expected} missing, {buffered} buffered"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Aggregate statistics of one stream run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Blocks committed.
    pub blocks: usize,
    /// Transactions across all committed blocks.
    pub txs: usize,
    /// Wall-clock from first push to last commit (µs).
    pub makespan_us: u64,
    /// Total time spent inside the verify stage, summed across lanes.
    pub verify_busy_us: u64,
    /// Total time spent inside the commit stage (single sequencer).
    pub commit_busy_us: u64,
    /// Configured verify lanes.
    pub verify_lanes: usize,
    /// Verify-stage occupancy: busy time over `lanes × makespan`.
    pub verify_occupancy: f64,
    /// Commit-stage (sequencer) occupancy: busy time over makespan.
    pub commit_occupancy: f64,
    /// Sum of per-block stage totals (incl. ledger) *as measured inside
    /// this concurrent run*. On hosts with fewer cores than lanes,
    /// preemption inflates per-block stage times, so this is NOT the
    /// cost of an independent serial replay — time one separately (as
    /// the reference benchmark's `probe.serial_replay_ms` does) for a
    /// wall-clock comparison.
    pub serial_sum_us: u64,
    /// `serial_sum / makespan`: how much measured stage time the
    /// pipeline packed into each wall-clock second, i.e. the degree of
    /// stage *concurrency*. > 1 means stages ran overlapped; it does not
    /// by itself prove a wall-clock win on an oversubscribed host (see
    /// [`StreamStats::serial_sum_us`]).
    pub overlap_factor: f64,
    /// Most blocks simultaneously dispatched-but-uncommitted.
    pub max_in_flight_observed: usize,
    /// Blocks that arrived ahead of sequence and waited in the reorder
    /// buffer.
    pub reordered_blocks: usize,
}

/// Result of a completed stream: per-block results in block order plus
/// the aggregate stats.
#[derive(Debug)]
pub struct StreamReport {
    /// One result per committed block, ordered by block number.
    pub results: Vec<BlockValidationResult>,
    /// Aggregate throughput/occupancy statistics.
    pub stats: StreamStats,
}

impl StreamReport {
    /// Committed blocks per second over the stream makespan.
    pub fn blocks_per_sec(&self) -> f64 {
        rate(self.stats.blocks as u64, self.stats.makespan_us)
    }

    /// Committed transactions per second over the stream makespan.
    pub fn tps(&self) -> f64 {
        rate(self.stats.txs as u64, self.stats.makespan_us)
    }
}

fn rate(count: u64, makespan_us: u64) -> f64 {
    if makespan_us == 0 {
        return 0.0;
    }
    count as f64 * 1e6 / makespan_us as f64
}

#[derive(Debug, Default)]
struct StreamState {
    /// Reorder buffer: pushed blocks not yet handed to a verify lane.
    pending: BTreeMap<u64, Block>,
    /// Verified blocks awaiting the sequencer, keyed by number.
    verified: HashMap<u64, (Block, VerifiedBlock)>,
    /// Next block number a lane may claim.
    next_dispatch: u64,
    /// Next block number the sequencer will commit.
    next_commit: u64,
    /// No further pushes will arrive.
    closed: bool,
    /// Lowest-numbered failure; poisons the stream. The sequencer still
    /// commits every verified block *below* [`StreamState::error_at`]
    /// first, so the ledger stops exactly where a serial replay would.
    error: Option<StreamError>,
    /// Block number of `error` (`u64::MAX` while error-free).
    error_at: u64,
    /// Hard abort (session dropped): all threads exit immediately, even
    /// with blocks still in flight.
    aborted: bool,
    /// In-order committed results.
    results: Vec<BlockValidationResult>,
    /// Wall-clock of the first push (stream start).
    started: Option<Instant>,
    /// Wall-clock of the most recent commit (stream end).
    last_commit: Option<Instant>,
    /// Busy-time accounting (µs).
    verify_busy_us: u64,
    commit_busy_us: u64,
    max_in_flight: usize,
    reordered: usize,
}

struct Shared {
    pipeline: Arc<ValidatorPipeline>,
    state: Mutex<StreamState>,
    cv: Condvar,
    window: usize,
}

/// The stream-pipelined validator. See the module docs for the stage
/// layout and ordering guarantees.
pub struct StreamValidator {
    shared: Arc<Shared>,
    lanes: Vec<std::thread::JoinHandle<()>>,
    sequencer: Option<std::thread::JoinHandle<()>>,
    config: StreamConfig,
}

impl std::fmt::Debug for StreamValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamValidator")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl StreamValidator {
    /// Starts a streaming session over `pipeline`. The stream begins at
    /// the ledger's next expected block number, so it can extend an
    /// existing chain.
    ///
    /// # Panics
    ///
    /// Panics if `config.verify_lanes == 0` or
    /// `config.max_in_flight < config.verify_lanes`.
    pub fn new(pipeline: Arc<ValidatorPipeline>, config: StreamConfig) -> Self {
        assert!(config.verify_lanes > 0, "at least one verify lane");
        assert!(
            config.max_in_flight >= config.verify_lanes,
            "in-flight window smaller than the lane count would idle lanes"
        );
        let base = pipeline.ledger().next_block_number();
        let shared = Arc::new(Shared {
            pipeline,
            state: Mutex::named(
                "peer.stream.state",
                StreamState {
                    next_dispatch: base,
                    next_commit: base,
                    error_at: u64::MAX,
                    ..StreamState::default()
                },
            ),
            cv: Condvar::new(),
            window: config.max_in_flight,
        });
        let lanes = (0..config.verify_lanes)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stream-verify-{i}"))
                    .spawn(move || verify_lane(&shared))
                    .expect("spawn verify lane")
            })
            .collect();
        let sequencer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stream-commit".into())
                .spawn(move || commit_sequencer(&shared))
                .expect("spawn commit sequencer")
        };
        StreamValidator {
            shared,
            lanes,
            sequencer: Some(sequencer),
            config,
        }
    }

    /// Feeds one block into the stream. Blocks may arrive in any order;
    /// they are dispatched to verification in block-number order. Never
    /// blocks the caller (backpressure is applied between the verify and
    /// commit stages, not at ingestion).
    ///
    /// # Errors
    ///
    /// [`StreamError::DuplicateBlock`] when this number was already
    /// pushed or dispatched. Validation failures surface from
    /// [`StreamValidator::finish`], not here.
    pub fn push(&self, block: Block) -> Result<(), StreamError> {
        let number = block.header.number;
        let mut st = self.shared.state.lock();
        st.started.get_or_insert_with(Instant::now);
        if number < st.next_dispatch || st.pending.contains_key(&number) {
            return Err(StreamError::DuplicateBlock(number));
        }
        if number > st.next_dispatch {
            st.reordered += 1;
        }
        st.pending.insert(number, block);
        self.shared.cv.notify_all();
        Ok(())
    }

    /// Closes the stream, waits for every pushed block to commit, and
    /// returns the per-block results and stream statistics.
    ///
    /// On failure, every verified block *numbered below* the failing one
    /// is still committed first (exactly the prefix a serial replay
    /// would commit) before the error is returned.
    ///
    /// # Errors
    ///
    /// Any [`StreamError`] raised during the run: decode/ledger failures,
    /// or a sequence gap at close.
    pub fn finish(mut self) -> Result<StreamReport, StreamError> {
        {
            let mut st = self.shared.state.lock();
            st.closed = true;
            self.shared.cv.notify_all();
        }
        for lane in self.lanes.drain(..) {
            lane.join().expect("verify lane panicked");
        }
        self.sequencer
            .take()
            .expect("finish called once")
            .join()
            .expect("commit sequencer panicked");
        // Durable mode: every committed block (the whole stream, or the
        // serial prefix below a failure) is flushed through the state
        // journal and block store before the session reports back — the
        // stream's group-commit boundary.
        let flushed = self.shared.pipeline.flush_storage();
        let mut st = self.shared.state.lock();
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        flushed.map_err(StreamError::Validate)?;
        let results = std::mem::take(&mut st.results);
        let serial_sum_us: u64 = results
            .iter()
            .map(|r| r.timings.total_excl_ledger_us() + r.timings.ledger_us)
            .sum();
        // First push to last commit: caller think-time between the last
        // commit and this `finish` call must not count as stream time.
        let makespan_us = match (st.started, st.last_commit) {
            (Some(start), Some(end)) => end.duration_since(start).as_micros() as u64,
            _ => 0,
        };
        let lanes = self.config.verify_lanes;
        let stats = StreamStats {
            blocks: results.len(),
            txs: results.iter().map(|r| r.codes.len()).sum(),
            makespan_us,
            verify_busy_us: st.verify_busy_us,
            commit_busy_us: st.commit_busy_us,
            verify_lanes: lanes,
            verify_occupancy: occupancy(st.verify_busy_us, makespan_us, lanes),
            commit_occupancy: occupancy(st.commit_busy_us, makespan_us, 1),
            serial_sum_us,
            overlap_factor: if makespan_us == 0 {
                0.0
            } else {
                serial_sum_us as f64 / makespan_us as f64
            },
            max_in_flight_observed: st.max_in_flight,
            reordered_blocks: st.reordered,
        };
        Ok(StreamReport { results, stats })
    }

    /// Aborts the session mid-flight, simulating a crash: pending blocks
    /// are discarded, in-progress stage work is allowed to finish (the
    /// threads are joined), and — unlike [`StreamValidator::finish`] —
    /// storage is deliberately **not** flushed. In durable mode the
    /// on-disk tail is whatever the group-commit boundaries already made
    /// durable: possibly *torn* (the state journal and the block store
    /// flushed at independent boundaries), but always recoverable —
    /// `fabric_store::FabricStore::open` reconciles the two files to the
    /// longest serial prefix both cover. Returns the number of blocks
    /// the sequencer committed (to the storage buffers) before the
    /// abort.
    ///
    /// Dropping an unfinished session has the same storage semantics;
    /// `abort` just makes the intent explicit and reports the committed
    /// count.
    pub fn abort(mut self) -> usize {
        self.shutdown();
        let st = self.shared.state.lock();
        st.results.len()
    }

    /// Shared teardown of `abort` and `Drop`: wake every thread with the
    /// abort flag and join them. Idempotent.
    fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.closed = true;
            st.aborted = true;
            st.pending.clear();
            self.shared.cv.notify_all();
        }
        for lane in self.lanes.drain(..) {
            let _ = lane.join();
        }
        if let Some(seq) = self.sequencer.take() {
            let _ = seq.join();
        }
    }

    /// Convenience: stream `blocks` (in the given arrival order) through
    /// a fresh session and wait for completion.
    ///
    /// # Errors
    ///
    /// Any [`StreamError`] from pushing or from the run itself.
    pub fn run(
        pipeline: Arc<ValidatorPipeline>,
        config: StreamConfig,
        blocks: impl IntoIterator<Item = Block>,
    ) -> Result<StreamReport, StreamError> {
        let stream = StreamValidator::new(pipeline, config);
        for block in blocks {
            stream.push(block)?;
        }
        stream.finish()
    }
}

impl Drop for StreamValidator {
    fn drop(&mut self) {
        // A dropped (un-finished) session must not leave threads parked —
        // including the unwind path where `finish` panicked on a dead
        // lane, which would otherwise leave the sequencer waiting for a
        // claimed-but-never-verified block forever. Storage is NOT
        // flushed here (see `abort`): a dropped session is a crash, and
        // the store tail is left torn-but-recoverable by design.
        self.shutdown();
    }
}

/// One verify lane: claim the lowest undispatched block (respecting the
/// in-flight window), run the signature stage outside the lock, publish
/// the verified block for the sequencer.
fn verify_lane(shared: &Shared) {
    loop {
        let (number, block) = {
            let mut st = shared.state.lock();
            loop {
                if st.aborted || st.error.is_some() {
                    // On a validation error every block below it is
                    // already claimed (dispatch is in numeric order), so
                    // idle lanes have nothing left to contribute.
                    return;
                }
                let within_window = (st.next_dispatch - st.next_commit) < shared.window as u64;
                if within_window {
                    let next = st.next_dispatch;
                    if let Some(block) = st.pending.remove(&next) {
                        st.next_dispatch += 1;
                        let in_flight = (st.next_dispatch - st.next_commit) as usize;
                        st.max_in_flight = st.max_in_flight.max(in_flight);
                        break (next, block);
                    }
                    if st.closed {
                        match st.pending.keys().next().copied() {
                            // Closed with a hole in the sequence: blocks
                            // above the gap can never commit. Fail loudly.
                            Some(buffered) => {
                                set_error(
                                    &mut st,
                                    next,
                                    StreamError::Gap {
                                        expected: next,
                                        buffered,
                                    },
                                );
                                shared.cv.notify_all();
                                return;
                            }
                            None => return,
                        }
                    }
                }
                st = shared.cv.wait(st);
            }
        };

        let t0 = Instant::now();
        let outcome = shared.pipeline.verify_stage(&block);
        let busy = t0.elapsed().as_micros() as u64;

        let mut st = shared.state.lock();
        st.verify_busy_us += busy;
        match outcome {
            Ok(verified) => {
                st.verified.insert(number, (block, verified));
            }
            Err(e) => {
                set_error(&mut st, number, StreamError::Validate(e));
            }
        }
        shared.cv.notify_all();
    }
}

/// Records a failure, keeping the LOWEST-numbered one: that is the block
/// where a serial replay would stop, and the sequencer commits exactly
/// the verified prefix below it.
fn set_error(st: &mut StreamState, number: u64, error: StreamError) {
    if number < st.error_at {
        st.error = Some(error);
        st.error_at = number;
    }
}

/// The commit sequencer: drain verified blocks in strict number order
/// and run MVCC + commit, so block N+1 always observes block N's writes.
///
/// On a downstream failure at block E the sequencer keeps draining
/// until `next_commit` reaches E — every block below E was dispatched
/// before E (dispatch is in numeric order), so its verified result is
/// guaranteed to arrive — and only then exits. That makes the committed
/// prefix identical to a serial replay's, deterministically, no matter
/// which lane hit the error first.
fn commit_sequencer(shared: &Shared) {
    loop {
        let (number, block, verified) = {
            let mut st = shared.state.lock();
            loop {
                if st.aborted || st.next_commit >= st.error_at {
                    return;
                }
                let next = st.next_commit;
                if let Some((block, verified)) = st.verified.remove(&next) {
                    break (next, block, verified);
                }
                // Done when the input is closed and every dispatched
                // block has been committed.
                if st.error.is_none()
                    && st.closed
                    && st.pending.is_empty()
                    && st.verified.is_empty()
                    && st.next_commit == st.next_dispatch
                {
                    return;
                }
                st = shared.cv.wait(st);
            }
        };

        let t0 = Instant::now();
        let outcome = shared.pipeline.commit_stage(block, verified);
        let busy = t0.elapsed().as_micros() as u64;

        let mut st = shared.state.lock();
        st.commit_busy_us += busy;
        match outcome {
            Ok(result) => {
                debug_assert_eq!(result.block_num, number);
                st.results.push(result);
                st.next_commit = number + 1;
                st.last_commit = Some(Instant::now());
            }
            Err(e) => {
                set_error(&mut st, number, StreamError::Validate(e));
                shared.cv.notify_all();
                return;
            }
        }
        shared.cv.notify_all();
    }
}

fn occupancy(busy_us: u64, makespan_us: u64, servers: usize) -> f64 {
    if makespan_us == 0 || servers == 0 {
        return 0.0;
    }
    busy_us as f64 / (makespan_us as f64 * servers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use fabric_crypto::identity::{Msp, Role};
    use fabric_ledger::TxValidationCode;
    use fabric_node::chaincode::KvChaincode;
    use fabric_node::network::{FabricNetwork, FabricNetworkBuilder};
    use fabric_policy::parse;

    fn make_network(block_size: usize) -> FabricNetwork {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(block_size)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        net
    }

    fn make_validator(workers: usize) -> ValidatorPipeline {
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), parse("2-outof-2 orgs").unwrap());
        ValidatorPipeline::new(msp, policies, workers)
    }

    /// `n` single-tx blocks all touching the SAME key. With
    /// `commit_back`, each block's writes are committed to the endorsers
    /// before the next endorsement, so every transaction reads the
    /// freshest version (valid chain of cross-block dependencies);
    /// without it, every block after the first is endorsed against stale
    /// state (cross-block MVCC conflicts).
    fn hot_key_blocks(n: usize, commit_back: bool) -> Vec<Block> {
        let mut net = make_network(1);
        let mut blocks = Vec::new();
        while blocks.len() < n {
            let cut = net
                .submit_invocation(
                    0,
                    "kv",
                    "put",
                    &["hot".into(), format!("v{}", blocks.len())],
                )
                .unwrap();
            for block in cut {
                if commit_back {
                    let decoded = fabric_protos::txflow::decode_block(&block.marshal()).unwrap();
                    let writes: Vec<fabric_node::endorser::TxWrites> = decoded
                        .txs
                        .iter()
                        .enumerate()
                        .map(|(i, tx)| (i as u64, tx.writes.clone()))
                        .collect();
                    net.commit_to_endorsers(decoded.number, &writes);
                }
                blocks.push(block);
            }
        }
        blocks
    }

    fn assert_equivalent(serial: &ValidatorPipeline, report: &StreamReport) {
        let stream_pipeline_results = &report.results;
        for r in stream_pipeline_results {
            let ledger = serial.ledger();
            let serial_block = ledger.block(r.block_num).expect("serial committed it");
            assert_eq!(
                r.commit_hash, serial_block.commit_hash,
                "block {}",
                r.block_num
            );
            assert_eq!(r.codes, serial_block.tx_filter, "block {}", r.block_num);
        }
    }

    #[test]
    fn stream_matches_serial_on_dependent_blocks() {
        // Every block writes the same key the next block reads: if the
        // stream ever ran MVCC for block N+1 before committing block N,
        // it would flag a phantom conflict.
        let blocks = hot_key_blocks(4, true);
        let serial = make_validator(2);
        for b in &blocks {
            let r = serial.validate_and_commit(b).unwrap();
            assert_eq!(r.valid_count(), 1, "serial block {} valid", r.block_num);
        }
        let pipeline = Arc::new(make_validator(2));
        let report = StreamValidator::run(
            Arc::clone(&pipeline),
            StreamConfig::default(),
            blocks.clone(),
        )
        .unwrap();
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r.valid_count(), 1, "stream block {} valid", r.block_num);
        }
        assert_equivalent(&serial, &report);
        assert_eq!(serial.state_db().snapshot(), pipeline.state_db().snapshot());
        assert_eq!(
            serial.ledger().tip_commit_hash(),
            pipeline.ledger().tip_commit_hash()
        );
    }

    #[test]
    fn stream_flags_cross_block_conflicts_like_serial() {
        // Stale endorsements: blocks 1.. read version None but block 0
        // committed the key — every later block must MVCC-conflict, in
        // both validators.
        let blocks = hot_key_blocks(3, false);
        let serial = make_validator(2);
        for b in &blocks {
            serial.validate_and_commit(b).unwrap();
        }
        let pipeline = Arc::new(make_validator(2));
        let report =
            StreamValidator::run(Arc::clone(&pipeline), StreamConfig::default(), blocks).unwrap();
        assert_eq!(report.results[0].codes, vec![TxValidationCode::Valid]);
        for r in &report.results[1..] {
            assert_eq!(r.codes, vec![TxValidationCode::MvccReadConflict]);
        }
        assert_equivalent(&serial, &report);
        assert_eq!(serial.state_db().snapshot(), pipeline.state_db().snapshot());
    }

    #[test]
    fn out_of_order_push_is_reordered() {
        let blocks = hot_key_blocks(4, true);
        let pipeline = Arc::new(make_validator(2));
        let stream = StreamValidator::new(Arc::clone(&pipeline), StreamConfig::default());
        for b in blocks.into_iter().rev() {
            stream.push(b).unwrap();
        }
        let report = stream.finish().unwrap();
        assert_eq!(report.results.len(), 4);
        let nums: Vec<u64> = report.results.iter().map(|r| r.block_num).collect();
        assert_eq!(nums, vec![0, 1, 2, 3], "commits in block order");
        assert!(report.stats.reordered_blocks >= 3);
        assert!(report.results.iter().all(|r| r.valid_count() == 1));
    }

    #[test]
    fn duplicate_push_is_rejected() {
        let blocks = hot_key_blocks(2, true);
        let pipeline = Arc::new(make_validator(1));
        let stream = StreamValidator::new(pipeline, StreamConfig::default());
        stream.push(blocks[0].clone()).unwrap();
        assert!(matches!(
            stream.push(blocks[0].clone()),
            Err(StreamError::DuplicateBlock(0))
        ));
        stream.push(blocks[1].clone()).unwrap();
        assert_eq!(stream.finish().unwrap().results.len(), 2);
    }

    #[test]
    fn gap_at_close_fails_loudly() {
        let blocks = hot_key_blocks(3, true);
        let pipeline = Arc::new(make_validator(1));
        let stream = StreamValidator::new(pipeline, StreamConfig::default());
        stream.push(blocks[0].clone()).unwrap();
        stream.push(blocks[2].clone()).unwrap(); // block 1 never arrives
        match stream.finish() {
            Err(StreamError::Gap { expected, buffered }) => {
                assert_eq!(expected, 1);
                assert_eq!(buffered, 2);
            }
            other => panic!("expected Gap error, got {other:?}"),
        }
    }

    #[test]
    fn stats_account_for_stages_and_in_flight() {
        let blocks = hot_key_blocks(4, true);
        let pipeline = Arc::new(make_validator(1));
        let report = StreamValidator::run(
            pipeline,
            StreamConfig {
                verify_lanes: 2,
                max_in_flight: 4,
            },
            blocks,
        )
        .unwrap();
        let s = &report.stats;
        assert_eq!(s.blocks, 4);
        assert_eq!(s.txs, 4);
        assert!(s.makespan_us > 0);
        assert!(s.verify_busy_us > 0, "verification does real ECDSA");
        assert!(s.commit_busy_us > 0);
        assert!(s.max_in_flight_observed >= 1);
        assert!(s.max_in_flight_observed <= 4);
        assert!(report.blocks_per_sec() > 0.0);
        assert!(report.tps() > 0.0);
        // serial_sum is the sum of the per-block stage timings the
        // stream actually measured.
        let expect: u64 = report
            .results
            .iter()
            .map(|r| r.timings.total_excl_ledger_us() + r.timings.ledger_us)
            .sum();
        assert_eq!(s.serial_sum_us, expect);
    }

    /// `blocks[1]` is one the verify stage refuses with an error
    /// `expected` recognises. A serial replay commits block 0, then
    /// fails on block 1; the stream must land in the identical state
    /// even when a verify lane discovers the bad block while block 0 is
    /// still uncommitted.
    fn assert_refused_block_commits_the_serial_prefix(
        blocks: &[Block],
        expected: fn(&ValidateError) -> bool,
    ) {
        let serial = make_validator(2);
        serial.validate_and_commit(&blocks[0]).unwrap();
        let err = serial.validate_and_commit(&blocks[1]).unwrap_err();
        assert!(expected(&err), "serial: {err:?}");

        let pipeline = Arc::new(make_validator(2));
        let stream = StreamValidator::new(
            Arc::clone(&pipeline),
            StreamConfig {
                verify_lanes: 3,
                max_in_flight: 3,
            },
        );
        for b in blocks {
            stream.push(b.clone()).unwrap();
        }
        match stream.finish() {
            Err(StreamError::Validate(e)) if expected(&e) => {}
            other => panic!("expected the verify stage to refuse block 1, got {other:?}"),
        }
        // The prefix below the failure committed, deterministically.
        assert_eq!(pipeline.ledger().height(), 1);
        assert_eq!(serial.ledger().height(), 1);
        assert_eq!(
            serial.ledger().tip_commit_hash(),
            pipeline.ledger().tip_commit_hash()
        );
        assert_eq!(serial.state_db().snapshot(), pipeline.state_db().snapshot());
    }

    #[test]
    fn error_mid_stream_still_commits_the_serial_prefix() {
        // Block 1 is made structurally undecodable.
        let mut blocks = hot_key_blocks(3, true);
        blocks[1].data.data[0] = vec![0xFF, 0xEE, 0xDD];
        assert_refused_block_commits_the_serial_prefix(&blocks, |e| {
            matches!(e, ValidateError::Decode(_))
        });
    }

    #[test]
    fn swapped_envelope_mid_stream_still_commits_the_serial_prefix() {
        // Block 1 carries block 2's (validly signed) envelope under its
        // own header: decodable, every signature good, data hash wrong.
        let mut blocks = hot_key_blocks(3, true);
        blocks[1].data.data[0] = blocks[2].data.data[0].clone();
        assert_refused_block_commits_the_serial_prefix(&blocks, |e| {
            matches!(e, ValidateError::DataHash { block: 1 })
        });
    }

    #[test]
    fn makespan_excludes_caller_think_time() {
        let blocks = hot_key_blocks(2, true);
        let pipeline = Arc::new(make_validator(1));
        let stream = StreamValidator::new(pipeline, StreamConfig::default());
        for b in blocks {
            stream.push(b).unwrap();
        }
        // Give the pipeline ample time to drain, then idle well past it:
        // makespan is first-push→last-commit, not first-push→finish.
        std::thread::sleep(std::time::Duration::from_millis(400));
        let report = stream.finish().unwrap();
        assert_eq!(report.results.len(), 2);
        assert!(
            report.stats.makespan_us < 300_000,
            "caller idle time leaked into makespan: {} µs",
            report.stats.makespan_us
        );
    }

    #[test]
    fn dropped_unfinished_stream_does_not_hang() {
        let blocks = hot_key_blocks(2, true);
        let pipeline = Arc::new(make_validator(1));
        let stream = StreamValidator::new(pipeline, StreamConfig::default());
        stream.push(blocks[0].clone()).unwrap();
        drop(stream); // must join its threads, not deadlock
    }
}
