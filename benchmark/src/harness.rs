//! What the three stream workloads share: the fixed configuration of
//! the system under test, the in-process link, the commit watcher, and
//! the oracle gate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bmac_protocol::{BmacReceiver, BmacSender, SenderStats};
use fabric_ledger::Ledger;
use fabric_peer::{BlockValidationResult, StreamReport, ValidatorPipeline};
use fabric_protos::messages::Block;
use fabric_store::{FabricStore, StoreConfig, BLOCKS_DIR, JOURNAL_FILE};

use crate::gen::Stream;
use crate::trace::SpanLog;

/// vscc workers of every validator. A constant, like every other knob
/// of the system under test, so that numbers compare across hosts.
pub const VSCC_WORKERS: usize = 2;
/// Blocks a closed-loop feeder keeps outstanding.
pub const WINDOW: u64 = 4;
/// Watcher poll period — the resolution of every commit timestamp.
pub const POLL: Duration = Duration::from_micros(250);
/// `fabric-peer`'s default cache capacity (its constant is private).
pub const COLD_CACHE_CAPACITY: usize = 8192;

/// The orderer's half of the in-process link: `BmacSender::send_block`
/// plus `encode`. No delay is injected, so latency through the link is
/// processor time only.
#[derive(Default)]
pub struct LinkSender {
    sender: BmacSender,
    pub blocks: u64,
    pub send_ns: u64,
}

impl LinkSender {
    /// The encoded packets of `block`, in order. `parent` names the
    /// span this call happens under (`""` in set-up).
    pub fn packets(
        &mut self,
        block: &Block,
        parent: &'static str,
        log: &mut SpanLog,
    ) -> Vec<Vec<u8>> {
        let t0 = Instant::now();
        let wire = self
            .sender
            .send_block(block)
            .expect("generated block splits into packets")
            .iter()
            .map(|p| p.encode().expect("packet encodes"))
            .collect();
        let t1 = Instant::now();
        log.record("bmac.send_block", parent, block.header.number, t0, t1);
        self.blocks += 1;
        self.send_ns += (t1 - t0).as_nanos() as u64;
        wire
    }

    pub fn stats(&self) -> SenderStats {
        self.sender.stats()
    }
}

/// The peer's half of the link: `BmacReceiver::ingest`.
#[derive(Default)]
pub struct LinkReceiver {
    receiver: BmacReceiver,
    pub wire_bytes: u64,
    pub recv_ns: u64,
}

impl LinkReceiver {
    /// Ingests the packets of block `number` and returns what was
    /// reassembled (the block itself, once its last packet is in).
    pub fn ingest(&mut self, number: u64, packets: &[Vec<u8>], log: &mut SpanLog) -> Vec<Block> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        for packet in packets {
            self.wire_bytes += packet.len() as u64;
            let received = self.receiver.ingest(packet).expect("packet reassembles");
            out.extend(received.into_iter().map(|r| r.block));
        }
        let t1 = Instant::now();
        log.record("bmac.ingest", "harness.block", number, t0, t1);
        self.recv_ns += (t1 - t0).as_nanos() as u64;
        out
    }
}

/// What the watcher saw.
pub struct WatchLog {
    /// `commits[n]` is when block `n` was first seen committed.
    pub commits: Vec<Instant>,
    pub polls: u64,
    /// Time spent inside `Ledger::height()`.
    pub poll_ns: u64,
}

/// The watcher thread: polls `Ledger::height()` every [`POLL`],
/// sleeping in between, stamps the time each block is first seen
/// committed, and wakes a feeder waiting on the window.
pub struct Watcher {
    seen: Arc<(Mutex<u64>, Condvar)>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<WatchLog>,
}

impl Watcher {
    pub fn start(ledger: Ledger) -> Watcher {
        let seen = Arc::new((Mutex::new(0u64), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (seen, stop) = (Arc::clone(&seen), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-watcher".into())
                .spawn(move || watch(&ledger, &seen, &stop))
                .expect("spawn watcher")
        };
        Watcher { seen, stop, handle }
    }

    /// Blocks until the watcher has seen `height` blocks committed.
    pub fn wait_for(&self, height: u64) {
        let (lock, cv) = &*self.seen;
        let mut seen = lock.lock().expect("watcher never panics holding the lock");
        while *seen < height {
            seen = cv
                .wait(seen)
                .expect("watcher never panics holding the lock");
        }
    }

    /// Stops after one last poll.
    pub fn stop(self) -> WatchLog {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("watcher thread panicked")
    }
}

fn watch(ledger: &Ledger, seen: &(Mutex<u64>, Condvar), stop: &AtomicBool) -> WatchLog {
    let mut log = WatchLog {
        commits: Vec::new(),
        polls: 0,
        poll_ns: 0,
    };
    loop {
        // Read the flag before polling so the poll after a stop request
        // still picks up the last commit.
        let stopping = stop.load(Ordering::SeqCst);
        let t0 = Instant::now();
        let height = ledger.height();
        let now = Instant::now();
        log.polls += 1;
        log.poll_ns += (now - t0).as_nanos() as u64;
        if height > log.commits.len() as u64 {
            log.commits.resize(height as usize, now);
            *seen.0.lock().expect("feeder never panics holding the lock") = height;
            seen.1.notify_all();
        }
        if stopping {
            return log;
        }
        std::thread::sleep(POLL);
    }
}

/// Bytes a finished peer left on disk.
pub struct DiskBytes {
    pub journal: u64,
    pub segments: u64,
    pub total: u64,
}

impl DiskBytes {
    pub fn measure(root: &Path) -> DiskBytes {
        DiskBytes {
            journal: dir_bytes(&root.join(JOURNAL_FILE)),
            segments: dir_bytes(&root.join(BLOCKS_DIR)),
            total: dir_bytes(root),
        }
    }
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .expect("store directory lists")
        .map(|e| dir_bytes(&e.expect("store directory entry").path()))
        .sum()
}

/// The oracle gate over one finished pass. Returns the number of
/// transactions whose code differs from the oracle's (whole-stream
/// divergences count every transaction); prints the first difference.
pub fn diverging_txs(stream: &Stream, pipeline: &ValidatorPipeline, report: &StreamReport) -> u64 {
    let differing = first_code_difference(stream, &report.results);
    let state_hash = pipeline.state_db().state_hash();
    let tip = pipeline.ledger().tip_commit_hash();
    let mut diverged = differing.as_ref().map_or(0, |d| d.count);
    if let Some(d) = &differing {
        eprintln!(
            "ORACLE DIVERGENCE: block {} tx {}: expected {:?}, got {:?} ({} txs differ)",
            d.block, d.tx, d.expected, d.got, d.count
        );
    }
    if report.results.len() != stream.blocks.len() {
        eprintln!(
            "ORACLE DIVERGENCE: committed {} blocks, oracle {}",
            report.results.len(),
            stream.blocks.len()
        );
        diverged = diverged.max(stream.txs() as u64);
    }
    if state_hash != stream.state_hash || tip != stream.tip_commit_hash {
        eprintln!(
            "ORACLE DIVERGENCE: state_hash {state_hash:#x} (oracle {:#x}), tip_commit_hash {} (oracle {})",
            stream.state_hash,
            hex(&tip),
            hex(&stream.tip_commit_hash)
        );
        diverged = diverged.max(stream.txs() as u64);
    }
    if diverged > 0 {
        eprintln!("  {:?}", report.stats);
    }
    diverged
}

struct CodeDifference {
    block: usize,
    tx: usize,
    expected: String,
    got: String,
    count: u64,
}

fn first_code_difference(
    stream: &Stream,
    results: &[BlockValidationResult],
) -> Option<CodeDifference> {
    let mut first: Option<CodeDifference> = None;
    for (block, (expected, result)) in stream.codes.iter().zip(results).enumerate() {
        for tx in 0..expected.len().max(result.codes.len()) {
            let (e, g) = (expected.get(tx), result.codes.get(tx));
            if e != g {
                match &mut first {
                    Some(d) => d.count += 1,
                    None => {
                        first = Some(CodeDifference {
                            block,
                            tx,
                            expected: format!("{e:?}"),
                            got: format!("{g:?}"),
                            count: 1,
                        })
                    }
                }
            }
        }
    }
    first
}

/// Re-opens the store a finished peer left under `dir` and times it —
/// clean-shutdown recovery, since the store never `fsync`s and the
/// process did not crash. Returns `(seconds, matches_oracle)`.
pub fn timed_recovery(stream: &Stream, dir: &Path, log: &mut SpanLog) -> (f64, bool) {
    let t0 = Instant::now();
    let store = FabricStore::open(dir, StoreConfig::default()).expect("flushed store re-opens");
    let t1 = Instant::now();
    log.record("store.open", "", stream.blocks.len() as u64, t0, t1);
    let height = store.ledger().height();
    let state_hash = store.state_db().state_hash();
    let tip = store.ledger().tip_commit_hash();
    let ok = height == stream.blocks.len() as u64
        && state_hash == stream.state_hash
        && tip == stream.tip_commit_hash;
    if !ok {
        eprintln!(
            "ORACLE DIVERGENCE after recovery: height {height} (oracle {}), state_hash {state_hash:#x} \
             (oracle {:#x}), tip {} (oracle {}); {:?}",
            stream.blocks.len(),
            stream.state_hash,
            hex(&tip),
            hex(&stream.tip_commit_hash),
            store.recovery()
        );
    }
    ((t1 - t0).as_secs_f64(), ok)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Scratch space for durable stores: inside the build directory, so
/// inside the checkout and already ignored. Removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(target_dir: &Path) -> WorkDir {
        let dir = target_dir.join("work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }

    /// An empty directory for pass `n`.
    pub fn pass(&self, n: usize) -> PathBuf {
        let dir = self.0.join(format!("pass-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
