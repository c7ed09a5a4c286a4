//! The durable, segmented append-only block store.
//!
//! Layout (under `<root>/blocks/`):
//!
//! ```text
//! seg-00000.log   framed records, one marshaled block each
//! seg-00000.idx   sidecar index, written when the segment seals
//! seg-00001.log   ... the highest-numbered segment is the active one
//! ```
//!
//! Appends land in an in-process buffer and reach the file in one
//! `write` syscall per *group*: [`group_commit`](crate::StoreConfig)
//! blocks, or fewer once the buffer holds 256 KiB (`GROUP_MAX_BYTES`) —
//! a group is bounded in bytes as well as in blocks, so large blocks
//! are written while they are still in cache instead of piling up into
//! one multi-megabyte stall on the committer. Fsync-free group commit:
//! the store never calls `fsync`, so the crash-recovery protocol (tail
//! truncation + the min-rule in [`crate::FabricStore::open`]) must — and
//! does — tolerate an arbitrary byte prefix surviving a crash.
//!
//! When the active segment grows past `segment_max_bytes` it is
//! *sealed*: flushed, its per-segment index sidecar written, and a new
//! active segment opened. At open, sealed segments with a valid sidecar
//! are indexed without re-reading their records (per-record CRCs are
//! still verified lazily on every [`DurableBlockStore::get`]); the
//! active segment is always scanned, and a torn tail — the signature of
//! a crash — is truncated away.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fabric_ledger::{BlockStore, CommittedBlock, StoreError};
use fabric_protos::messages::{metadata_index, Block};
use parking_lot::Mutex;

use crate::frame::{self, Tail, HEADER_LEN};
use crate::StoreOpenError;

/// Byte ceiling of one group-commit `write`: an append that leaves at
/// least this much buffered hands the buffer to the OS whatever the
/// block count says. Small enough that the bytes are still in the
/// CPU's cache when the kernel copies them, large enough that small
/// blocks still share a syscall. Not a tuning knob: the count in
/// [`crate::StoreConfig::group_commit`] is the knob, this keeps it from
/// meaning "3 MB at once" when blocks are large.
const GROUP_MAX_BYTES: usize = 256 * 1024;

/// One indexed record of a segment.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Byte offset of the record (header included) within its segment.
    offset: u64,
    /// Payload length.
    len: u32,
    /// Number of `Valid` flags in the block's transactions filter — the
    /// journal-coverage unit of the recovery min-rule.
    valid_count: u32,
}

/// One segment file and its in-memory index.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    first_block: u64,
    entries: Vec<Entry>,
}

/// The active segment's write half: the file handle, the group-commit
/// buffer, and how many bytes have actually reached the file.
#[derive(Debug)]
struct Writer {
    file: File,
    /// Bytes already written to the file (records below this offset are
    /// readable without a flush).
    file_len: u64,
    /// Encoded records awaiting the next group boundary.
    buffered: Vec<u8>,
    /// Appends since the last flush.
    pending: usize,
}

impl Writer {
    fn flush(&mut self) -> Result<(), StoreError> {
        if !self.buffered.is_empty() {
            #[cfg(test)]
            WRITES.with(|n| n.set(n.get() + 1));
            self.file
                .write_all(&self.buffered)
                .map_err(|e| StoreError::new(format!("segment write: {e}")))?;
            self.file_len += self.buffered.len() as u64;
            self.buffered.clear();
        }
        self.pending = 0;
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    /// `write` calls this thread's segment writers have issued.
    static WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The durable block store. Implements [`fabric_ledger::BlockStore`],
/// so it plugs into [`fabric_ledger::Ledger::with_store`].
#[derive(Debug)]
pub struct DurableBlockStore {
    dir: PathBuf,
    group_commit: usize,
    segment_max_bytes: u64,
    segments: Vec<Segment>,
    total_blocks: u64,
    writer: Mutex<Writer>,
}

fn seg_log_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:05}.log"))
}

fn seg_idx_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:05}.idx"))
}

fn io_err(context: &str, e: std::io::Error) -> StoreOpenError {
    StoreOpenError::Io(format!("{context}: {e}"))
}

/// Counts `Valid` flags in a marshaled block's transactions filter, and
/// sanity-checks the structure enough to pin corruption to a number.
/// The byte → code mapping is [`fabric_ledger::TxValidationCode`]'s —
/// the same source `append` counts from — so the sidecar and rescan
/// paths can never disagree on what "valid" means.
fn parse_valid_count(payload: &[u8]) -> Option<u32> {
    let block = Block::unmarshal(payload).ok()?;
    let filter = &block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER];
    if filter.len() != block.data.data.len() {
        return None;
    }
    Some(
        filter
            .iter()
            .filter(|&&b| {
                fabric_ledger::TxValidationCode::from_code(b).is_some_and(|c| c.is_valid())
            })
            // lint:allow(truncating-cast) tx count per block is far below u32::MAX
            .count() as u32,
    )
}

impl DurableBlockStore {
    /// Opens (or creates) the store under `dir`, truncating a torn tail
    /// of the active segment. Returns the store and the per-block
    /// valid-transaction counts of every readable block, which the
    /// recovery min-rule consumes.
    ///
    /// # Errors
    ///
    /// [`StoreOpenError::CorruptBlock`] when a record *inside* the valid
    /// region fails its CRC or does not parse as a block (a torn tail is
    /// not an error), [`StoreOpenError::Io`] on filesystem failures.
    pub fn open(
        dir: impl Into<PathBuf>,
        group_commit: usize,
        segment_max_bytes: u64,
    ) -> Result<(Self, Vec<u32>), StoreOpenError> {
        assert!(group_commit > 0, "group_commit must be at least 1");
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create blocks dir", e))?;

        // Enumerate segments by index; they are created contiguously.
        let mut seg_count = 0usize;
        while seg_log_path(&dir, seg_count).exists() {
            seg_count += 1;
        }
        if seg_count == 0 {
            File::create(seg_log_path(&dir, 0)).map_err(|e| io_err("create first segment", e))?;
            seg_count = 1;
        }

        let mut segments = Vec::with_capacity(seg_count);
        let mut valid_counts: Vec<u32> = Vec::new();
        let mut next_block = 0u64;
        let mut crashed = false;
        for index in 0..seg_count {
            let path = seg_log_path(&dir, index);
            let idx_path = seg_idx_path(&dir, index);
            if crashed {
                // Crash evidence in an earlier segment: everything after
                // it belongs to writes the crash outran. Drop it.
                let _ = std::fs::remove_file(&path);
                let _ = std::fs::remove_file(&idx_path);
                continue;
            }
            let is_last = index + 1 == seg_count;
            let entries = if is_last {
                // The active segment: scan, truncating a torn tail.
                scan_segment(&path, next_block)?
            } else {
                match load_sidecar(&idx_path, &path, next_block) {
                    Some(entries) => entries,
                    None => {
                        // A sealed segment whose sidecar is missing or
                        // inconsistent with the file: under fsync-free
                        // commit the OS may persist a later segment's
                        // creation before this one's tail, so a short
                        // sealed segment is crash evidence, not
                        // corruption — recover its prefix, drop the
                        // rest, and let chain verification police the
                        // content. (Interior CRC failures still error.)
                        crashed = true;
                        let _ = std::fs::remove_file(&idx_path);
                        scan_segment(&path, next_block)?
                    }
                }
            };
            valid_counts.extend(entries.iter().map(|e| e.valid_count));
            let first_block = next_block;
            next_block += entries.len() as u64;
            segments.push(Segment {
                path,
                first_block,
                entries,
            });
        }

        let active_path = segments.last().expect("at least one segment").path.clone();
        let file = OpenOptions::new()
            .append(true)
            .open(&active_path)
            .map_err(|e| io_err("open active segment", e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("stat active segment", e))?
            .len();
        let store = DurableBlockStore {
            dir,
            group_commit,
            segment_max_bytes,
            segments,
            total_blocks: next_block,
            writer: Mutex::named(
                "store.blockstore.writer",
                Writer {
                    file,
                    file_len,
                    buffered: Vec::new(),
                    pending: 0,
                },
            ),
        };
        Ok((store, valid_counts))
    }

    /// Drops every block numbered `>= keep` — the recovery min-rule's
    /// truncation. Later segments are deleted; the segment containing
    /// the cut becomes the active one (its sidecar, if any, is removed).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on filesystem failures.
    pub fn truncate_to(&mut self, keep: u64) -> Result<(), StoreError> {
        if keep >= self.total_blocks {
            return Ok(());
        }
        let seg_idx = self
            .segments
            .iter()
            .rposition(|s| s.first_block <= keep)
            .expect("segment 0 starts at block 0");
        // Remove whole later segments.
        for index in (seg_idx + 1)..self.segments.len() {
            let _ = std::fs::remove_file(seg_log_path(&self.dir, index));
            let _ = std::fs::remove_file(seg_idx_path(&self.dir, index));
        }
        self.segments.truncate(seg_idx + 1);
        // Cut the containing segment and make it the active writer.
        let seg = &mut self.segments[seg_idx];
        let keep_in_seg = (keep - seg.first_block) as usize;
        let cut_bytes = match seg.entries.get(keep_in_seg) {
            Some(entry) => entry.offset,
            None => seg
                .entries
                .last()
                .map(|e| e.offset + HEADER_LEN as u64 + e.len as u64)
                .unwrap_or(0),
        };
        seg.entries.truncate(keep_in_seg);
        let _ = std::fs::remove_file(seg_idx_path(&self.dir, seg_idx));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&seg.path)
            .map_err(|e| StoreError::new(format!("reopen segment for truncate: {e}")))?;
        file.set_len(cut_bytes)
            .map_err(|e| StoreError::new(format!("truncate segment: {e}")))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::new(format!("seek segment end: {e}")))?;
        *self.writer.lock() = Writer {
            file,
            file_len: cut_bytes,
            buffered: Vec::new(),
            pending: 0,
        };
        self.total_blocks = keep;
        Ok(())
    }

    /// Seals the active segment: flush, write the index sidecar, open
    /// the next segment. The writer keeps its (now empty) group buffer,
    /// so the next segment's first append does not grow one from zero.
    fn seal_active(&mut self) -> Result<(), StoreError> {
        let mut writer = self.writer.lock();
        writer.flush()?;
        let index = self.segments.len() - 1;
        write_sidecar(&seg_idx_path(&self.dir, index), &self.segments[index])?;
        let next_path = seg_log_path(&self.dir, index + 1);
        let file = File::create(&next_path)
            .map_err(|e| StoreError::new(format!("create next segment: {e}")))?;
        writer.file = file;
        writer.file_len = 0;
        drop(writer);
        self.segments.push(Segment {
            path: next_path,
            first_block: self.total_blocks,
            entries: Vec::new(),
        });
        Ok(())
    }

    /// Reads the record of block `number` from its segment and verifies
    /// the frame CRC where the bytes were read. Returns the whole record:
    /// the payload starts at [`HEADER_LEN`].
    fn read_record(&self, number: u64) -> Option<Vec<u8>> {
        let seg_idx = self
            .segments
            .iter()
            .rposition(|s| s.first_block <= number)?;
        let seg = &self.segments[seg_idx];
        let entry = *seg.entries.get((number - seg.first_block) as usize)?;
        let record_end = entry.offset + HEADER_LEN as u64 + entry.len as u64;
        if seg_idx == self.segments.len() - 1 {
            // The record may still sit in the group-commit buffer; force
            // it down so the file read below sees it.
            let mut w = self.writer.lock();
            if record_end > w.file_len && w.flush().is_err() {
                return None;
            }
        }
        let mut file = File::open(&seg.path).ok()?;
        file.seek(SeekFrom::Start(entry.offset)).ok()?;
        let mut record = vec![0u8; HEADER_LEN + entry.len as usize];
        file.read_exact(&mut record).ok()?;
        let scan = frame::scan(&record);
        let intact = scan.tail == Tail::Clean && scan.records.len() == 1;
        intact.then_some(record)
    }
}

/// Scans a segment file into its entry index, truncating a torn tail
/// (a crash artifact). Interior corruption — a CRC-failing record with
/// valid data after it in the same file — is reported with the
/// offending block number.
fn scan_segment(path: &Path, first_block: u64) -> Result<Vec<Entry>, StoreOpenError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read segment", e))?;
    let scan = frame::scan(&bytes);
    match scan.tail {
        Tail::Clean => {}
        Tail::Torn => {
            // Crash artifact: drop the partial record.
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("reopen segment", e))?;
            file.set_len(scan.valid_len as u64)
                .map_err(|e| io_err("truncate torn tail", e))?;
        }
        Tail::Corrupt { .. } => {
            return Err(StoreOpenError::CorruptBlock {
                block: first_block + scan.records.len() as u64,
            });
        }
    }
    let mut entries = Vec::with_capacity(scan.records.len());
    for (i, &(offset, payload)) in scan.records.iter().enumerate() {
        let valid_count = parse_valid_count(payload).ok_or(StoreOpenError::CorruptBlock {
            block: first_block + i as u64,
        })?;
        entries.push(Entry {
            offset: offset as u64,
            // lint:allow(truncating-cast) record payloads are bounded by MAX_RECORD_LEN
            len: payload.len() as u32,
            valid_count,
        });
    }
    Ok(entries)
}

/// Sidecar payload: `first_block u64 | count u32 | (offset u64, len u32,
/// valid_count u32)*`, framed like every other record.
fn write_sidecar(path: &Path, seg: &Segment) -> Result<(), StoreError> {
    let mut payload = Vec::with_capacity(12 + seg.entries.len() * 16);
    payload.extend_from_slice(&seg.first_block.to_le_bytes());
    let count = u32::try_from(seg.entries.len()).expect("segment exceeds u32::MAX entries");
    payload.extend_from_slice(&count.to_le_bytes());
    for e in &seg.entries {
        payload.extend_from_slice(&e.offset.to_le_bytes());
        payload.extend_from_slice(&e.len.to_le_bytes());
        payload.extend_from_slice(&e.valid_count.to_le_bytes());
    }
    std::fs::write(path, frame::encode_record(&payload))
        .map_err(|e| StoreError::new(format!("write sidecar: {e}")))
}

/// Loads a sealed segment's sidecar if it is present, CRC-valid, and
/// consistent with the segment file's length and position in the chain;
/// otherwise the caller falls back to a full scan.
fn load_sidecar(idx_path: &Path, log_path: &Path, first_block: u64) -> Option<Vec<Entry>> {
    let bytes = std::fs::read(idx_path).ok()?;
    let scan = frame::scan(&bytes);
    if scan.tail != Tail::Clean || scan.records.len() != 1 {
        return None;
    }
    let payload = scan.records[0].1;
    if payload.len() < 12 {
        return None;
    }
    let stored_first = u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice"));
    let count = u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice")) as usize;
    if stored_first != first_block || payload.len() != 12 + count * 16 {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    let mut covered = 0u64;
    for i in 0..count {
        let at = 12 + i * 16;
        let offset = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8-byte slice"));
        let len = u32::from_le_bytes(payload[at + 8..at + 12].try_into().expect("4-byte slice"));
        let valid_count =
            u32::from_le_bytes(payload[at + 12..at + 16].try_into().expect("4-byte slice"));
        if offset != covered {
            return None;
        }
        covered = offset + HEADER_LEN as u64 + len as u64;
        entries.push(Entry {
            offset,
            len,
            valid_count,
        });
    }
    let file_len = std::fs::metadata(log_path).ok()?.len();
    if covered != file_len {
        return None;
    }
    Some(entries)
}

impl BlockStore for DurableBlockStore {
    fn len(&self) -> u64 {
        self.total_blocks
    }

    fn get(&self, number: u64) -> Option<CommittedBlock> {
        let record = self.read_record(number)?;
        let block = Block::unmarshal(&record[HEADER_LEN..]).ok()?;
        CommittedBlock::from_stamped_block(block).ok()
    }

    fn append(&mut self, cb: &CommittedBlock) -> Result<(), StoreError> {
        let needs_seal = {
            let mut writer = self.writer.lock();
            let offset = writer.file_len + writer.buffered.len() as u64;
            // The block is marshaled once, straight into the group-commit
            // buffer, and framed where it lies.
            let len = frame::append_record(&mut writer.buffered, |out| cb.block.marshal_into(out));
            let seg = self.segments.last_mut().expect("active segment");
            seg.entries.push(Entry {
                offset,
                // lint:allow(truncating-cast) record payloads are bounded by MAX_RECORD_LEN
                len: len as u32,
                // lint:allow(truncating-cast) tx count per block is far below u32::MAX
                valid_count: cb.tx_filter.iter().filter(|c| c.is_valid()).count() as u32,
            });
            writer.pending += 1;
            self.total_blocks += 1;
            if writer.pending >= self.group_commit || writer.buffered.len() >= GROUP_MAX_BYTES {
                writer.flush()?;
            }
            writer.file_len + writer.buffered.len() as u64 >= self.segment_max_bytes
        };
        if needs_seal {
            self.seal_active()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.writer.lock().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_ledger::TxValidationCode;
    use fabric_protos::messages::BlockData;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fabric-store-blocks-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A block of `txs` envelopes of `envelope` filler bytes each
    /// (`append` marshals and frames; it never decodes).
    fn block(txs: usize, envelope: usize) -> CommittedBlock {
        CommittedBlock {
            block: Block {
                data: BlockData {
                    data: vec![vec![0xab; envelope]; txs],
                },
                ..Block::default()
            },
            header_hash: [0; 32],
            tx_filter: vec![TxValidationCode::Valid; txs],
            commit_hash: [0; 32],
        }
    }

    fn writes() -> usize {
        WRITES.with(|n| n.get())
    }

    fn on_disk(dir: &Path, index: usize) -> u64 {
        std::fs::metadata(seg_log_path(dir, index))
            .expect("segment exists")
            .len()
    }

    #[test]
    fn a_group_is_bounded_in_blocks_and_in_bytes() {
        let dir = tempdir("group");
        let (mut store, _) = DurableBlockStore::open(&dir, 8, 64 << 20).unwrap();

        // Eight small blocks: nothing reaches the file before the
        // eighth, which takes all of them down in one `write`.
        let small = block(2, 100);
        let small_record = (HEADER_LEN + small.block.marshal().len()) as u64;
        let before = writes();
        for _ in 0..7 {
            store.append(&small).unwrap();
        }
        assert_eq!(writes(), before, "a partial group stays in process");
        assert_eq!(on_disk(&dir, 0), 0);
        store.append(&small).unwrap();
        assert_eq!(writes(), before + 1, "eight blocks, one write");
        assert_eq!(on_disk(&dir, 0), 8 * small_record);

        // One block above the byte ceiling: in the file when `append`
        // returns, with no `flush` and seven blocks short of the count.
        let large = block(100, 3_950);
        let large_record = (HEADER_LEN + large.block.marshal().len()) as u64;
        assert!(large_record as usize > GROUP_MAX_BYTES);
        store.append(&large).unwrap();
        assert_eq!(writes(), before + 2);
        assert_eq!(on_disk(&dir, 0), 8 * small_record + large_record);

        // Below the ceiling the count still decides: small blocks behind
        // a large one start a fresh group of eight.
        for _ in 0..7 {
            store.append(&small).unwrap();
        }
        assert_eq!(writes(), before + 2);
        store.append(&small).unwrap();
        assert_eq!(writes(), before + 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealing_a_segment_keeps_the_group_buffer() {
        let dir = tempdir("seal");
        let cb = block(10, 1_000);
        let record = (HEADER_LEN + cb.block.marshal().len()) as u64;
        // Two records fill a segment; the group count alone never
        // flushes, so the buffer has grown to two records by the seal.
        let (mut store, _) = DurableBlockStore::open(&dir, 100, 2 * record).unwrap();
        store.append(&cb).unwrap();
        let grown = store.writer.lock().buffered.capacity();
        assert!(grown >= record as usize);
        store.append(&cb).unwrap();
        assert_eq!(store.segments.len(), 2, "second append sealed segment 0");
        assert_eq!(on_disk(&dir, 0), 2 * record);
        let writer = store.writer.lock();
        assert!(writer.buffered.is_empty() && writer.pending == 0);
        assert!(
            writer.buffered.capacity() >= grown,
            "seal must not drop the buffer's allocation"
        );
        drop(writer);
        // And the new segment's writer works.
        store.append(&cb).unwrap();
        store.flush().unwrap();
        assert_eq!(on_disk(&dir, 1), record);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
