//! The write-ahead state journal.
//!
//! One framed record per [`StateDb::apply`] call — i.e. per *valid
//! transaction*, including transactions with empty write sets — in
//! commit order:
//!
//! ```text
//! RECORD payload := block u64 | tx u64 | n_entries u32 |
//!                   ( key_len u32 | key | tag u8 (0=delete, 1=put) |
//!                     [ value_len u32 | value ] )*
//! ```
//!
//! The journal is attached to the peer's [`StateDb`] as its
//! [`JournalSink`]: the state database forwards every batch here,
//! under its own write lock, *before* mutating memory — so the
//! journal's record order is exactly the apply order and a replayed
//! journal reproduces the state byte-for-byte. Records are framed
//! where they lie in an in-process buffer, which reaches the file in
//! one `write` per group-commit window (fsync-free, like the block
//! segments). The window is counted in *apply calls* — the state
//! database marks the end of each one with
//! [`JournalSink::apply_boundary`], and the peer applies a block in one
//! call — so `group_commit` means blocks here exactly as it does in the
//! block store, however many records a block carries.
//!
//! Atomicity is at record granularity: the frame CRC means a crash
//! mid-record yields the previous record boundary on recovery, never a
//! half-applied batch (`journal_batch_atomicity` in the integration
//! fault harness drives truncation through every prefix length).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fabric_statedb::{Height, JournalSink, StateDb, WriteBatch};
use parking_lot::Mutex;

use crate::frame::{self, Tail};
use crate::StoreOpenError;

/// Encodes one `(batch, height)` journal record payload.
pub fn encode_batch(batch: &WriteBatch, height: Height) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 16 * batch.len());
    encode_batch_into(&mut out, batch, height);
    out
}

/// [`encode_batch`] appended to `out`: how the journal writes a record
/// payload straight into its group buffer.
fn encode_batch_into(out: &mut Vec<u8>, batch: &WriteBatch, height: Height) {
    out.extend_from_slice(&height.block_num.to_le_bytes());
    out.extend_from_slice(&height.tx_num.to_le_bytes());
    let n = u32::try_from(batch.len()).expect("journal batch exceeds u32::MAX entries");
    out.extend_from_slice(&n.to_le_bytes());
    for (key, value) in batch.iter() {
        let klen = u32::try_from(key.len()).expect("journal key exceeds u32::MAX bytes");
        out.extend_from_slice(&klen.to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        match value {
            Some(v) => {
                out.push(1);
                let vlen = u32::try_from(v.len()).expect("journal value exceeds u32::MAX bytes");
                out.extend_from_slice(&vlen.to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
}

/// Decodes a journal record payload. `None` on any structural mismatch
/// (a CRC-passing record that does not parse is corruption, not a torn
/// write — the caller reports it).
pub fn decode_batch(payload: &[u8]) -> Option<(Height, WriteBatch)> {
    let take = frame::take;
    let mut rest = payload;
    let block = u64::from_le_bytes(
        take(&mut rest, 8)?
            .try_into()
            .expect("take(8) returned 8 bytes"),
    );
    let tx = u64::from_le_bytes(
        take(&mut rest, 8)?
            .try_into()
            .expect("take(8) returned 8 bytes"),
    );
    let n = u32::from_le_bytes(
        take(&mut rest, 4)?
            .try_into()
            .expect("take(4) returned 4 bytes"),
    );
    let mut batch = WriteBatch::new();
    for _ in 0..n {
        let klen = u32::from_le_bytes(
            take(&mut rest, 4)?
                .try_into()
                .expect("take(4) returned 4 bytes"),
        ) as usize;
        let key = std::str::from_utf8(take(&mut rest, klen)?)
            .ok()?
            .to_string();
        match take(&mut rest, 1)?[0] {
            1 => {
                let vlen = u32::from_le_bytes(
                    take(&mut rest, 4)?
                        .try_into()
                        .expect("take(4) returned 4 bytes"),
                ) as usize;
                batch.put(key, take(&mut rest, vlen)?.to_vec());
            }
            0 => {
                batch.delete(key);
            }
            _ => return None,
        }
    }
    if !rest.is_empty() {
        return None;
    }
    Some((Height::new(block, tx), batch))
}

/// Result of scanning a journal file at open.
#[derive(Debug)]
pub struct JournalScan {
    /// Decoded records with the byte offset where each record *ends* —
    /// the truncation candidates of the recovery min-rule.
    pub records: Vec<(u64, Height, WriteBatch)>,
    /// Bytes covered by valid records.
    pub valid_len: u64,
    /// Total file length found on disk.
    pub file_len: u64,
}

/// Scans the journal file into its valid record prefix. A torn tail is
/// reported through `valid_len < file_len`; interior corruption or a
/// record whose commit height goes backwards is an error.
///
/// # Errors
///
/// [`StoreOpenError::CorruptJournal`] for interior corruption,
/// [`StoreOpenError::Io`] on read failure.
pub fn scan_journal(path: &Path) -> Result<JournalScan, StoreOpenError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreOpenError::Io(format!("read journal: {e}"))),
    };
    let scan = frame::scan(&bytes);
    if let Tail::Corrupt { offset } = scan.tail {
        return Err(StoreOpenError::CorruptJournal {
            offset: offset as u64,
        });
    }
    let mut records = Vec::with_capacity(scan.records.len());
    let mut last: Option<Height> = None;
    for &(offset, payload) in &scan.records {
        let (height, batch) = decode_batch(payload).ok_or(StoreOpenError::CorruptJournal {
            offset: offset as u64,
        })?;
        // Commit order is strictly non-decreasing; a violation means the
        // file was tampered with, not torn.
        if last.is_some_and(|prev| height < prev) {
            return Err(StoreOpenError::CorruptJournal {
                offset: offset as u64,
            });
        }
        last = Some(height);
        let end = offset as u64 + frame::HEADER_LEN as u64 + payload.len() as u64;
        records.push((end, height, batch));
    }
    Ok(JournalScan {
        records,
        valid_len: scan.valid_len as u64,
        file_len: bytes.len() as u64,
    })
}

#[derive(Debug)]
struct JournalInner {
    file: File,
    /// Framed records awaiting the next group boundary.
    buffered: Vec<u8>,
    /// Apply calls (blocks) since the last flush.
    pending: usize,
}

#[cfg(test)]
thread_local! {
    /// `write` calls this thread's journals have issued.
    static WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The append half of the journal; implements [`JournalSink`] so it
/// attaches directly to a [`StateDb`].
#[derive(Debug)]
pub struct StateJournal {
    path: PathBuf,
    group_commit: usize,
    inner: Mutex<JournalInner>,
}

impl StateJournal {
    /// Opens the journal for appending, first truncating the file to
    /// `keep_bytes` (the recovery min-rule's cut point).
    ///
    /// # Errors
    ///
    /// [`StoreOpenError::Io`] on filesystem failures.
    pub fn open_at(
        path: impl Into<PathBuf>,
        keep_bytes: u64,
        group_commit: usize,
    ) -> Result<Self, StoreOpenError> {
        assert!(group_commit > 0, "group_commit must be at least 1");
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreOpenError::Io(format!("open journal: {e}")))?;
        file.set_len(keep_bytes)
            .map_err(|e| StoreOpenError::Io(format!("truncate journal: {e}")))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreOpenError::Io(format!("seek journal: {e}")))?;
        Ok(StateJournal {
            path,
            group_commit,
            inner: Mutex::named(
                "store.journal",
                JournalInner {
                    file,
                    buffered: Vec::new(),
                    pending: 0,
                },
            ),
        })
    }

    /// The journal file path (diagnostics and the fault harness).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn flush_inner(inner: &mut JournalInner) {
        if !inner.buffered.is_empty() {
            #[cfg(test)]
            WRITES.with(|n| n.set(n.get() + 1));
            inner
                .file
                .write_all(&inner.buffered)
                .expect("state journal write failed; cannot continue committing unlogged");
            inner.buffered.clear();
        }
        inner.pending = 0;
    }
}

impl JournalSink for StateJournal {
    fn record(&self, batch: &WriteBatch, height: Height) {
        let mut inner = self.inner.lock();
        frame::append_record(&mut inner.buffered, |out| {
            encode_batch_into(out, batch, height)
        });
    }

    fn apply_boundary(&self) {
        let mut inner = self.inner.lock();
        inner.pending += 1;
        if inner.pending >= self.group_commit {
            Self::flush_inner(&mut inner);
        }
    }

    fn flush(&self) {
        Self::flush_inner(&mut self.inner.lock());
    }
}

/// Replays scanned journal records into a state database: only records
/// with `after < block ≤ upto` are applied (records at or below a
/// checkpoint height are already folded into its snapshot; records
/// above the recovered block height belong to blocks that never made it
/// to the block store). Returns how many records were applied.
///
/// Both bounds are *recovered heights*, so `None` means "no such
/// height": `after: None` starts from genesis, while `upto: None`
/// means **no block was recovered and nothing is replayed** — it is
/// NOT an open upper bound. (For an unbounded replay pass
/// `Some(u64::MAX)`.)
pub fn replay(
    db: &StateDb,
    records: &[(u64, Height, WriteBatch)],
    after: Option<u64>,
    upto: Option<u64>,
) -> usize {
    let mut applied = 0;
    for (_, height, batch) in records {
        let skip_low = after.is_some_and(|c| height.block_num <= c);
        let skip_high = match upto {
            Some(k) => height.block_num > k,
            None => true,
        };
        if skip_low || skip_high {
            continue;
        }
        db.replay(batch, *height);
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn batch_roundtrip() {
        let mut batch = WriteBatch::new();
        batch.put("alpha", vec![1, 2, 3]);
        batch.delete("beta");
        batch.put("", Vec::new());
        let payload = encode_batch(&batch, Height::new(7, 3));
        let (height, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(height, Height::new(7, 3));
        let entries: Vec<_> = decoded.iter().collect();
        assert_eq!(
            entries,
            vec![
                ("alpha", Some([1u8, 2, 3].as_slice())),
                ("beta", None),
                ("", Some([].as_slice())),
            ]
        );
    }

    #[test]
    fn empty_batch_roundtrips() {
        let payload = encode_batch(&WriteBatch::new(), Height::new(2, 0));
        let (height, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(height, Height::new(2, 0));
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut batch = WriteBatch::new();
        batch.put("key", vec![9; 40]);
        let payload = encode_batch(&batch, Height::new(1, 0));
        for cut in 0..payload.len() {
            assert!(decode_batch(&payload[..cut]).is_none(), "cut={cut}");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_batch(&extended).is_none(), "trailing garbage");
    }

    /// One block's worth of per-tx batches, one key each.
    fn block_batches(block: u64, txs: u64) -> Vec<(WriteBatch, Height)> {
        (0..txs)
            .map(|tx| {
                let mut b = WriteBatch::new();
                b.put(format!("k{block}-{tx}"), vec![tx as u8; 32]);
                (b, Height::new(block, tx))
            })
            .collect()
    }

    #[test]
    fn the_group_unit_is_an_apply_call_not_a_record() {
        let path = std::env::temp_dir().join(format!("fabric-store-jgroup-{}", std::process::id()));
        let writes = || WRITES.with(|n| n.get());
        let file_len = || std::fs::metadata(&path).unwrap().len();

        // Default window: seven 100-tx blocks are zero writes, the
        // eighth takes all 800 records down in one.
        let _ = std::fs::remove_file(&path);
        let db = StateDb::new();
        db.attach_journal(Arc::new(StateJournal::open_at(&path, 0, 8).unwrap()));
        let before = writes();
        for block in 0..7 {
            db.apply_block(&block_batches(block, 100));
        }
        assert_eq!(writes(), before, "a 100-tx apply is no write");
        assert_eq!(file_len(), 0);
        db.apply_block(&block_batches(7, 100));
        assert_eq!(writes(), before + 1, "the eighth block is one write");
        assert_eq!(scan_journal(&path).unwrap().records.len(), 800);
        // A block with no valid transaction still counts as a block.
        for _ in 0..8 {
            db.apply_block(&[]);
        }
        db.apply_block(&block_batches(8, 1));
        assert_eq!(writes(), before + 1, "nothing buffered, nothing written");
        for block in 9..16 {
            db.apply_block(&block_batches(block, 1));
        }
        assert_eq!(writes(), before + 2);

        // A window of one: every apply call is on disk when it returns —
        // one write for the block, not one per transaction.
        let _ = std::fs::remove_file(&path);
        let db = StateDb::new();
        db.attach_journal(Arc::new(StateJournal::open_at(&path, 0, 1).unwrap()));
        let before = writes();
        db.apply_block(&block_batches(0, 100));
        assert_eq!(writes(), before + 1);
        assert_eq!(scan_journal(&path).unwrap().records.len(), 100);
        let batches = block_batches(1, 1);
        db.apply(&batches[0].0, batches[0].1);
        assert_eq!(writes(), before + 2);
        assert_eq!(scan_journal(&path).unwrap().records.len(), 101);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_respects_both_bounds() {
        let mut records = Vec::new();
        for block in 0..5u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{block}"), vec![block as u8]);
            records.push((0u64, Height::new(block, 0), b));
        }
        let db = StateDb::new();
        let applied = replay(&db, &records, Some(1), Some(3));
        assert_eq!(applied, 2);
        assert!(db.get("k1").is_none(), "at/below checkpoint skipped");
        assert!(db.get("k2").is_some() && db.get("k3").is_some());
        assert!(db.get("k4").is_none(), "above recovered height skipped");
    }
}
