//! Atomic state checkpoints.
//!
//! A checkpoint is one framed record holding a full [`StateDb`]
//! snapshot plus the tip height it was taken at, written to a temporary
//! file and `rename`d over `checkpoint.bin` — so the visible checkpoint
//! is always either the old or the new one, never a torn mix. Recovery
//! cost is thereby bounded by the journal *tail*: restore the snapshot,
//! replay only the records above its height.
//!
//! The journal is deliberately **not** truncated when a checkpoint is
//! taken: if `checkpoint.bin` is later found corrupted (bit rot, not a
//! crash — rename atomicity rules out torn checkpoints), recovery falls
//! back to replaying the full journal from genesis and still converges
//! to the same state. Journal compaction below the *previous* checkpoint
//! is future work (see the crate README).

use std::path::Path;

use fabric_statedb::{Height, StateDb, VersionedValue};

use crate::frame::{self, Tail};
use crate::StoreOpenError;

/// File name of the visible checkpoint inside the store root.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// A loaded checkpoint: the snapshot entries plus the two tip heights
/// that bracket the (possibly fuzzy) snapshot.
#[derive(Debug)]
pub struct Checkpoint {
    /// Ordered `(key, value)` entries of the snapshot.
    pub entries: Vec<(String, VersionedValue)>,
    /// State tip observed *before* the snapshot started (`None` for a
    /// pre-genesis snapshot). Everything at or below this height is
    /// fully folded into `entries`; journal replay resumes above it.
    pub tip: Option<Height>,
    /// State tip observed *after* the snapshot finished. The chunked
    /// [`StateDb::snapshot`] releases its lock between chunks, so
    /// `entries` may additionally contain a *subset* of the writes in
    /// `(tip, cover_to]` — recovery must have complete journal coverage
    /// through `cover_to` (replaying that window is idempotent and
    /// completes the partial subset) or discard the checkpoint. Equal
    /// to `tip` when the snapshot ran quiescent.
    pub cover_to: Option<Height>,
}

fn encode_tip(out: &mut Vec<u8>, tip: Option<Height>) {
    match tip {
        Some(h) => {
            out.push(1);
            out.extend_from_slice(&h.block_num.to_le_bytes());
            out.extend_from_slice(&h.tx_num.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn encode(
    entries: &[(String, VersionedValue)],
    tip: Option<Height>,
    cover_to: Option<Height>,
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_tip(&mut out, tip);
    encode_tip(&mut out, cover_to);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, v) in entries {
        let klen = u32::try_from(key.len()).expect("checkpoint key exceeds u32::MAX bytes");
        out.extend_from_slice(&klen.to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        let vlen = u32::try_from(v.value.len()).expect("checkpoint value exceeds u32::MAX bytes");
        out.extend_from_slice(&vlen.to_le_bytes());
        out.extend_from_slice(&v.value);
        out.extend_from_slice(&v.version.block_num.to_le_bytes());
        out.extend_from_slice(&v.version.tx_num.to_le_bytes());
    }
    out
}

fn decode_tip(rest: &mut &[u8]) -> Option<Option<Height>> {
    match frame::take(rest, 1)?[0] {
        1 => Some(Some(Height::new(
            u64::from_le_bytes(
                frame::take(rest, 8)?
                    .try_into()
                    .expect("take(8) returned 8 bytes"),
            ),
            u64::from_le_bytes(
                frame::take(rest, 8)?
                    .try_into()
                    .expect("take(8) returned 8 bytes"),
            ),
        ))),
        0 => Some(None),
        _ => None,
    }
}

fn decode(payload: &[u8]) -> Option<Checkpoint> {
    let take = frame::take;
    let mut rest = payload;
    let tip = decode_tip(&mut rest)?;
    let cover_to = decode_tip(&mut rest)?;
    // A fuzzy snapshot can only run *ahead* of its starting tip.
    if cover_to < tip {
        return None;
    }
    let n = u64::from_le_bytes(
        take(&mut rest, 8)?
            .try_into()
            .expect("take(8) returned 8 bytes"),
    );
    let mut entries = Vec::new();
    for _ in 0..n {
        let klen = u32::from_le_bytes(
            take(&mut rest, 4)?
                .try_into()
                .expect("take(4) returned 4 bytes"),
        ) as usize;
        let key = std::str::from_utf8(take(&mut rest, klen)?)
            .ok()?
            .to_string();
        let vlen = u32::from_le_bytes(
            take(&mut rest, 4)?
                .try_into()
                .expect("take(4) returned 4 bytes"),
        ) as usize;
        let value = take(&mut rest, vlen)?.to_vec();
        let version = Height::new(
            u64::from_le_bytes(
                take(&mut rest, 8)?
                    .try_into()
                    .expect("take(8) returned 8 bytes"),
            ),
            u64::from_le_bytes(
                take(&mut rest, 8)?
                    .try_into()
                    .expect("take(8) returned 8 bytes"),
            ),
        );
        entries.push((key, VersionedValue { value, version }));
    }
    if !rest.is_empty() {
        return None;
    }
    Some(Checkpoint {
        entries,
        tip,
        cover_to,
    })
}

/// Captures a (possibly fuzzy) snapshot of `db`: the replay-from tip is
/// read *before* the chunked snapshot starts and the cover-to tip after
/// it finishes, bracketing whatever concurrent commits interleaved with
/// the copy. Publish it with [`publish`] — callers with a journal
/// (`FabricStore`) flush between capture and publish so every record up
/// to `cover_to` is durable before the checkpoint claims the window.
pub fn capture(db: &StateDb) -> Checkpoint {
    let tip = db.tip_height();
    let entries = db.snapshot();
    let cover_to = db.tip_height();
    Checkpoint {
        entries,
        tip,
        cover_to,
    }
}

/// Atomically publishes a captured checkpoint into `root` (tmp +
/// rename), returning its replay-from tip.
///
/// # Errors
///
/// [`StoreOpenError::Io`] on filesystem failures.
pub fn publish(root: &Path, ckpt: &Checkpoint) -> Result<Option<Height>, StoreOpenError> {
    let record = frame::encode_record(&encode(&ckpt.entries, ckpt.tip, ckpt.cover_to));
    let tmp = root.join(CHECKPOINT_TMP);
    std::fs::write(&tmp, &record).map_err(|e| StoreOpenError::Io(format!("write tmp: {e}")))?;
    std::fs::rename(&tmp, root.join(CHECKPOINT_FILE))
        .map_err(|e| StoreOpenError::Io(format!("rename checkpoint: {e}")))?;
    Ok(ckpt.tip)
}

/// Captures and publishes in one call — correct when no writer runs
/// concurrently (tests, quiescent stores). `FabricStore::checkpoint`
/// inserts a journal flush between the two steps instead.
///
/// # Errors
///
/// [`StoreOpenError::Io`] on filesystem failures.
pub fn write(root: &Path, db: &StateDb) -> Result<Option<Height>, StoreOpenError> {
    publish(root, &capture(db))
}

/// Loads the checkpoint if one exists and passes integrity checks.
/// `None` covers both "no checkpoint yet" and "checkpoint corrupted" —
/// the caller falls back to full journal replay either way (and reports
/// which through [`crate::RecoveryReport`]'s flags).
pub fn load(root: &Path) -> Option<Checkpoint> {
    let bytes = std::fs::read(root.join(CHECKPOINT_FILE)).ok()?;
    let scan = frame::scan(&bytes);
    if scan.tail != Tail::Clean || scan.records.len() != 1 {
        return None;
    }
    decode(scan.records[0].1)
}

/// Whether a checkpoint file is present on disk (used to distinguish
/// "absent" from "present but corrupt" in the recovery report).
pub fn exists(root: &Path) -> bool {
    root.join(CHECKPOINT_FILE).exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_statedb::WriteBatch;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fabric-store-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_snapshot_and_tip() {
        let dir = tempdir("roundtrip");
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put("alpha", vec![1, 2]);
        b.put("beta", Vec::new());
        db.apply(&b, Height::new(3, 1));
        let tip = write(&dir, &db).unwrap();
        assert_eq!(tip, Some(Height::new(3, 1)));
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.tip, tip);
        assert_eq!(loaded.cover_to, tip, "quiescent capture: no fuzz window");
        assert_eq!(loaded.entries, db.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_loads_as_none() {
        let dir = tempdir("corrupt");
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put("k", vec![7]);
        db.apply(&b, Height::new(1, 0));
        write(&dir, &db).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&dir).is_none(), "flipped byte must fail the CRC");
        assert!(exists(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_loads_as_none() {
        let dir = tempdir("missing");
        assert!(load(&dir).is_none());
        assert!(!exists(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
