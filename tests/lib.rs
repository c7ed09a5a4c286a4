//! Integration test package; all tests live under `tests/`. What more
//! than one of them needs lives here.

use std::collections::BTreeMap;
use std::ops::Bound;

use fabric_crypto::bigint::U256;
use fabric_crypto::curve::p256;
use fabric_crypto::ecdsa::{
    batch_s_inverses, verify_batch, BatchItem, Signature, SigningKey, VerifyingKey, BATCH_LANES,
};
use fabric_crypto::sha256::sha256;
use fabric_statedb::{hash_dump, Height, JournalSink, VersionedValue, WriteBatch};
use parking_lot::Mutex;

/// The sequential reference `fabric_statedb::StateDb` is held to: one
/// ordered map and the highest height ever applied. No shards, no
/// version chains, no locks, no journal — what the store must answer
/// for any sequence of calls, whatever it does to answer it fast.
#[derive(Debug, Clone, Default)]
pub struct StateModel {
    map: BTreeMap<String, VersionedValue>,
    tip: Option<Height>,
}

impl StateModel {
    /// An empty store that has never committed.
    pub fn new() -> Self {
        StateModel::default()
    }

    /// The store a dump and its tip describe (`StateDb::from_snapshot`).
    pub fn from_snapshot(entries: Vec<(String, VersionedValue)>, tip: Option<Height>) -> Self {
        StateModel {
            map: entries.into_iter().collect(),
            tip,
        }
    }

    /// Applies the batch's writes in order, each stamped at `height`;
    /// the tip is a high-water mark, also for an empty batch.
    pub fn apply(&mut self, batch: &WriteBatch, height: Height) {
        self.tip = self.tip.max(Some(height));
        for (key, value) in batch.iter() {
            match value {
                Some(v) => {
                    let version = VersionedValue {
                        value: v.to_vec(),
                        version: height,
                    };
                    self.map.insert(key.to_string(), version);
                }
                None => {
                    self.map.remove(key);
                }
            }
        }
    }

    /// `apply` over the block's batches, in order.
    pub fn apply_block(&mut self, batches: &[(WriteBatch, Height)]) {
        for (batch, height) in batches {
            self.apply(batch, *height);
        }
    }

    /// The current value and version of `key`.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        self.map.get(key).cloned()
    }

    /// The live keys in `[start, end)`, in key order.
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        self.map
            .range::<str, _>((Bound::Included(start), Bound::Excluded(end)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Full ordered dump.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        self.map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// A read view that later applies do not move: a copy.
    pub fn pin(&self) -> StateModel {
        self.clone()
    }

    /// Highest height ever applied (`None` = never committed).
    pub fn tip(&self) -> Option<Height> {
        self.tip
    }

    /// The dump's hash, by the store's own definition.
    pub fn state_hash(&self) -> u64 {
        hash_dump(self.snapshot())
    }
}

/// One journaled record: the batch's entries, owned, and its height.
pub type JournaledBatch = (Vec<(String, Option<Vec<u8>>)>, Height);

/// A journal sink that keeps what it is sent.
#[derive(Debug, Default)]
pub struct RecordingSink {
    /// Every record, in the order they arrived.
    pub records: Mutex<Vec<JournaledBatch>>,
    /// `records.len()` at each `apply_boundary`.
    pub boundaries: Mutex<Vec<usize>>,
}

impl RecordingSink {
    /// Applies every recorded batch to `model`, in record order.
    pub fn replay_into(&self, model: &mut StateModel) {
        for (entries, height) in self.records.lock().iter() {
            model.apply(&entries.iter().cloned().collect(), *height);
        }
    }
}

impl JournalSink for RecordingSink {
    fn record(&self, batch: &WriteBatch, height: Height) {
        self.records.lock().push((
            batch
                .iter()
                .map(|(k, v)| (k.to_string(), v.map(|b| b.to_vec())))
                .collect(),
            height,
        ));
    }

    fn apply_boundary(&self) {
        let at = self.records.lock().len();
        self.boundaries.lock().push(at);
    }

    fn flush(&self) {}
}

/// Whether `verify_batch` runs the eight-lane kernel on this processor.
pub fn lanes_present() -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
        return true;
    }
    false
}

/// Says on standard error when `verify_batch` has no eight-lane kernel
/// to run on this processor, so a log shows that `test`'s lane arm had
/// only the scalar loop to compare with itself.
pub fn note_if_lanes_absent(test: &str) {
    if !lanes_present() {
        eprintln!("{test}: no avx512ifma on this processor, verify_batch is the scalar loop");
    }
}

/// `n` fresh keys that `verify_batch` multiplies by their comb, and `n`
/// by their ladder table. A key's first lane verification decides which
/// for as long as the key lives, and the first keys take the free places
/// under the process's cap on combs (`fabric-crypto`'s README, "Lane
/// kernel"), so this verifies fresh keys one at a time until `n` have
/// come out without a comb. Every key made after that, in any test of
/// the binary, keeps to its ladder table too. Without the lane kernel
/// no key has a comb, and the first list is empty.
pub fn keys_on_each_table(tag: &str, n: usize) -> (Vec<SigningKey>, Vec<SigningKey>) {
    let (mut comb, mut ladder) = (Vec::new(), Vec::new());
    let digest = sha256(tag.as_bytes());
    for i in 0..1_024 {
        if ladder.len() == n {
            break;
        }
        let key = SigningKey::from_seed(format!("{tag}-{i}").as_bytes());
        let sig = key.sign_prehashed(&digest);
        assert!(batch_verdict(key.verifying_key(), &digest, &sig));
        if key.verifying_key().has_comb() {
            comb.push(key);
        } else {
            ladder.push(key);
        }
    }
    assert_eq!(ladder.len(), n, "{tag}: the cap on combs never filled");
    assert!(
        comb.len() >= n || !lanes_present(),
        "{tag}: other tests took all but {} places under the cap on combs",
        comb.len()
    );
    comb.truncate(n);
    (comb, ladder)
}

/// `s⁻¹ mod n` as `batch_s_inverses` gives it, zero for an `s` out of
/// range.
pub fn s_inverse(sig: &Signature) -> U256 {
    batch_s_inverses(&[*sig])[0]
}

/// `verify_batch`'s verdict on one triple, asserted equal to
/// `verify_prehashed_with_sinv`'s in three batches: alone; in the last
/// lane of a full chunk behind seven valid signatures of another key;
/// and first in a chunk and a half of copies of itself.
pub fn batch_verdict(vk: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> bool {
    let sinv = s_inverse(sig);
    let expected = vk.verify_prehashed_with_sinv(digest, sig, &sinv).is_ok();
    let item = BatchItem {
        key: vk,
        digest: *digest,
        sig: *sig,
        sinv,
    };
    assert_eq!(verify_batch(&[item]), [expected], "alone: {vk:?} {sig:?}");
    let filler_key = SigningKey::from_seed(b"batch-verdict-filler");
    let filler_digest = sha256(b"batch-verdict-filler");
    let filler_sig = filler_key.sign_prehashed(&filler_digest);
    let mut chunk = vec![
        BatchItem {
            key: filler_key.verifying_key(),
            digest: filler_digest,
            sig: filler_sig,
            sinv: s_inverse(&filler_sig),
        };
        BATCH_LANES - 1
    ];
    chunk.push(item);
    let mut verdicts = vec![true; BATCH_LANES - 1];
    verdicts.push(expected);
    assert_eq!(verify_batch(&chunk), verdicts, "last lane: {vk:?} {sig:?}");
    let copies = vec![item; BATCH_LANES + BATCH_LANES / 2];
    assert_eq!(
        verify_batch(&copies),
        vec![expected; copies.len()],
        "copies: {vk:?} {sig:?}"
    );
    // Out of range is refused before any arithmetic, by every path.
    let n = &p256().order;
    if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
        assert!(!expected);
    }
    expected
}
