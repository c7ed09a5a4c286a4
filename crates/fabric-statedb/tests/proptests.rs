//! Property-based tests for the state database: MVCC semantics and the
//! bounded store's capacity/locking invariants.

use fabric_statedb::{BoundedStateDb, Height, StateDb, WriteBatch};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn last_write_wins(ops in proptest::collection::vec(("[a-d]", any::<u8>()), 1..64)) {
        let db = StateDb::new();
        let mut expected = std::collections::HashMap::new();
        for (i, (key, value)) in ops.iter().enumerate() {
            let mut b = WriteBatch::new();
            b.put(key.clone(), vec![*value]);
            db.apply(&b, Height::new(1, i as u64));
            expected.insert(key.clone(), (*value, i as u64));
        }
        for (key, (value, tx)) in expected {
            let got = db.get(&key).unwrap();
            prop_assert_eq!(got.value, vec![value]);
            prop_assert_eq!(got.version, Height::new(1, tx));
        }
    }

    #[test]
    fn mvcc_accepts_exactly_current_versions(keys in proptest::collection::vec("[a-f]{1,4}", 1..16)) {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        for k in &keys {
            b.put(k.clone(), b"x");
        }
        db.apply(&b, Height::new(3, 7));
        // Reading current versions validates...
        let reads: Vec<(String, Option<Height>)> =
            keys.iter().map(|k| (k.clone(), Some(Height::new(3, 7)))).collect();
        prop_assert!(db.mvcc_validate(&reads));
        // ...any stale version fails.
        let stale: Vec<(String, Option<Height>)> =
            keys.iter().map(|k| (k.clone(), Some(Height::new(2, 0)))).collect();
        prop_assert!(!db.mvcc_validate(&stale));
    }

    #[test]
    fn bounded_never_exceeds_capacity(
        capacity in 1usize..16,
        keys in proptest::collection::vec("[a-z]{1,6}", 0..64),
    ) {
        let mut db = BoundedStateDb::new(capacity);
        for (i, k) in keys.iter().enumerate() {
            let _ = db.put(k, vec![1], Height::new(1, i as u64));
            prop_assert!(db.len() <= capacity);
        }
    }

    #[test]
    fn bounded_overwrites_always_succeed(keys in proptest::collection::vec("[a-c]", 1..32)) {
        // Capacity 3 fits the whole alphabet {a,b,c}; overwrites must
        // never report Full.
        let mut db = BoundedStateDb::new(3);
        for (i, k) in keys.iter().enumerate() {
            prop_assert!(db.put(k, vec![i as u8], Height::new(1, i as u64)).is_ok());
        }
    }

    #[test]
    fn range_boundaries_match_reference(
        entries in proptest::collection::btree_map("[a-e]{1,3}", any::<u8>(), 0..16),
        start in "[a-e]{1,3}",
    ) {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        for (k, v) in &entries {
            b.put(k.clone(), vec![*v]);
        }
        db.apply(&b, Height::new(1, 0));
        // start == end: always empty, even when `start` is a live key.
        prop_assert!(db.range(&start, &start).is_empty());
        // Degenerate/empty windows never panic and match BTreeMap.
        let next = format!("{start}\u{0}");
        let got: Vec<String> = db.range(&start, &next).into_iter().map(|(k, _)| k).collect();
        let expected: Vec<String> = entries
            .range(start.clone()..next)
            .map(|(k, _)| k.clone())
            .collect();
        prop_assert_eq!(got, expected);
        // The empty string is below every key: ["", start) is a prefix
        // scan, ["", "") is empty.
        prop_assert!(db.range("", "").is_empty());
        let below: Vec<String> = db.range("", &start).into_iter().map(|(k, _)| k).collect();
        prop_assert!(below.iter().all(|k| k.as_str() < start.as_str()));
    }

    #[test]
    fn write_batch_apply_is_last_op_wins(
        ops in proptest::collection::vec(("[a-c]", proptest::option::of(any::<u8>())), 1..24),
    ) {
        // One batch mixing puts and deletes of overlapping keys: apply
        // must behave as if each op ran in sequence (delete-then-put
        // leaves the put, put-then-delete leaves nothing), with every
        // surviving entry stamped at the batch height.
        let db = StateDb::new();
        let mut seed = WriteBatch::new();
        seed.put("a", b"seed");
        db.apply(&seed, Height::new(1, 0));

        let batch: WriteBatch = ops
            .iter()
            .map(|(k, v)| (k.clone(), v.map(|b| vec![b])))
            .collect();
        let height = Height::new(2, 5);
        db.apply(&batch, height);

        let mut reference: std::collections::BTreeMap<String, Option<Vec<u8>>> =
            [("a".to_string(), Some(b"seed".to_vec()))].into_iter().collect();
        for (k, v) in &ops {
            reference.insert(k.clone(), v.map(|b| vec![b]));
        }
        for (key, expected) in reference {
            match (db.get(&key), expected) {
                (Some(got), Some(want)) => {
                    prop_assert_eq!(&got.value, &want);
                    // Survivors written by THIS batch carry its height;
                    // the untouched seed keeps Height(1, 0).
                    let touched = ops.iter().any(|(k, _)| *k == key);
                    let want_height = if touched { height } else { Height::new(1, 0) };
                    prop_assert_eq!(got.version, want_height);
                }
                (None, None) => {}
                (got, want) => {
                    return Err(TestCaseError(format!(
                        "key {key:?}: got {got:?}, want {want:?}"
                    )));
                }
            }
        }
    }

    #[test]
    fn empty_batch_changes_nothing_but_advances_tip(
        heights in proptest::collection::vec((0u64..8, 0u64..8), 1..8),
    ) {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put("k", vec![1]);
        db.apply(&b, Height::new(0, 0));
        let before = db.snapshot();
        let mut max = Height::new(0, 0);
        for (bn, tn) in heights {
            let h = Height::new(bn, tn);
            db.apply(&WriteBatch::new(), h);
            max = max.max(h);
            // tip is a high-water mark even for no-op commits...
            prop_assert_eq!(db.tip_height(), Some(max));
        }
        // ...and contents are untouched.
        prop_assert_eq!(db.snapshot(), before);
    }

    #[test]
    fn range_scan_matches_reference(
        entries in proptest::collection::btree_map("[a-z]{1,5}", any::<u8>(), 0..32),
        bounds in ("[a-z]{1,2}", "[a-z]{1,2}"),
    ) {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        for (k, v) in &entries {
            b.put(k.clone(), vec![*v]);
        }
        db.apply(&b, Height::new(1, 0));
        let (lo, hi) = bounds;
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let got: Vec<String> = db.range(&lo, &hi).into_iter().map(|(k, _)| k).collect();
        let expected: Vec<String> = entries
            .range(lo..hi)
            .map(|(k, _)| k.clone())
            .collect();
        prop_assert_eq!(got, expected);
    }
}
