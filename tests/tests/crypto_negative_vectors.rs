//! Wycheproof-style negative vectors for the ECDSA stack.
//!
//! Hand-rolled analogues of the classic Wycheproof test classes —
//! malformed DER, out-of-range scalars, wrong-curve points, signature
//! malleability — asserting that the optimized verification path and
//! the preserved seed (Shamir) path **reject identically**.

use fabric_crypto::bigint::U256;
use fabric_crypto::curve::{p256, AffinePoint, PointError};
use fabric_crypto::der::{decode_signature, encode_signature, DerError};
use fabric_crypto::ecdsa::{EcdsaError, Signature, SigningKey, VerifyingKey};
use fabric_crypto::sha256::sha256;

fn test_key() -> SigningKey {
    SigningKey::from_seed(b"negative-vectors")
}

/// Asserts both verification paths — and `verify_batch`, which on a
/// processor with AVX-512 IFMA is the eight-lane kernel — produce the
/// same accept/reject verdict, and returns it.
fn paths_agree(vk: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> bool {
    let fast = vk.verify_prehashed(digest, sig);
    let shamir = vk.verify_prehashed_shamir(digest, sig);
    assert_eq!(
        fast.is_ok(),
        shamir.is_ok(),
        "fast ({fast:?}) and shamir ({shamir:?}) verdicts diverged for sig={sig:?}"
    );
    assert_eq!(
        bmac_integration_tests::batch_verdict(vk, digest, sig),
        fast.is_ok(),
        "batch and fast ({fast:?}) verdicts diverged for sig={sig:?}"
    );
    fast.is_ok()
}

#[test]
fn malformed_der_is_rejected() {
    let key = test_key();
    let good = encode_signature(&key.sign(b"der"));
    // (description, bytes, expected error)
    let vectors: Vec<(&str, Vec<u8>, DerError)> = vec![
        ("empty input", vec![], DerError::Truncated),
        ("lone sequence tag", vec![0x30], DerError::Truncated),
        (
            "wrong outer tag (SET)",
            vec![0x31, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01],
            DerError::UnexpectedTag {
                expected: 0x30,
                found: 0x31,
            },
        ),
        (
            "long-form length",
            vec![0x30, 0x81, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01],
            DerError::LongFormLength,
        ),
        (
            "declared length past end",
            vec![0x30, 0x20, 0x02, 0x01, 0x01],
            DerError::TrailingBytes, // header claims 0x20 body, input is 3
        ),
        (
            "empty integer",
            vec![0x30, 0x05, 0x02, 0x00, 0x02, 0x01, 0x01],
            DerError::EmptyInteger,
        ),
        (
            "negative integer",
            vec![0x30, 0x06, 0x02, 0x01, 0x80, 0x02, 0x01, 0x01],
            DerError::NegativeInteger,
        ),
        (
            "non-minimal zero padding",
            vec![0x30, 0x07, 0x02, 0x02, 0x00, 0x01, 0x02, 0x01, 0x01],
            DerError::NonMinimalInteger,
        ),
        (
            "integer wider than 256 bits",
            {
                // 0x00 pad is legal here (0xAA has the high bit set),
                // but the 33 digit bytes exceed 256 bits.
                let mut v = vec![0x30, 0x27, 0x02, 0x22, 0x00];
                v.extend_from_slice(&[0xAA; 33]);
                v.extend_from_slice(&[0x02, 0x01, 0x01]);
                v
            },
            DerError::IntegerTooLarge,
        ),
        (
            "missing s integer",
            vec![0x30, 0x03, 0x02, 0x01, 0x01],
            DerError::Truncated,
        ),
        (
            "trailing byte after sequence",
            {
                let mut v = good.clone();
                v.push(0x00);
                v
            },
            DerError::TrailingBytes,
        ),
    ];
    for (what, bytes, expect) in vectors {
        assert_eq!(decode_signature(&bytes), Err(expect), "{what}");
    }
    // Truncation at every byte boundary of a real signature.
    for cut in 0..good.len() {
        assert!(decode_signature(&good[..cut]).is_err(), "cut={cut}");
    }
    // The well-formed encoding still round-trips (sanity for the table).
    assert!(decode_signature(&good).is_ok());
}

#[test]
fn out_of_range_scalars_rejected_identically() {
    let key = test_key();
    let digest = sha256(b"range");
    let good = key.sign_prehashed(&digest);
    let n = p256().order;
    let bad_components: Vec<(&str, U256)> = vec![
        ("zero", U256::ZERO),
        ("the group order n", n),
        ("n + 1", n.wrapping_add(&U256::ONE)),
        ("2^256 - 1", U256::MAX),
    ];
    let vk = key.verifying_key();
    for (what, bad) in &bad_components {
        for (r, s) in [(*bad, good.s), (good.r, *bad)] {
            let sig = Signature { r, s };
            // Both paths must reject with the range error, before any
            // curve arithmetic happens.
            assert_eq!(
                vk.verify_prehashed(&digest, &sig),
                Err(EcdsaError::InvalidScalar),
                "fast path accepted {what}"
            );
            assert_eq!(
                vk.verify_prehashed_shamir(&digest, &sig),
                Err(EcdsaError::InvalidScalar),
                "shamir path accepted {what}"
            );
            assert!(
                !bmac_integration_tests::batch_verdict(vk, &digest, &sig),
                "batch accepted {what}"
            );
            // The raw wire decoding rejects the same values.
            let mut raw = [0u8; 64];
            raw[..32].copy_from_slice(&r.to_be_bytes());
            raw[32..].copy_from_slice(&s.to_be_bytes());
            assert_eq!(
                Signature::from_raw_bytes(&raw),
                Err(EcdsaError::InvalidScalar),
                "raw decode accepted {what}"
            );
        }
    }
}

#[test]
fn wrong_curve_points_are_rejected() {
    // secp256k1's generator: a perfectly valid point — on the wrong
    // curve.
    let k1_gx =
        U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798").unwrap();
    let k1_gy =
        U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8").unwrap();
    assert_eq!(
        AffinePoint::from_coords(&k1_gx, &k1_gy),
        Err(PointError::NotOnCurve)
    );

    // A coordinate at/above the field prime.
    let p = fabric_crypto::fp256::Fp256::P;
    let g = AffinePoint::generator();
    let gy = U256::from_be_bytes(&g.y_bytes());
    assert_eq!(
        AffinePoint::from_coords(&p, &gy),
        Err(PointError::OutOfRange)
    );

    // A tampered SEC1 encoding (off-curve y).
    let mut sec1 = g.to_sec1_bytes();
    sec1[64] ^= 0x01;
    assert_eq!(
        AffinePoint::from_sec1_bytes(&sec1),
        Err(PointError::NotOnCurve)
    );
    // Compressed/hybrid tags are not acceptable here.
    let mut tagged = g.to_sec1_bytes();
    for tag in [0x02, 0x03, 0x06, 0x00] {
        tagged[0] = tag;
        assert_eq!(
            AffinePoint::from_sec1_bytes(&tagged),
            Err(PointError::Encoding),
            "tag {tag:#x}"
        );
    }

    // The identity is not a valid verification key.
    assert!(VerifyingKey::from_point(AffinePoint::identity()).is_err());
}

#[test]
fn high_s_twin_treated_identically_by_both_paths() {
    // ECDSA signatures are malleable: (r, n − s) verifies whenever
    // (r, s) does. This library implements plain FIPS 186-4
    // verification (no low-s policy), so the twin must be *accepted* —
    // what matters for the differential guarantee is that both paths
    // and both field backends give the same answer, never a split
    // verdict an attacker could wedge a cache or consensus on.
    let key = test_key();
    let vk = key.verifying_key();
    let n = p256().order;
    for i in 0u8..8 {
        let digest = sha256(&[b"malleate".as_slice(), &[i]].concat());
        let sig = key.sign_prehashed(&digest);
        assert!(paths_agree(vk, &digest, &sig));
        let twin = Signature {
            r: sig.r,
            s: n.wrapping_sub(&sig.s),
        };
        assert_ne!(twin.s, sig.s);
        assert!(
            paths_agree(vk, &digest, &twin),
            "high-s twin must verify under plain ECDSA (case {i})"
        );
        // But the twin against a *different* digest still fails.
        let other = sha256(b"other message");
        assert!(!paths_agree(vk, &other, &twin));
    }
}

#[test]
fn swapped_and_crossed_components_rejected_identically() {
    let key = test_key();
    let vk = key.verifying_key();
    let d1 = sha256(b"first");
    let d2 = sha256(b"second");
    let s1 = key.sign_prehashed(&d1);
    let s2 = key.sign_prehashed(&d2);
    // r and s swapped within one signature.
    assert!(!paths_agree(vk, &d1, &Signature { r: s1.s, s: s1.r }));
    // Components crossed between two valid signatures.
    assert!(!paths_agree(vk, &d1, &Signature { r: s1.r, s: s2.s }));
    assert!(!paths_agree(vk, &d1, &Signature { r: s2.r, s: s1.s }));
    // A valid signature presented to the wrong key.
    let other = SigningKey::from_seed(b"some other identity");
    assert!(!paths_agree(other.verifying_key(), &d1, &s1));
}
