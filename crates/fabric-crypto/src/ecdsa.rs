//! ECDSA over P-256 with SHA-256 digests and RFC 6979 deterministic nonces.
//!
//! This is Fabric's default signature scheme (paper §2.1.1): clients sign
//! transaction proposals, endorser peers sign endorsements, and the orderer
//! signs blocks. On the validator, verification of these signatures is the
//! single most expensive operation (~40% of total time in the paper's
//! Figure 3a) and the reason the Blockchain Machine dedicates pipelined
//! `ecdsa_engine` instances to it.
//!
//! # The verification hot path
//!
//! [`VerifyingKey::verify_prehashed`] runs an optimized pipeline that
//! mirrors what the paper's hardware gets from parallel `ecdsa_engine`
//! units — minimal redundant work per signature:
//!
//! * `u1·G` uses the process-wide precomputed fixed-base comb table
//!   ([`crate::curve::mul_fixed_base`]): ≤31 mixed additions, no
//!   doublings;
//! * `u2·Q` uses a lazily built *per-key* table (wNAF odd multiples of
//!   `2^(32i)·Q` for each of the eight 32-bit pieces of `u2`, affine) so
//!   the double-scalar half needs only 32 shared doublings and ~46
//!   mixed additions — endorser keys repeat across every block, so the
//!   table amortizes immediately;
//! * `s⁻¹ mod n` uses binary-Euclid inversion on plain integers
//!   ([`crate::bigint::inv_mod_odd`]), or is amortized across a whole
//!   block with [`batch_s_inverses`] (Montgomery's trick: one inversion
//!   per block) and [`VerifyingKey::verify_prehashed_with_sinv`]; the
//!   `u1`/`u2` products run on the Montgomery domain on `n`
//!   ([`crate::curve::CurveParams::fn_`]), entered once per signature;
//! * the final `x(R) ≡ r (mod n)` comparison happens in projective
//!   coordinates ([`JacobianPoint::eq_x_mod_order`]), eliminating the
//!   second field inversion entirely.
//!
//! [`verify_batch`] is the same verification for a list: on a CPU with
//! AVX-512 IFMA it runs chunks of [`BATCH_LANES`] through the lane
//! kernel (`p256x8.rs`; the crate README, "Lane kernel"), and the
//! pipeline above is its portable twin, its test oracle and the fallback
//! for whatever a lane leaves undecided.
//!
//! The seed implementation (bit-serial Shamir ladder + two Fermat
//! inversions) is preserved as `VerifyingKey::verify_prehashed_shamir`,
//! hidden from the documentation and callable from tests only
//! (`repo_lint` rule `test-oracle`); randomized tests cross-check that
//! the two paths agree.

use std::fmt;
#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::bigint::{inv_mod_odd, U256, U512};
use crate::curve::{mul_fixed_base, p256, wnaf_digits, AffinePoint, JacobianPoint, PointError};
use crate::fp256::Fp256;
use crate::sha256::{hmac_sha256, sha256};

/// An ECDSA P-256 private key.
#[derive(Clone)]
pub struct SigningKey {
    d: U256,
    public: VerifyingKey,
}

/// An ECDSA P-256 public key.
///
/// Cloning is cheap and clones *share* the lazily built verification
/// table, so the natural pattern — parse a certificate once, verify many
/// endorsements against it — pays the precomputation once per key.
#[derive(Clone)]
pub struct VerifyingKey {
    point: AffinePoint,
    /// Lazily built per-key acceleration tables; identity semantics
    /// (`PartialEq`, `Debug`, serialization) ignore them.
    precomp: Arc<PrecompSlot>,
}

/// What the registry shares per distinct public key: the scalar path's
/// table, and the lane kernel's comb or, past the cap on combs, its
/// ladder table, each built on the first verification that needs it
/// (see [`PrecompSlot::lane_table`]).
#[derive(Default)]
struct PrecompSlot {
    scalar: OnceLock<KeyPrecomp>,
    #[cfg(target_arch = "x86_64")]
    lanes: OnceLock<crate::p256x8::KeyLanes>,
    /// Decided on the key's first lane verification: its comb, or
    /// `None` when [`COMB_CAP`] combs were alive then.
    #[cfg(target_arch = "x86_64")]
    comb: OnceLock<Option<LiveComb>>,
}

/// Combs alive at a time, in the registry or held by live keys: 32 ×
/// 320 KiB = 10 MiB at most. The first keys the lanes verify take the
/// places, since every key a Fabric channel's blocks carry recurs in
/// every block; the cap is what bounds a stream of one-off keys, to 32
/// builds (≈ 80 ms) and 10 MiB. A key that finds every place taken
/// keeps to its ladder table for as long as the registry holds its slot:
/// nothing evicts a comb whose key has gone quiet (crate README, "Lane
/// kernel").
#[cfg(target_arch = "x86_64")]
const COMB_CAP: usize = 32;

/// Combs alive now; [`LiveComb`] holds one unit of it.
#[cfg(target_arch = "x86_64")]
static LIVE_COMBS: AtomicUsize = AtomicUsize::new(0);

/// Combs built, by any thread.
#[cfg(all(test, target_arch = "x86_64"))]
static COMB_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// A key's comb and its place under [`COMB_CAP`], given back on drop.
#[cfg(target_arch = "x86_64")]
struct LiveComb(crate::p256x8::KeyComb);

#[cfg(target_arch = "x86_64")]
impl LiveComb {
    /// `q`'s comb, if fewer than [`COMB_CAP`] are alive.
    fn build(q: &AffinePoint) -> Option<Self> {
        LIVE_COMBS
            // relaxed: a counter whose read-modify-writes are totally
            // ordered among themselves; it publishes no other memory.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (live < COMB_CAP).then_some(live + 1)
            })
            .ok()?;
        #[cfg(test)]
        // relaxed: a test's build counter, read after the builders joined.
        COMB_BUILDS.fetch_add(1, Ordering::Relaxed);
        Some(LiveComb(crate::p256x8::KeyComb::build(q)))
    }
}

#[cfg(target_arch = "x86_64")]
impl Drop for LiveComb {
    fn drop(&mut self) {
        // relaxed: as in `build`.
        LIVE_COMBS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl PrecompSlot {
    fn has_comb(&self) -> bool {
        false
    }
}

#[cfg(target_arch = "x86_64")]
impl PrecompSlot {
    fn has_comb(&self) -> bool {
        matches!(self.comb.get(), Some(Some(_)))
    }

    /// The table this lane verification of `q` multiplies by: the comb
    /// when the key has one, its ladder table otherwise. The key's first
    /// lane verification decides which, building the comb if a place
    /// under [`COMB_CAP`] is free; threads racing to that first use wait
    /// for the one build.
    fn lane_table(&self, q: &AffinePoint) -> crate::p256x8::KeyTable<'_> {
        use crate::p256x8::{KeyLanes, KeyTable};
        match self.comb.get_or_init(|| LiveComb::build(q)) {
            Some(comb) => KeyTable::Comb(&comb.0),
            None => KeyTable::Ladder(self.lanes.get_or_init(|| KeyLanes::build(q))),
        }
    }
}

/// How much the precomputation registry holds, for a gauge: see
/// [`precomp_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecompStats {
    /// Distinct public keys in the registry (at most 1 024).
    pub keys: usize,
    /// Of those, keys with a lane ladder table (5 KiB each).
    pub ladder_tables: usize,
    /// Combs alive (320 KiB each), in the registry or held by keys it
    /// no longer lists; never more than the cap of 32.
    pub combs: usize,
}

/// A snapshot of the precomputation registry: its keys, their lane
/// ladder tables, and the combs. Takes the registry lock once.
pub fn precomp_stats() -> PrecompStats {
    let map = precomp_registry().lock();
    let (ladder_tables, combs) = lane_gauges(map.values());
    PrecompStats {
        keys: map.len(),
        ladder_tables,
        combs,
    }
}

#[cfg(target_arch = "x86_64")]
fn lane_gauges<'a>(slots: impl Iterator<Item = &'a Arc<PrecompSlot>>) -> (usize, usize) {
    let ladders = slots.filter(|slot| slot.lanes.get().is_some()).count();
    // relaxed: a gauge read.
    (ladders, LIVE_COMBS.load(Ordering::Relaxed))
}

#[cfg(not(target_arch = "x86_64"))]
fn lane_gauges<'a>(_: impl Iterator<Item = &'a Arc<PrecompSlot>>) -> (usize, usize) {
    (0, 0)
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.point == other.point
    }
}

impl Eq for VerifyingKey {}

/// Per-key precomputation for the `u2·Q` half of verification: `u2` is
/// cut into [`Self::PIECES`] pieces of [`Self::PIECE_BITS`] bits, and
/// piece `i` gets its own width-5 wNAF table of odd multiples
/// `{1,3,..,15}·2^(i·PIECE_BITS)·Q`, all normalized to affine with one
/// batched inversion. Every piece walks the same doubling ladder, so a
/// verification doubles `PIECE_BITS` times instead of 256 and adds
/// hardly more often than an unsplit wNAF would (each piece pays for
/// its own top digit: ~46 additions against ~43).
struct KeyPrecomp {
    /// `PIECES` tables of `TABLE_LEN` points, piece 0 first.
    tables: Vec<AffinePoint>,
}

#[cfg(test)]
thread_local! {
    /// Tables built by the current thread.
    static PRECOMP_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl KeyPrecomp {
    const WINDOW: u32 = 5;
    const TABLE_LEN: usize = 1 << (Self::WINDOW - 2);
    /// Picked with `cargo bench -p bmac-bench --bench crypto` among
    /// 4, 8 and 16 (the crate README has the numbers): 64 points,
    /// 4.5 KiB, a key.
    const PIECES: usize = 8;
    const PIECE_BITS: usize = 256 / Self::PIECES;

    fn build(q: &AffinePoint) -> Self {
        #[cfg(test)]
        PRECOMP_BUILDS.with(|n| n.set(n.get() + 1));
        let mut jac = Vec::with_capacity(Self::PIECES * Self::TABLE_LEN);
        let mut base = q.to_jacobian();
        for _ in 0..Self::PIECES {
            let twice = base.double();
            let mut acc = base;
            for _ in 0..Self::TABLE_LEN {
                jac.push(acc);
                acc = acc.add(&twice);
            }
            base = twice;
            for _ in 1..Self::PIECE_BITS {
                base = base.double();
            }
        }
        KeyPrecomp {
            tables: JacobianPoint::batch_to_affine(&jac),
        }
    }

    /// `k·Q`: the wNAF digits of every piece of `k` walk one shared
    /// doubling ladder. A piece's recoding may carry one position past
    /// its top bit, hence the `+ 1`.
    fn mul(&self, k: &U256) -> JacobianPoint {
        let mut digits = [[0i8; Self::PIECE_BITS + 1]; Self::PIECES];
        let mut len = 0;
        for (i, d) in digits.iter_mut().enumerate() {
            let bit = i * Self::PIECE_BITS;
            let piece = (k.0[bit / 64] >> (bit % 64)) & (u64::MAX >> (64 - Self::PIECE_BITS));
            len = len.max(wnaf_digits(&U256::from_u64(piece), Self::WINDOW, d));
        }
        let f = Fp256;
        let mut acc = JacobianPoint::identity();
        for pos in (0..len).rev() {
            acc = acc.double();
            for (d, table) in digits.iter().zip(self.tables.chunks_exact(Self::TABLE_LEN)) {
                let d = d[pos];
                if d != 0 {
                    let mut p = table[usize::from(d.unsigned_abs()) / 2];
                    if d < 0 {
                        p.y = f.neg(&p.y);
                    }
                    acc = acc.add_mixed(&p);
                }
            }
        }
        acc
    }
}

/// An ECDSA signature as the raw `(r, s)` scalar pair.
///
/// Fabric transmits signatures DER-encoded (see [`crate::der`]); the
/// hardware's `DataProcessor` decodes DER into exactly this fixed-width
/// form before feeding the `ecdsa_engine` (paper §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The `r` component, `1 <= r < n`.
    pub r: U256,
    /// The `s` component, `1 <= s < n`.
    pub s: U256,
}

impl SigningKey {
    /// Creates a key from a raw scalar.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidScalar`] when `d == 0` or `d >= n`.
    pub fn from_scalar(d: U256) -> Result<Self, EcdsaError> {
        let n = &p256().order;
        if d.is_zero() || &d >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let point = mul_fixed_base(&d).to_affine();
        Ok(SigningKey {
            d,
            public: VerifyingKey::new(point),
        })
    }

    /// Creates a key from 32 big-endian bytes.
    ///
    /// # Errors
    ///
    /// Same as [`SigningKey::from_scalar`].
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Result<Self, EcdsaError> {
        Self::from_scalar(U256::from_be_bytes(bytes))
    }

    /// Generates a key from an RNG.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes[..]);
            if let Ok(k) = Self::from_be_bytes(&bytes) {
                return k;
            }
        }
    }

    /// Derives a key deterministically from a seed label. Handy for
    /// reproducible test networks: the same `(org, role, index)` always
    /// yields the same identity.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut counter = 0u32;
        loop {
            let mut material = seed.to_vec();
            material.extend_from_slice(&counter.to_be_bytes());
            let digest = sha256(&material);
            if let Ok(k) = Self::from_be_bytes(&digest) {
                return k;
            }
            counter += 1;
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// The raw private scalar as big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.d.to_be_bytes()
    }

    /// Signs `message`, hashing it with SHA-256 first.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_prehashed(&sha256(message))
    }

    /// Signs a precomputed 32-byte digest using the RFC 6979 deterministic
    /// nonce, so signing needs no RNG and is reproducible across runs.
    ///
    /// `k·G` runs on the precomputed fixed-base comb table (no
    /// doublings), only its affine `x` is computed, and both `k⁻¹` and
    /// the projection's `z⁻¹` run on binary-Euclid inversion, making
    /// signing several times faster than the seed's windowed ladder +
    /// Fermat exponentiation while producing bit-identical signatures.
    ///
    /// Not constant-time: both inversions are variable-time binary
    /// Euclid on values derived from the secret nonce (the Fermat
    /// exponentiation they replaced is no hardening either, see
    /// [`crate::fp256`]). The keys signed with here are synthetic.
    pub fn sign_prehashed(&self, digest: &[u8; 32]) -> Signature {
        let c = p256();
        let n = &c.order;
        let z = bits2int(digest, n);
        let mut nonce = Rfc6979::new(&self.d.to_be_bytes(), digest);
        loop {
            let k = nonce.next_candidate();
            if k.is_zero() || &k >= n {
                continue;
            }
            let r = mul_fixed_base(&k).affine_x().reduce_once(n);
            if r.is_zero() {
                continue;
            }
            // s = k^-1 (z + r d) mod n. A Montgomery product of one
            // Montgomery residue and one plain integer is the plain
            // product, so each multiply needs a single domain entry.
            let fd = &c.fn_;
            let kinv = inv_mod_odd(&k, n).expect("k nonzero");
            let rd = fd.mul(&fd.to_mont(&r), &self.d);
            let s = fd.mul(&fd.to_mont(&kinv), &z.add_mod(&rd, n));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the private scalar.
        write!(f, "SigningKey(public={:?})", self.public)
    }
}

/// Keys the precomp registry holds before it is cleared.
const REGISTRY_CAP: usize = 1024;

/// Process-wide registry sharing one precomp slot per distinct public
/// key, so re-parsing the same certificate (every block decode does)
/// reuses the tables built on first verification instead of rebuilding
/// them. Bounded at [`REGISTRY_CAP`] keys, i.e. slots: a key arriving
/// at a full registry clears it (keys in use keep their tables through
/// their own `Arc`), so a key is rebuilt at most once per
/// `REGISTRY_CAP` new keys rather than on every parse.
fn shared_precomp_slot(point: &AffinePoint) -> Arc<PrecompSlot> {
    let mut key = [0u8; 64];
    key[..32].copy_from_slice(&point.x_bytes());
    key[32..].copy_from_slice(&point.y_bytes());
    let mut map = precomp_registry().lock();
    if let Some(slot) = map.get(&key) {
        return Arc::clone(slot);
    }
    if map.len() >= REGISTRY_CAP {
        map.clear();
    }
    let slot = Arc::new(PrecompSlot::default());
    map.insert(key, Arc::clone(&slot));
    slot
}

type Registry = parking_lot::Mutex<std::collections::HashMap<[u8; 64], Arc<PrecompSlot>>>;

fn precomp_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY
        .get_or_init(|| parking_lot::Mutex::named("crypto.precomp_registry", Default::default()))
}

impl VerifyingKey {
    fn new(point: AffinePoint) -> Self {
        if point.infinity {
            return VerifyingKey {
                point,
                precomp: Arc::default(),
            };
        }
        VerifyingKey {
            point,
            precomp: shared_precomp_slot(&point),
        }
    }

    /// Wraps an existing curve point.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] for the identity point.
    pub fn from_point(point: AffinePoint) -> Result<Self, EcdsaError> {
        if point.infinity {
            return Err(EcdsaError::InvalidPoint(PointError::NotOnCurve));
        }
        Ok(VerifyingKey::new(point))
    }

    /// Parses an uncompressed SEC1 encoding (65 bytes, `04 || X || Y`).
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] when decoding fails.
    pub fn from_sec1_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        let point = AffinePoint::from_sec1_bytes(bytes).map_err(EcdsaError::InvalidPoint)?;
        Self::from_point(point)
    }

    /// Serializes to uncompressed SEC1 (65 bytes).
    pub fn to_sec1_bytes(&self) -> [u8; 65] {
        self.point.to_sec1_bytes()
    }

    /// The underlying curve point.
    pub fn point(&self) -> &AffinePoint {
        &self.point
    }

    /// Whether [`verify_batch`] multiplies this key by its comb (no
    /// doubling) rather than its ladder table: a key gets its comb on
    /// its first lane verification, under a cap on live combs (crate
    /// README, "Lane kernel"). Always `false` before that and where the
    /// lanes do not run.
    pub fn has_comb(&self) -> bool {
        self.precomp.has_comb()
    }

    /// Verifies `signature` over `message` (SHA-256 hashed internally).
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), EcdsaError> {
        self.verify_prehashed(&sha256(message), signature)
    }

    /// Verifies against a precomputed digest. This is the operation the
    /// paper's `ecdsa_engine` implements: input `{signature, key, hash}`,
    /// output valid/invalid — and the hottest function in the whole
    /// validator (see the module docs for the optimization pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidSignature`] when the signature does not
    /// verify, or [`EcdsaError::InvalidScalar`] when `r`/`s` are out of
    /// range.
    pub fn verify_prehashed(&self, digest: &[u8; 32], sig: &Signature) -> Result<(), EcdsaError> {
        let c = p256();
        let n = &c.order;
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let sinv = inv_mod_odd(&sig.s, n).expect("s nonzero");
        self.verify_prehashed_with_sinv(digest, sig, &sinv)
    }

    /// [`Self::verify_prehashed`] with the `s⁻¹ mod n` supplied by the
    /// caller — the entry point for *batched* verification, where
    /// [`batch_s_inverses`] amortizes every inversion in a block into
    /// one (Montgomery's trick), exactly as the tentpole hardware's
    /// shared modular-inverse unit would.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_prehashed`]; an inconsistent `sinv` simply
    /// fails verification.
    pub fn verify_prehashed_with_sinv(
        &self,
        digest: &[u8; 32],
        sig: &Signature,
        sinv: &U256,
    ) -> Result<(), EcdsaError> {
        let (u1, u2) = point_scalars(digest, sig, sinv)?;
        let precomp = self
            .precomp
            .scalar
            .get_or_init(|| KeyPrecomp::build(&self.point));
        let rp = mul_fixed_base(&u1).add(&precomp.mul(&u2));
        if rp.eq_x_mod_order(&sig.r) {
            Ok(())
        } else {
            Err(EcdsaError::InvalidSignature)
        }
    }

    /// The seed implementation of verification — bit-serial Shamir
    /// double-scalar ladder, Fermat inversions, long-division
    /// reductions — kept verbatim as the reference path. Randomized
    /// tests assert it agrees with [`Self::verify_prehashed`], and the
    /// validation benchmark reports the speedup of the new path against
    /// this one.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_prehashed`].
    #[doc(hidden)]
    pub fn verify_prehashed_shamir(
        &self,
        digest: &[u8; 32],
        sig: &Signature,
    ) -> Result<(), EcdsaError> {
        let c = p256();
        let n = &c.order;
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let z = U512::from_u256(&U256::from_be_bytes(digest)).rem(n);
        let fd = &c.fn_;
        let sm = fd.to_mont(&sig.s);
        let sinv = fd.inv_prime(&sm).expect("s nonzero");
        let u1 = fd.from_mont(&fd.mul(&sinv, &fd.to_mont(&z)));
        let u2 = fd.from_mont(&fd.mul(&sinv, &fd.to_mont(&sig.r)));
        let g = AffinePoint::generator().to_jacobian();
        let q = self.point.to_jacobian();
        let rp = JacobianPoint::shamir(&u1, &g, &u2, &q);
        if rp.is_identity() {
            return Err(EcdsaError::InvalidSignature);
        }
        let x = rp.to_affine().x.rem(n);
        if x == sig.r {
            Ok(())
        } else {
            Err(EcdsaError::InvalidSignature)
        }
    }
}

/// The range check on `(r, s)` and the two scalars verification
/// multiplies by: `u1 = z·s⁻¹` for the generator, `u2 = r·s⁻¹` for the
/// key, both below `n`.
fn point_scalars(
    digest: &[u8; 32],
    sig: &Signature,
    sinv: &U256,
) -> Result<(U256, U256), EcdsaError> {
    let c = p256();
    let n = &c.order;
    if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
        return Err(EcdsaError::InvalidScalar);
    }
    let z = bits2int(digest, n);
    // One domain entry for s⁻¹; multiplying the Montgomery residue
    // by the plain z and r yields the plain u1 and u2 directly.
    let fd = &c.fn_;
    let sinv_m = fd.to_mont(sinv);
    Ok((fd.mul(&sinv_m, &z), fd.mul(&sinv_m, &sig.r)))
}

/// One entry of [`verify_batch`]: what
/// [`VerifyingKey::verify_prehashed_with_sinv`] takes.
#[derive(Clone, Copy, Debug)]
pub struct BatchItem<'a> {
    /// The key the signature is checked against.
    pub key: &'a VerifyingKey,
    /// The message digest.
    pub digest: [u8; 32],
    /// The signature.
    pub sig: Signature,
    /// `s⁻¹ mod n`, from [`batch_s_inverses`].
    pub sinv: U256,
}

impl BatchItem<'_> {
    fn verify(&self) -> bool {
        self.key
            .verify_prehashed_with_sinv(&self.digest, &self.sig, &self.sinv)
            .is_ok()
    }
}

/// Signatures the lane kernel verifies in one pass. A caller that
/// spreads a list over threads hands [`verify_batch`] chunks of this
/// many; a pass costs the same whatever its fill.
pub const BATCH_LANES: usize = 8;

/// `verify_prehashed_with_sinv(..).is_ok()` for every item, in order.
///
/// On an `x86_64` processor that reports AVX-512 F and IFMA, chunks of
/// [`BATCH_LANES`] items go through the eight-lane kernel and only what
/// a lane leaves undecided (the exceptional cases of its addition
/// formula, an `r` with a second candidate) through the scalar path;
/// everywhere else every item does. The processor decides, per call;
/// nothing selects between them, and the verdicts are the scalar
/// path's either way. A key's first lane verification gives it a comb
/// if a place is free ([`VerifyingKey::has_comb`]).
pub fn verify_batch(items: &[BatchItem<'_>]) -> Vec<bool> {
    #[cfg(target_arch = "x86_64")]
    if crate::p256x8::available() {
        return items.chunks(BATCH_LANES).flat_map(verify_lanes).collect();
    }
    items.iter().map(BatchItem::verify).collect()
}

/// One pass of the lane kernel over at most [`BATCH_LANES`] items.
#[cfg(target_arch = "x86_64")]
fn verify_lanes(items: &[BatchItem<'_>]) -> Vec<bool> {
    use crate::p256x8::{verify8, Lane};
    // An out-of-range signature is refused here, as the scalar path
    // refuses it: its lane stays empty.
    let mut lanes: [Option<Lane<'_>>; BATCH_LANES] = Default::default();
    for (lane, item) in lanes.iter_mut().zip(items) {
        if let Ok((u1, u2)) = point_scalars(&item.digest, &item.sig, &item.sinv) {
            *lane = Some(Lane {
                table: item.key.precomp.lane_table(&item.key.point),
                u1,
                u2,
                r: item.sig.r,
            });
        }
    }
    let decided = verify8(&lanes).unwrap_or_default();
    items
        .iter()
        .enumerate()
        .map(|(l, item)| lanes[l].is_some() && decided[l].unwrap_or_else(|| item.verify()))
        .collect()
}

/// Computes `s⁻¹ mod n` for a whole block's worth of signatures with a
/// *single* modular inversion (Montgomery's trick) — the amortization
/// step of the batched verification pipeline. The result is positional:
/// `out[i]` feeds [`VerifyingKey::verify_prehashed_with_sinv`] for
/// `sigs[i]`. Out-of-range `s` values (zero or `≥ n`) yield a zero
/// entry, which downstream verification rejects as it would any wrong
/// inverse.
pub fn batch_s_inverses(sigs: &[Signature]) -> Vec<U256> {
    let c = p256();
    let n = &c.order;
    let fd = &c.fn_;
    let mut values: Vec<U256> = sigs
        .iter()
        .map(|sig| {
            if sig.s.is_zero() || &sig.s >= n {
                U256::ZERO
            } else {
                fd.to_mont(&sig.s)
            }
        })
        .collect();
    fd.batch_inv(&mut values);
    for v in values.iter_mut() {
        if !v.is_zero() {
            *v = fd.from_mont(v);
        }
    }
    values
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({:?})", self.point)
    }
}

impl Signature {
    /// Serializes as 64 raw bytes (`r || s`, big-endian).
    pub fn to_raw_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses the 64-byte raw form.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidScalar`] when either half is zero or
    /// `>= n`.
    pub fn from_raw_bytes(bytes: &[u8; 64]) -> Result<Self, EcdsaError> {
        let r = U256::from_be_bytes(&bytes[..32]);
        let s = U256::from_be_bytes(&bytes[32..]);
        let n = &p256().order;
        if r.is_zero() || &r >= n || s.is_zero() || &s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        Ok(Signature { r, s })
    }
}

/// RFC 6979 §2.3.2: convert a digest to an integer mod `n`. For P-256 with
/// SHA-256 both are 256 bits, so this is a plain reduction — and since
/// `n > 2^255`, any 256-bit digest is `< 2n` and one conditional
/// subtraction replaces the seed's 256-step long division.
fn bits2int(digest: &[u8; 32], n: &U256) -> U256 {
    U256::from_be_bytes(digest).reduce_once(n)
}

/// HMAC-DRBG nonce generator from RFC 6979 §3.2.
struct Rfc6979 {
    k: [u8; 32],
    v: [u8; 32],
}

impl Rfc6979 {
    fn new(x: &[u8; 32], digest: &[u8; 32]) -> Self {
        // h1 is reduced mod n per the RFC (bits2octets).
        let n = p256().order;
        let h_reduced = bits2int(digest, &n).to_be_bytes();
        let mut k = [0u8; 32];
        let mut v = [1u8; 32]; // V = 0x01 x 32
                               // K = HMAC_K(V || 0x00 || x || h1)
        let mut msg = Vec::with_capacity(32 + 1 + 32 + 32);
        msg.extend_from_slice(&v);
        msg.push(0x00);
        msg.extend_from_slice(x);
        msg.extend_from_slice(&h_reduced);
        k = hmac_sha256(&k, &msg);
        v = hmac_sha256(&k, &v);
        // K = HMAC_K(V || 0x01 || x || h1)
        let mut msg = Vec::with_capacity(32 + 1 + 32 + 32);
        msg.extend_from_slice(&v);
        msg.push(0x01);
        msg.extend_from_slice(x);
        msg.extend_from_slice(&h_reduced);
        k = hmac_sha256(&k, &msg);
        v = hmac_sha256(&k, &v);
        Rfc6979 { k, v }
    }

    fn next_candidate(&mut self) -> U256 {
        self.v = hmac_sha256(&self.k, &self.v);
        let candidate = U256::from_be_bytes(&self.v);
        // Prepare for a possible retry: K = HMAC_K(V || 0x00); V = HMAC_K(V)
        let mut msg = [0u8; 33];
        msg[..32].copy_from_slice(&self.v);
        self.k = hmac_sha256(&self.k, &msg);
        self.v = hmac_sha256(&self.k, &self.v);
        candidate
    }
}

/// Errors from key handling, signing and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdsaError {
    /// A scalar (`d`, `r`, or `s`) was zero or not below the group order.
    InvalidScalar,
    /// A public-key point failed to decode or validate.
    InvalidPoint(PointError),
    /// The signature did not verify against the key and digest.
    InvalidSignature,
}

impl fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdsaError::InvalidScalar => write!(f, "scalar out of range for P-256"),
            EcdsaError::InvalidPoint(e) => write!(f, "invalid public key point: {e}"),
            EcdsaError::InvalidSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for EcdsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    /// RFC 6979 appendix A.2.5 key pair for P-256.
    fn rfc6979_key() -> SigningKey {
        SigningKey::from_be_bytes(&hex32(
            "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
        ))
        .unwrap()
    }

    #[test]
    fn rfc6979_public_key_matches() {
        let k = rfc6979_key();
        assert_eq!(
            k.verifying_key().point().x_bytes(),
            hex32("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6")
        );
        assert_eq!(
            k.verifying_key().point().y_bytes(),
            hex32("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299")
        );
    }

    #[test]
    fn rfc6979_vector_sample() {
        // message = "sample", SHA-256
        let sig = rfc6979_key().sign(b"sample");
        assert_eq!(
            sig.r.to_be_bytes(),
            hex32("efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716")
        );
        assert_eq!(
            sig.s.to_be_bytes(),
            hex32("f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8")
        );
    }

    #[test]
    fn rfc6979_vector_test() {
        // message = "test", SHA-256
        let sig = rfc6979_key().sign(b"test");
        assert_eq!(
            sig.r.to_be_bytes(),
            hex32("f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367")
        );
        assert_eq!(
            sig.s.to_be_bytes(),
            hex32("019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083")
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::from_seed(b"roundtrip");
        let sig = key.sign(b"hello fabric");
        assert!(key.verifying_key().verify(b"hello fabric", &sig).is_ok());
    }

    #[test]
    fn tampered_message_fails() {
        let key = SigningKey::from_seed(b"tamper");
        let sig = key.sign(b"original");
        assert_eq!(
            key.verifying_key().verify(b"modified", &sig),
            Err(EcdsaError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(b"tamper2");
        let mut sig = key.sign(b"msg");
        sig.s = sig.s.wrapping_add(&U256::ONE);
        assert!(key.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let key1 = SigningKey::from_seed(b"key1");
        let key2 = SigningKey::from_seed(b"key2");
        let sig = key1.sign(b"msg");
        assert!(key2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn zero_scalar_rejected() {
        assert_eq!(
            SigningKey::from_scalar(U256::ZERO).unwrap_err(),
            EcdsaError::InvalidScalar
        );
        let n = p256().order;
        assert_eq!(
            SigningKey::from_scalar(n).unwrap_err(),
            EcdsaError::InvalidScalar
        );
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let key = SigningKey::from_seed(b"range");
        let digest = sha256(b"msg");
        let bad = Signature {
            r: U256::ZERO,
            s: U256::ONE,
        };
        assert_eq!(
            key.verifying_key().verify_prehashed(&digest, &bad),
            Err(EcdsaError::InvalidScalar)
        );
    }

    #[test]
    fn raw_bytes_roundtrip() {
        let key = SigningKey::from_seed(b"raw");
        let sig = key.sign(b"data");
        let bytes = sig.to_raw_bytes();
        assert_eq!(Signature::from_raw_bytes(&bytes).unwrap(), sig);
    }

    #[test]
    fn seeded_keys_are_deterministic() {
        let a = SigningKey::from_seed(b"org1.peer0");
        let b = SigningKey::from_seed(b"org1.peer0");
        assert_eq!(a.to_be_bytes(), b.to_be_bytes());
        let c = SigningKey::from_seed(b"org1.peer1");
        assert_ne!(a.to_be_bytes(), c.to_be_bytes());
    }

    #[test]
    fn fast_and_shamir_paths_agree() {
        let key = SigningKey::from_seed(b"agree");
        let digest = sha256(b"payload");
        let sig = key.sign_prehashed(&digest);
        let vk = key.verifying_key();
        assert!(vk.verify_prehashed(&digest, &sig).is_ok());
        assert!(vk.verify_prehashed_shamir(&digest, &sig).is_ok());
        // Corruptions fail identically on both paths.
        let mut bad = sig;
        bad.r = bad.r.wrapping_add(&U256::ONE);
        assert_eq!(
            vk.verify_prehashed(&digest, &bad).is_ok(),
            vk.verify_prehashed_shamir(&digest, &bad).is_ok()
        );
        let other = sha256(b"other payload");
        assert_eq!(
            vk.verify_prehashed(&other, &sig).is_ok(),
            vk.verify_prehashed_shamir(&other, &sig).is_ok()
        );
    }

    #[test]
    fn batched_sinv_verification_matches() {
        let keys: Vec<SigningKey> = (0..5)
            .map(|i| SigningKey::from_seed(format!("batch{i}").as_bytes()))
            .collect();
        let digests: Vec<[u8; 32]> = (0..5)
            .map(|i| sha256(format!("msg{i}").as_bytes()))
            .collect();
        let sigs: Vec<Signature> = keys
            .iter()
            .zip(&digests)
            .map(|(k, d)| k.sign_prehashed(d))
            .collect();
        let sinvs = batch_s_inverses(&sigs);
        for i in 0..5 {
            assert!(keys[i]
                .verifying_key()
                .verify_prehashed_with_sinv(&digests[i], &sigs[i], &sinvs[i])
                .is_ok());
            // Wrong sinv (from a different signature) must fail.
            let wrong = sinvs[(i + 1) % 5];
            assert!(keys[i]
                .verifying_key()
                .verify_prehashed_with_sinv(&digests[i], &sigs[i], &wrong)
                .is_err());
        }
    }

    #[test]
    fn cloned_keys_share_precomp_and_agree() {
        let key = SigningKey::from_seed(b"clone");
        let digest = sha256(b"m");
        let sig = key.sign_prehashed(&digest);
        let vk1 = key.verifying_key().clone();
        let vk2 = vk1.clone();
        assert!(vk1.verify_prehashed(&digest, &sig).is_ok());
        assert!(vk2.verify_prehashed(&digest, &sig).is_ok());
        assert_eq!(vk1, vk2);
    }

    /// Held by every test that fills or clears the precomp registry, or
    /// counts what it holds: the registry and the comb count are
    /// process-wide.
    static REGISTRY_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
        REGISTRY_TESTS.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Certificates are re-parsed on every block decode, so "parse,
    /// then verify" is the unit a key's table has to survive.
    #[test]
    fn keys_past_the_registry_cap_build_once_not_per_parse() {
        let _one_at_a_time = one_at_a_time();
        let builds = || PRECOMP_BUILDS.with(|n| n.get());
        let digest = sha256(b"registry");
        let signed: Vec<([u8; 65], Signature)> = (0..REGISTRY_CAP + 8)
            .map(|i| {
                let key = SigningKey::from_seed(format!("registry{i}").as_bytes());
                (
                    key.verifying_key().to_sec1_bytes(),
                    key.sign_prehashed(&digest),
                )
            })
            .collect();
        let parse_and_verify = |(sec1, sig): &([u8; 65], Signature)| {
            let vk = VerifyingKey::from_sec1_bytes(sec1).unwrap();
            assert!(vk.verify_prehashed(&digest, sig).is_ok());
        };
        // More keys than the registry holds, rotated through twice: the
        // worst case costs one build per key per rotation.
        let before = builds();
        for _ in 0..2 {
            signed.iter().for_each(parse_and_verify);
        }
        assert!(builds() - before <= 2 * signed.len());
        // The keys that arrived after the registry filled are a block's
        // endorsers from here on: one build each at most, however many
        // times they are parsed and verified.
        let late = &signed[REGISTRY_CAP..];
        let before = builds();
        for _ in 0..32 {
            late.iter().for_each(parse_and_verify);
        }
        assert!(
            builds() - before <= late.len(),
            "{} tables built for {} verifications of {} keys",
            builds() - before,
            32 * late.len(),
            late.len()
        );
    }

    #[test]
    fn sec1_roundtrip_verifying_key() {
        let key = SigningKey::from_seed(b"sec1");
        let vk = key.verifying_key();
        let parsed = VerifyingKey::from_sec1_bytes(&vk.to_sec1_bytes()).unwrap();
        assert_eq!(*vk, parsed);
    }

    /// 2 000 distinct keys, each verified once through the batch — the
    /// stream a channel with that many signers gives a peer — build at
    /// most the cap's worth of combs, the rest keep to their ladder
    /// tables, and the verdicts are the scalar path's.
    #[test]
    fn two_thousand_one_use_keys_build_at_most_the_cap_of_combs() {
        let _one_at_a_time = one_at_a_time();
        let before = precomp_stats().combs;
        let keys: Vec<SigningKey> = (0..2_000)
            .map(|i| SigningKey::from_seed(format!("one-use-{i}").as_bytes()))
            .collect();
        let signed: Vec<([u8; 32], Signature)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let digest = sha256(format!("one-use-{i}").as_bytes());
                let mut sig = key.sign_prehashed(&digest);
                if i % 7 == 3 {
                    sig.r.0[1] ^= 1 << (i % 64);
                }
                (digest, sig)
            })
            .collect();
        let sinvs = batch_s_inverses(&signed.iter().map(|(_, sig)| *sig).collect::<Vec<_>>());
        let items: Vec<BatchItem<'_>> = keys
            .iter()
            .zip(&signed)
            .zip(sinvs)
            .map(|((key, &(digest, sig)), sinv)| BatchItem {
                key: key.verifying_key(),
                digest,
                sig,
                sinv,
            })
            .collect();
        let expected: Vec<bool> = items.iter().map(BatchItem::verify).collect();
        assert_eq!(verify_batch(&items), expected);
        assert_eq!(expected.iter().filter(|&&v| !v).count(), 286);
        let combs = precomp_stats().combs;
        let with_comb = keys.iter().filter(|k| k.verifying_key().has_comb()).count();
        assert_eq!(combs - before, with_comb);
        assert!(combs <= 32);
        // The registry has long forgotten the first keys, which took the
        // places: their combs go with them.
        drop(items);
        drop(keys);
        assert_eq!(precomp_stats().combs, before);
    }

    /// The comb rule, where the lanes run: see
    /// [`PrecompSlot::lane_table`].
    #[cfg(target_arch = "x86_64")]
    mod combs {
        use super::*;

        /// A fresh key (its own registry slot) and one valid item for it.
        struct Fresh {
            key: SigningKey,
            digest: [u8; 32],
            sig: Signature,
            sinv: U256,
        }

        impl Fresh {
            fn new(tag: &str) -> Self {
                let key = SigningKey::from_seed(format!("combs-{tag}").as_bytes());
                let digest = sha256(tag.as_bytes());
                let sig = key.sign_prehashed(&digest);
                let sinv = batch_s_inverses(&[sig])[0];
                Fresh {
                    key,
                    digest,
                    sig,
                    sinv,
                }
            }

            fn item(&self) -> BatchItem<'_> {
                BatchItem {
                    key: self.key.verifying_key(),
                    digest: self.digest,
                    sig: self.sig,
                    sinv: self.sinv,
                }
            }

            /// One lane verification of the key, valid.
            fn verify(&self) {
                assert_eq!(verify_batch(&[self.item()]), [true]);
            }

            fn has_comb(&self) -> bool {
                self.key.verifying_key().has_comb()
            }
        }

        fn lanes_absent() -> bool {
            let absent = !crate::p256x8::available();
            if absent {
                eprintln!("no avx512ifma on this processor: no comb is built, test skipped");
            }
            absent
        }

        fn builds() -> usize {
            // relaxed: read after every builder has returned.
            COMB_BUILDS.load(Ordering::Relaxed)
        }

        /// Drops `keys` and clears the registry, so their combs go.
        fn forget(keys: Vec<Fresh>) {
            drop(keys);
            precomp_registry().lock().clear();
        }

        #[test]
        fn racing_first_uses_build_one_comb() {
            let _one_at_a_time = one_at_a_time();
            if lanes_absent() {
                return;
            }
            let key = Fresh::new("race");
            let (combs, built) = (precomp_stats().combs, builds());
            assert!(combs < COMB_CAP && !key.has_comb());
            // Eight threads verify the key at once: one of them builds,
            // the others wait for that comb.
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        start.wait();
                        key.verify();
                    });
                }
            });
            assert!(key.has_comb());
            assert_eq!((precomp_stats().combs, builds()), (combs + 1, built + 1));
            // From here on the comb answers, valid and invalid alike.
            let mut bad = key.item();
            bad.sig.s.0[0] ^= 4;
            bad.sinv = batch_s_inverses(&[bad.sig])[0];
            assert_eq!(verify_batch(&[key.item(), bad]), [true, false]);
            assert_eq!(builds(), built + 1);
            forget(vec![key]);
            assert_eq!(precomp_stats().combs, combs);
        }

        /// Keys that arrive one after another: the first take the free
        /// places, the rest keep to the ladder for as long as their
        /// slots live, and a freed place goes to the next new key.
        #[test]
        fn ten_more_keys_than_the_cap_never_pass_it() {
            let _one_at_a_time = one_at_a_time();
            if lanes_absent() {
                return;
            }
            let live = precomp_stats().combs;
            let keys: Vec<Fresh> = (0..COMB_CAP + 10)
                .map(|i| Fresh::new(&format!("cap-{i}")))
                .collect();
            for key in &keys {
                key.verify();
                assert!(precomp_stats().combs <= COMB_CAP);
            }
            let with_comb = |keys: &[Fresh]| keys.iter().filter(|k| k.has_comb()).count();
            assert_eq!(precomp_stats().combs, COMB_CAP);
            assert!(keys[..COMB_CAP - live].iter().all(Fresh::has_comb));
            assert_eq!(with_comb(&keys), COMB_CAP - live);
            // Five keys with a comb go; the waiting keys stay on the
            // ladder, five new keys take the places.
            let (gone, keys): (Vec<Fresh>, Vec<Fresh>) = {
                let mut seen = 0;
                keys.into_iter().partition(|k| {
                    let go = k.has_comb() && seen < 5;
                    seen += usize::from(go);
                    go
                })
            };
            forget(gone);
            assert_eq!(precomp_stats().combs, COMB_CAP - 5);
            keys.iter().for_each(Fresh::verify);
            assert_eq!(with_comb(&keys), COMB_CAP - live - 5);
            let late: Vec<Fresh> = (0..6).map(|i| Fresh::new(&format!("late-{i}"))).collect();
            late.iter().for_each(Fresh::verify);
            assert_eq!(with_comb(&late), 5);
            assert!(!late[5].has_comb());
            assert_eq!(precomp_stats().combs, COMB_CAP);
            forget(keys);
            forget(late);
            assert_eq!(precomp_stats().combs, live);
        }

        #[test]
        fn a_registry_clear_with_no_live_key_frees_the_combs() {
            let _one_at_a_time = one_at_a_time();
            if lanes_absent() {
                return;
            }
            let before = precomp_stats();
            let keys: Vec<Fresh> = ["clear-a", "clear-b"].map(Fresh::new).into();
            for key in &keys {
                key.verify();
                assert!(key.has_comb());
            }
            let with_combs = precomp_stats();
            assert_eq!(with_combs.combs, before.combs + 2);
            assert!(with_combs.keys >= 2);
            // A clear alone frees nothing a live key still holds...
            precomp_registry().lock().clear();
            assert_eq!(precomp_stats().combs, before.combs + 2);
            assert!(keys.iter().all(Fresh::has_comb));
            // ...and the last key gone frees its comb.
            drop(keys);
            assert_eq!(precomp_stats().combs, before.combs);
        }
    }
}
