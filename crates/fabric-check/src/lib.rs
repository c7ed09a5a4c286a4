//! Concurrency-analysis layer for the workspace's lock-based core.
//!
//! Two halves share this crate:
//!
//! * **Runtime** (this module): a process-wide lock-order graph fed by
//!   the `parking_lot` shim when its `check-sync` feature is compiled
//!   in *and* checking is enabled at runtime (`FABRIC_CHECK_SYNC=1` or
//!   [`enable`]). Locks are keyed by allocation-site label (the
//!   `named()` constructor); every acquisition made while other locks
//!   are held adds `held → acquiring` edges, an online cycle detector
//!   panics on any lock-order inversion with both conflicting
//!   acquisition stacks, and edges between two named locks must be
//!   declared in the `LOCK_ORDER.txt` manifest. A seeded perturbation
//!   mode (`FABRIC_CHECK_SEED`) injects random pre-acquisition yields
//!   and short sleeps to shake out interleavings a lightly loaded CI
//!   host never schedules; the seed is echoed in every failure for
//!   replay.
//!
//! * **Static** ([`lint`] + the `repo_lint` binary): a lexical,
//!   dependency-free scan of workspace sources for the defect classes
//!   this repo has already paid for (truncating casts, hot-path
//!   `unwrap()`, unjustified `Ordering::Relaxed`) plus consistency
//!   checks of the `LOCK_ORDER.txt` manifest against the labels
//!   actually present in source, and of the `LAYERS.txt` manifest
//!   against the crates' `[dependencies]`.
//!
//! This crate is deliberately std-only: the `parking_lot` shim depends
//! on it, so it must sit below every lock in the workspace and must not
//! use the shim itself (its own internals use `std::sync` directly,
//! which the checker does not instrument — no recursion).
//!
//! # Lock-naming convention
//!
//! Labels are `crate.site` (e.g. `statedb.shard`, `peer.stream.state`).
//! Every instance constructed with the same label shares one graph
//! node: the 16 statedb shards are one `statedb.shard` node, so an
//! order violated between any two shards is still a cycle. Labels
//! beginning with `test.` are exempt from manifest declaration (test
//! fixtures invent orders freely) but still cycle-checked.

pub mod lint;

use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Duration;

/// The checked lock-order manifest, compiled into the binary so the
/// runtime checker and the repo lint can never drift apart.
pub const LOCK_ORDER_MANIFEST: &str = include_str!("../LOCK_ORDER.txt");

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: Once = Once::new();

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("FABRIC_CHECK_SYNC") {
            let v = v.trim();
            if v == "1" || v.eq_ignore_ascii_case("true") {
                ENABLED.store(true, Ordering::SeqCst);
            }
        }
        if let Ok(v) = std::env::var("FABRIC_CHECK_SEED") {
            if let Ok(s) = v.trim().parse::<u64>() {
                SEED.store(s, Ordering::SeqCst);
            }
        }
    });
}

/// Whether runtime checking is on. This is the instrumented shim's fast
/// path: one `Once` completion check plus one atomic load when off.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns runtime checking on for the current process (tests and the
/// bench harness call this; CI sets `FABRIC_CHECK_SYNC=1` instead).
pub fn enable() {
    init_from_env();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns runtime checking off. Locks acquired while enabled are still
/// released correctly afterwards (release tracking rides on the guard
/// token, not on this flag).
pub fn disable() {
    init_from_env();
    ENABLED.store(false, Ordering::SeqCst);
}

/// Sets the schedule-perturbation seed. `0` disables perturbation.
/// Threads derive their decision stream lazily, so set the seed before
/// spawning the workload.
pub fn set_seed(seed: u64) {
    init_from_env();
    SEED.store(seed, Ordering::SeqCst);
}

/// The active perturbation seed (`0` = perturbation off).
pub fn current_seed() -> u64 {
    init_from_env();
    SEED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Lock identity
// ---------------------------------------------------------------------------

/// Identity of one lock as seen by the checker. Embedded by the
/// `parking_lot` shim into every `Mutex`/`RwLock` when `check-sync` is
/// compiled in. Named tags resolve to a shared per-label node; unnamed
/// tags get a private per-instance node on first acquisition.
#[derive(Debug)]
pub struct LockTag {
    label: Option<&'static str>,
    node: AtomicPtr<NodeInfo>,
}

impl LockTag {
    /// An anonymous tag (per-instance graph node).
    pub const fn new() -> Self {
        LockTag {
            label: None,
            node: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// A named tag: all instances with this label share one graph node.
    pub const fn named(label: &'static str) -> Self {
        LockTag {
            label: Some(label),
            node: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

impl Default for LockTag {
    fn default() -> Self {
        LockTag::new()
    }
}

/// Acquisition mode, for diagnostics and same-instance relock checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Mutex::lock` / `RwLock::write`.
    Exclusive,
    /// `RwLock::read`.
    Shared,
}

#[derive(Debug)]
struct NodeInfo {
    id: u32,
    label: &'static str,
    named: bool,
}

// ---------------------------------------------------------------------------
// Global graph
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Graph {
    nodes: Vec<&'static NodeInfo>,
    by_label: HashMap<&'static str, &'static NodeInfo>,
    /// Adjacency: observed `held → acquiring` orderings.
    out: HashMap<u32, Vec<u32>>,
    /// First-seen acquisition backtrace per edge, kept so a later
    /// inversion can print *both* conflicting acquisition stacks.
    sites: HashMap<(u32, u32), String>,
}

fn graph() -> MutexGuard<'static, Graph> {
    static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
    match GRAPH.get_or_init(Default::default).lock() {
        Ok(g) => g,
        // A checker panic while holding the graph poisons it; later
        // threads still need coherent diagnostics.
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct ManifestData {
    edges: HashSet<(String, String)>,
}

fn manifest() -> &'static ManifestData {
    static PARSED: OnceLock<ManifestData> = OnceLock::new();
    PARSED.get_or_init(|| {
        let parsed = lint::parse_manifest(LOCK_ORDER_MANIFEST)
            .expect("LOCK_ORDER.txt failed to parse; run repo_lint");
        ManifestData {
            edges: parsed.edges.into_iter().collect(),
        }
    })
}

fn manifest_exempt(label: &str) -> bool {
    label.starts_with("test.")
}

fn node_for(tag: &LockTag) -> &'static NodeInfo {
    let cached = tag.node.load(Ordering::Acquire);
    if !cached.is_null() {
        // SAFETY: a non-null `tag.node` was stored by the CAS below from
        // a `&'static NodeInfo` that `alloc_node` leaked, so it points
        // to a live, never-freed, never-mutated `NodeInfo`.
        return unsafe { &*cached };
    }
    let node = {
        let mut g = graph();
        match tag.label {
            Some(label) => {
                if let Some(n) = g.by_label.get(label) {
                    *n
                } else {
                    let n = alloc_node(&mut g, label, true);
                    g.by_label.insert(label, n);
                    n
                }
            }
            None => {
                let id = g.nodes.len() as u32;
                let label: &'static str = Box::leak(format!("anon#{id}").into_boxed_str());
                alloc_node(&mut g, label, false)
            }
        }
    };
    let ptr = node as *const NodeInfo as *mut NodeInfo;
    // Two threads racing an anonymous tag's first acquisition both
    // allocate; the CAS loser adopts the winner's node (one NodeInfo
    // leaks, bounded by the race count).
    match tag.node.compare_exchange(
        std::ptr::null_mut(),
        ptr,
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        Ok(_) => node,
        // SAFETY: the CAS expects null, so a failure returns the non-null
        // pointer another thread stored — from its own leaked
        // `&'static NodeInfo`, as above.
        Err(existing) => unsafe { &*existing },
    }
}

fn alloc_node(g: &mut Graph, label: &'static str, named: bool) -> &'static NodeInfo {
    let n: &'static NodeInfo = Box::leak(Box::new(NodeInfo {
        id: g.nodes.len() as u32,
        label,
        named,
    }));
    g.nodes.push(n);
    n
}

// ---------------------------------------------------------------------------
// Per-thread state
// ---------------------------------------------------------------------------

struct HeldEntry {
    node: &'static NodeInfo,
    instance: usize,
    acq_id: u64,
    mode: Mode,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    /// Edges this thread has already pushed through the global graph;
    /// repeat acquisitions skip the global lock entirely.
    static EDGE_CACHE: RefCell<HashSet<(u32, u32)>> = RefCell::new(HashSet::new());
    static RNG: Cell<u64> = const { Cell::new(0) };
}

static ACQ_COUNTER: AtomicU64 = AtomicU64::new(0);
static THREAD_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Pending acquisition: order-checked but not yet holding the lock.
#[derive(Debug)]
pub struct Pending {
    node: &'static NodeInfo,
    instance: usize,
    mode: Mode,
}

/// Proof of a tracked held lock; released from the guard's `Drop`.
#[derive(Debug)]
pub struct HeldToken {
    acq_id: u64,
}

/// A lock temporarily released around a condvar wait; [`reacquire`]
/// re-registers it (re-running the order checks) on wake-up.
#[derive(Debug)]
pub struct ReacquireTicket {
    node: &'static NodeInfo,
    instance: usize,
    mode: Mode,
}

/// Pre-acquisition hook: perturbs the schedule, resolves the lock's
/// graph node, and runs the self-relock / manifest / cycle checks.
/// Returns `None` when checking is disabled.
pub fn before_acquire(tag: &LockTag, mode: Mode) -> Option<Pending> {
    if !enabled() {
        return None;
    }
    perturb();
    let node = node_for(tag);
    let instance = tag as *const LockTag as usize;
    check_order(node, instance, mode);
    Some(Pending {
        node,
        instance,
        mode,
    })
}

/// Post-acquisition hook: pushes the lock onto the thread's held stack.
pub fn after_acquire(p: Pending) -> HeldToken {
    push_held(p.node, p.instance, p.mode)
}

fn push_held(node: &'static NodeInfo, instance: usize, mode: Mode) -> HeldToken {
    let acq_id = ACQ_COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
    HELD.with(|h| {
        h.borrow_mut().push(HeldEntry {
            node,
            instance,
            acq_id,
            mode,
        });
    });
    HeldToken { acq_id }
}

/// Release hook, from guard `Drop`. Guards may drop in any order, so
/// the entry is located by acquisition id, not stack position.
pub fn release(t: HeldToken) {
    pop_held(t);
}

/// Releases a held lock around a condvar wait, returning a ticket to
/// [`reacquire`] it after wake-up.
pub fn condvar_release(t: HeldToken) -> Option<ReacquireTicket> {
    pop_held(t).map(|e| ReacquireTicket {
        node: e.node,
        instance: e.instance,
        mode: e.mode,
    })
}

/// Re-registers a lock released by [`condvar_release`]: the wake-up
/// reacquisition can deadlock like any other, so the full order check
/// runs again.
pub fn reacquire(t: ReacquireTicket) -> HeldToken {
    perturb();
    check_order(t.node, t.instance, t.mode);
    push_held(t.node, t.instance, t.mode)
}

fn pop_held(t: HeldToken) -> Option<HeldEntry> {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        let pos = held.iter().rposition(|e| e.acq_id == t.acq_id)?;
        Some(held.remove(pos))
    })
}

/// Whether the current thread holds a lock with this label. Used by
/// `check-sync` runtime assertions (e.g. the statedb journal-order
/// invariant: records must be emitted under `statedb.order`).
pub fn holding(label: &str) -> bool {
    if !enabled() {
        return false;
    }
    HELD.with(|h| h.borrow().iter().any(|e| e.node.label == label))
}

/// Labels currently held by this thread, innermost last (diagnostics).
pub fn held_labels() -> Vec<&'static str> {
    HELD.with(|h| h.borrow().iter().map(|e| e.node.label).collect())
}

// ---------------------------------------------------------------------------
// Order checking
// ---------------------------------------------------------------------------

fn check_order(node: &'static NodeInfo, instance: usize, mode: Mode) {
    let new_from: Vec<&'static NodeInfo> = HELD.with(|h| {
        let held = h.borrow();
        if held.is_empty() {
            return Vec::new();
        }
        for e in held.iter() {
            if e.instance == instance {
                let msg = format!(
                    "fabric-check: same-thread relock of `{}` ({:?} while already held {:?}): \
                     guaranteed or platform-dependent deadlock{}",
                    node.label,
                    mode,
                    e.mode,
                    seed_note(),
                );
                panic!("{msg}");
            }
            if e.node.id == node.id {
                let msg = format!(
                    "fabric-check: nested acquisition of two `{}` instances on one thread: \
                     no instance order is declared for this label, so opposite nesting on \
                     another thread would deadlock{}",
                    node.label,
                    seed_note(),
                );
                panic!("{msg}");
            }
        }
        EDGE_CACHE.with(|c| {
            let cache = c.borrow();
            held.iter()
                .filter(|e| !cache.contains(&(e.node.id, node.id)))
                .map(|e| e.node)
                .collect()
        })
    });
    if !new_from.is_empty() {
        register_edges(&new_from, node);
    }
}

fn register_edges(from_nodes: &[&'static NodeInfo], to: &'static NodeInfo) {
    let mut site: Option<String> = None;
    let mut g = graph();
    for from in from_nodes {
        let known = g
            .out
            .get(&from.id)
            .is_some_and(|succ| succ.contains(&to.id));
        if !known {
            let site = site
                .get_or_insert_with(|| Backtrace::force_capture().to_string())
                .clone();
            if from.named
                && to.named
                && !manifest_exempt(from.label)
                && !manifest_exempt(to.label)
                && !manifest()
                    .edges
                    .contains(&(from.label.to_string(), to.label.to_string()))
            {
                let msg = format!(
                    "fabric-check: UNDECLARED lock order `{}` -> `{}` (acquiring `{to_l}` \
                     while holding `{from_l}`).\nEvery order between named locks must be \
                     declared in crates/fabric-check/LOCK_ORDER.txt.{seed}\n\
                     acquisition stack:\n{site}",
                    from.label,
                    to.label,
                    to_l = to.label,
                    from_l = from.label,
                    seed = seed_note(),
                )
                .to_string();
                drop(g);
                panic!("{msg}");
            }
            if let Some(path) = find_path(&g, to.id, from.id) {
                let msg = render_cycle(&g, from, to, &path, &site);
                drop(g);
                panic!("{msg}");
            }
            g.out.entry(from.id).or_default().push(to.id);
            g.sites.insert((from.id, to.id), site);
        }
        EDGE_CACHE.with(|c| {
            c.borrow_mut().insert((from.id, to.id));
        });
    }
}

/// DFS for a path `start → … → goal` over observed edges.
fn find_path(g: &Graph, start: u32, goal: u32) -> Option<Vec<u32>> {
    let mut stack = vec![vec![start]];
    let mut visited = HashSet::new();
    visited.insert(start);
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("path never empty");
        if last == goal {
            return Some(path);
        }
        if let Some(succ) = g.out.get(&last) {
            for &next in succ {
                if visited.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push(p);
                }
            }
        }
    }
    None
}

fn render_cycle(g: &Graph, from: &NodeInfo, to: &NodeInfo, path: &[u32], site: &str) -> String {
    let mut msg = format!(
        "fabric-check: LOCK-ORDER INVERSION: acquiring `{}` while holding `{}`, but the \
         reverse order was already observed.{}\n\nthis acquisition (`{}` -> `{}`):\n{}\n",
        to.label,
        from.label,
        seed_note(),
        from.label,
        to.label,
        site,
    );
    for pair in path.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let la = g.nodes[a as usize].label;
        let lb = g.nodes[b as usize].label;
        let prior = g
            .sites
            .get(&(a, b))
            .map(String::as_str)
            .unwrap_or("<no stack recorded>");
        msg.push_str(&format!(
            "\nconflicting prior acquisition (`{la}` -> `{lb}`), first observed at:\n{prior}\n"
        ));
    }
    msg
}

fn seed_note() -> String {
    let seed = SEED.load(Ordering::Relaxed);
    if seed == 0 {
        String::new()
    } else {
        format!(" [replay with FABRIC_CHECK_SEED={seed}]")
    }
}

// ---------------------------------------------------------------------------
// Perturbation
// ---------------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn rng_init(seed: u64, thread_index: u64) -> u64 {
    let s = splitmix64(seed ^ splitmix64(thread_index.wrapping_add(1)));
    if s == 0 {
        0x9e3779b97f4a7c15
    } else {
        s
    }
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One perturbation decision: 0 = none, 1 = yield, 2.. = sleep for
/// `(d - 1)` microseconds.
fn perturb_decision(state: &mut u64) -> u64 {
    let r = xorshift64(state);
    match r % 64 {
        0..=5 => 1,
        6 => 2 + ((r >> 8) % 50),
        _ => 0,
    }
}

fn perturb() {
    let seed = SEED.load(Ordering::Relaxed);
    if seed == 0 {
        return;
    }
    let d = RNG.with(|c| {
        let mut s = c.get();
        if s == 0 {
            s = rng_init(seed, THREAD_COUNTER.fetch_add(1, Ordering::Relaxed));
        }
        let d = perturb_decision(&mut s);
        c.set(s);
        d
    });
    match d {
        0 => {}
        1 => std::thread::yield_now(),
        us => std::thread::sleep(Duration::from_micros(us - 1)),
    }
}

/// The deterministic perturbation decision stream a thread with index
/// `thread_index` derives from `seed` — replaying a seed replays these
/// decisions exactly (scheduling around them remains OS-controlled).
/// Decision encoding matches the runtime: 0 none, 1 yield, 2.. sleep.
pub fn perturb_trace(seed: u64, thread_index: u64, n: usize) -> Vec<u64> {
    let mut s = rng_init(seed, thread_index);
    (0..n).map(|_| perturb_decision(&mut s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Tests share the process-global enable flag and graph; serialize
    /// them so `disable()` in one cannot race another's acquisitions.
    fn test_lock() -> MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        match L.get_or_init(Default::default).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn acquire(tag: &LockTag, mode: Mode) -> HeldToken {
        let p = before_acquire(tag, mode).expect("checking enabled");
        after_acquire(p)
    }

    #[test]
    fn abba_cycle_panics_with_both_labels() {
        let _serial = test_lock();
        enable();
        let a = LockTag::named("test.cycle_a");
        let b = LockTag::named("test.cycle_b");
        // Establish a -> b.
        let ha = acquire(&a, Mode::Exclusive);
        let hb = acquire(&b, Mode::Exclusive);
        release(hb);
        release(ha);
        // Reverse order must be rejected at edge-creation time, before
        // any real blocking could happen.
        let hb = acquire(&b, Mode::Exclusive);
        let err = catch_unwind(AssertUnwindSafe(|| {
            before_acquire(&a, Mode::Exclusive);
        }))
        .expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("LOCK-ORDER INVERSION"), "msg: {msg}");
        assert!(msg.contains("test.cycle_a"), "msg: {msg}");
        assert!(msg.contains("test.cycle_b"), "msg: {msg}");
        assert!(msg.contains("acquisition"), "msg: {msg}");
        release(hb);
    }

    #[test]
    fn transitive_cycle_detected() {
        let _serial = test_lock();
        enable();
        let a = LockTag::named("test.tri_a");
        let b = LockTag::named("test.tri_b");
        let c = LockTag::named("test.tri_c");
        for (x, y) in [(&a, &b), (&b, &c)] {
            let hx = acquire(x, Mode::Exclusive);
            let hy = acquire(y, Mode::Exclusive);
            release(hy);
            release(hx);
        }
        let hc = acquire(&c, Mode::Exclusive);
        let err = catch_unwind(AssertUnwindSafe(|| {
            before_acquire(&a, Mode::Exclusive);
        }))
        .expect_err("transitive inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("test.tri_a") && msg.contains("test.tri_c"),
            "msg: {msg}"
        );
        release(hc);
    }

    #[test]
    fn same_instance_relock_panics() {
        let _serial = test_lock();
        enable();
        let a = LockTag::named("test.relock");
        let ha = acquire(&a, Mode::Exclusive);
        let err = catch_unwind(AssertUnwindSafe(|| {
            before_acquire(&a, Mode::Exclusive);
        }))
        .expect_err("self-relock must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("relock"), "msg: {msg}");
        release(ha);
    }

    #[test]
    fn same_label_instance_nesting_panics() {
        let _serial = test_lock();
        enable();
        let a1 = LockTag::named("test.shardlike");
        let a2 = LockTag::named("test.shardlike");
        let h1 = acquire(&a1, Mode::Exclusive);
        let err = catch_unwind(AssertUnwindSafe(|| {
            before_acquire(&a2, Mode::Exclusive);
        }))
        .expect_err("same-label nesting must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("test.shardlike"), "msg: {msg}");
        release(h1);
    }

    #[test]
    fn holding_reflects_thread_stack() {
        let _serial = test_lock();
        enable();
        assert!(!holding("test.holding"));
        let a = LockTag::named("test.holding");
        let ha = acquire(&a, Mode::Exclusive);
        assert!(holding("test.holding"));
        assert!(held_labels().contains(&"test.holding"));
        release(ha);
        assert!(!holding("test.holding"));
    }

    #[test]
    fn condvar_release_and_reacquire_roundtrip() {
        let _serial = test_lock();
        enable();
        let a = LockTag::named("test.cv");
        let ha = acquire(&a, Mode::Exclusive);
        let ticket = condvar_release(ha).expect("was held");
        assert!(!holding("test.cv"));
        let ha = reacquire(ticket);
        assert!(holding("test.cv"));
        release(ha);
    }

    #[test]
    fn out_of_order_release_is_fine() {
        let _serial = test_lock();
        enable();
        let a = LockTag::named("test.ooo_a");
        let b = LockTag::named("test.ooo_b");
        let ha = acquire(&a, Mode::Exclusive);
        let hb = acquire(&b, Mode::Exclusive);
        release(ha); // drop outer first
        assert!(holding("test.ooo_b"));
        release(hb);
        assert!(held_labels().is_empty());
    }

    #[test]
    fn perturb_trace_is_deterministic_per_seed() {
        let _serial = test_lock();
        let t1 = perturb_trace(42, 0, 256);
        let t2 = perturb_trace(42, 0, 256);
        assert_eq!(t1, t2);
        let t3 = perturb_trace(43, 0, 256);
        assert_ne!(t1, t3, "different seeds should diverge within 256 draws");
        let t4 = perturb_trace(42, 1, 256);
        assert_ne!(t1, t4, "threads derive distinct streams");
        // All three action classes occur in a modest window.
        assert!(t1.contains(&0) && t1.contains(&1) && t1.iter().any(|&d| d >= 2));
    }

    #[test]
    fn disabled_checker_is_inert() {
        let _serial = test_lock();
        // Uses its own tag; even if another test enabled checking, a
        // disabled window must return None.
        disable();
        let a = LockTag::named("test.inert");
        assert!(before_acquire(&a, Mode::Exclusive).is_none());
        assert!(!holding("test.inert"));
        enable();
    }
}
