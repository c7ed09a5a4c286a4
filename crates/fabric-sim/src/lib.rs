//! Discrete-event simulation core for performance modeling.
//!
//! The paper validated its results with "a high-level simulator for BMac
//! architecture ... The performance reported by our simulator is always
//! within 1% of actual measurements from the hardware" (§4.1). This crate
//! is the equivalent substrate: a typed event queue, multi-server
//! resources (ECDSA engines, vscc threads), FIFO occupancy tracking and
//! network links, in integer nanoseconds, plus [`gossip`], the wire model
//! the BMac protocol is compared against.

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// One microsecond in [`SimTime`] units.
pub const MICROS: SimTime = 1_000;
/// One millisecond in [`SimTime`] units.
pub const MILLIS: SimTime = 1_000_000;
/// One second in [`SimTime`] units.
pub const SECONDS: SimTime = 1_000_000_000;

/// Converts a [`SimTime`] to fractional milliseconds.
pub fn as_millis(t: SimTime) -> f64 {
    t as f64 / MILLIS as f64
}

/// Converts a [`SimTime`] to fractional microseconds.
pub fn as_micros(t: SimTime) -> f64 {
    t as f64 / MICROS as f64
}

/// Throughput in items/second given a count and a duration.
pub fn throughput_per_sec(items: u64, elapsed: SimTime) -> f64 {
    if elapsed == 0 {
        return 0.0;
    }
    items as f64 * SECONDS as f64 / elapsed as f64
}

/// A time-ordered event queue. Events with equal timestamps pop in
/// insertion order (stable), which keeps simulations deterministic.
///
/// ```
/// use fabric_sim::EventQueue;
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after *now*.
    pub fn schedule(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — a causality bug in the model.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the next event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// A pool of identical servers (ECDSA engines, vscc threads, DMA
/// channels). Jobs are placed on the earliest-available server — the
/// paper's `ends_scheduler` behaviour of issuing work "as soon as a free
/// ecdsa_engine instance is available".
#[derive(Debug, Clone)]
pub struct ServerPool {
    free_at: Vec<SimTime>,
    busy: SimTime,
    jobs: u64,
}

impl ServerPool {
    /// Creates a pool of `n` servers, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "server pool must have at least one server");
        ServerPool {
            free_at: vec![0; n],
            busy: 0,
            jobs: 0,
        }
    }

    /// Schedules a job that becomes ready at `ready` and takes `service`:
    /// returns `(start, finish)`. The job runs on the earliest-free
    /// server; `start = max(ready, earliest free time)`.
    pub fn run(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("pool is non-empty");
        let start = ready.max(free);
        let finish = start + service;
        self.free_at[idx] = finish;
        self.busy += service;
        self.jobs += 1;
        (start, finish)
    }

    /// Number of servers.
    pub fn size(&self) -> usize {
        self.free_at.len()
    }

    /// Total busy time accumulated across servers.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Jobs executed.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over `[0, horizon]` across all servers.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.busy as f64 / (horizon as f64 * self.free_at.len() as f64)
    }
}

/// A point-to-point network link with serialization (bandwidth) and
/// propagation (latency) delays. Transmissions queue behind each other —
/// the 1 Gbps links between the paper's VMs.
#[derive(Debug, Clone)]
pub struct NetLink {
    bits_per_sec: u64,
    latency: SimTime,
    free_at: SimTime,
    bytes_sent: u64,
}

impl NetLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn new(bits_per_sec: u64, latency: SimTime) -> Self {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        NetLink {
            bits_per_sec,
            latency,
            free_at: 0,
            bytes_sent: 0,
        }
    }

    /// A 1 Gbps / 100 µs-latency datacenter link (the paper's VM network).
    pub fn gigabit() -> Self {
        NetLink::new(1_000_000_000, 100 * MICROS)
    }

    /// Serialization delay for `bytes` at the link rate.
    pub fn serialization_delay(&self, bytes: usize) -> SimTime {
        (bytes as u128 * 8 * SECONDS as u128 / self.bits_per_sec as u128) as SimTime
    }

    /// Transmits `bytes` becoming ready at `ready`; returns the arrival
    /// time of the last bit at the receiver.
    pub fn transmit(&mut self, ready: SimTime, bytes: usize) -> SimTime {
        let start = ready.max(self.free_at);
        let done_sending = start + self.serialization_delay(bytes);
        self.free_at = done_sending;
        self.bytes_sent += bytes as u64;
        done_sending + self.latency
    }

    /// Total payload bytes pushed through the link.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Propagation latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }
}

pub mod gossip;

/// FIFO occupancy tracker: not a queue of items, but a depth counter with
/// a high-water mark, used to size the hardware FIFOs in Figure 7.
#[derive(Debug, Clone, Default)]
pub struct FifoGauge {
    depth: usize,
    high_water: usize,
    pushes: u64,
    pops: u64,
}

impl FifoGauge {
    /// Creates an empty gauge.
    pub fn new() -> Self {
        FifoGauge::default()
    }

    /// Records a push.
    pub fn push(&mut self) {
        self.depth += 1;
        self.high_water = self.high_water.max(self.depth);
        self.pushes += 1;
    }

    /// Records a pop.
    ///
    /// # Panics
    ///
    /// Panics on pop from an empty FIFO — a model bug.
    pub fn pop(&mut self) {
        assert!(self.depth > 0, "pop from empty FIFO");
        self.depth -= 1;
        self.pops += 1;
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Deepest occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total pushes.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }
}

/// Sample accumulator with mean and percentiles (Figure 9b's CDF).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics when no samples were recorded or `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        self.ensure_sorted();
        let rank = ((p / 100.0) * (self.values.len() as f64 - 1.0)).round() as usize;
        self.values[rank]
    }

    /// CDF points `(value, cumulative fraction)` at each sample.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.values.len() as f64;
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_events() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn queue_is_stable_for_ties() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        q.schedule(5, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn queue_clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.schedule(3, ());
        assert_eq!(q.pop().unwrap().0, 10);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn queue_rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    #[test]
    fn pool_runs_jobs_in_parallel() {
        let mut pool = ServerPool::new(2);
        let (s1, f1) = pool.run(0, 100);
        let (s2, f2) = pool.run(0, 100);
        let (s3, _) = pool.run(0, 100);
        assert_eq!((s1, f1), (0, 100));
        assert_eq!((s2, f2), (0, 100));
        assert_eq!(s3, 100); // third job waits for a server
        assert_eq!(pool.jobs(), 3);
        assert_eq!(pool.busy_time(), 300);
    }

    #[test]
    fn pool_respects_ready_time() {
        let mut pool = ServerPool::new(1);
        let (s, f) = pool.run(50, 10);
        assert_eq!((s, f), (50, 60));
        // ready before server free -> waits for the server
        let (s2, _) = pool.run(0, 10);
        assert_eq!(s2, 60);
    }

    #[test]
    fn pool_utilization() {
        let mut pool = ServerPool::new(2);
        pool.run(0, 100);
        pool.run(0, 100);
        assert!((pool.utilization(100) - 1.0).abs() < 1e-9);
        assert!((pool.utilization(200) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn link_serialization_and_latency() {
        let mut link = NetLink::new(1_000_000_000, 100 * MICROS);
        // 1250 bytes at 1 Gbps = 10 us serialization.
        assert_eq!(link.serialization_delay(1250), 10 * MICROS);
        let arrival = link.transmit(0, 1250);
        assert_eq!(arrival, 10 * MICROS + 100 * MICROS);
        // Next packet queues behind the first.
        let arrival2 = link.transmit(0, 1250);
        assert_eq!(arrival2, 20 * MICROS + 100 * MICROS);
        assert_eq!(link.bytes_sent(), 2500);
    }

    #[test]
    fn fifo_gauge_tracks_high_water() {
        let mut g = FifoGauge::new();
        g.push();
        g.push();
        g.pop();
        g.push();
        g.push();
        assert_eq!(g.depth(), 3);
        assert_eq!(g.high_water(), 3);
        assert_eq!(g.pushes(), 4);
    }

    #[test]
    #[should_panic(expected = "pop from empty")]
    fn fifo_gauge_underflow_panics() {
        FifoGauge::new().pop();
    }

    #[test]
    fn samples_percentiles() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(95.0), 95.0);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 100);
        assert!((cdf[49].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_helper() {
        assert!((throughput_per_sec(1000, SECONDS) - 1000.0).abs() < 1e-9);
        assert_eq!(throughput_per_sec(5, 0), 0.0);
    }
}
