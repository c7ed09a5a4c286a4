//! In-memory spans around the harness's own calls into each layer.
//!
//! Every thread of the harness owns a [`SpanLog`]; nothing is shared
//! while a workload runs. The harness takes the two `Instant`s around a
//! call whether or not tracing is on (the per-layer sums need them), so
//! what tracing adds is the recording itself. An enabled log times that
//! with two more clock reads per span, and `trace.overhead_share` is
//! that time over the rest of the run's timed wall. Logs are merged and
//! written out as JSON lines when the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `bmac.send_block`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Name of the span that caused this one (`""` for a root). Spans
    /// of one block or transaction share `id`, so `(parent, id)`
    /// identifies the parent span.
    pub parent: &'static str,
    /// Block number or transaction index the call worked on.
    pub id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Time spent recording, clock reads included.
    cost_ns: u64,
}

impl SpanLog {
    /// A log whose times count from `epoch`; records only when
    /// `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        SpanLog {
            epoch,
            enabled,
            spans: Vec::new(),
            cost_ns: 0,
        }
    }

    /// Records the call `[start, end]`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let t0 = Instant::now();
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + end.duration_since(start).as_nanos() as u64,
                parent,
                id,
            });
            self.cost_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Records a child whose duration a layer reported itself (the
    /// `StageTimings` of a block): placed back to back from `*cursor`,
    /// which is advanced past it.
    pub fn record_reported(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        cursor: &mut u64,
        duration_ns: u64,
    ) {
        if self.enabled {
            let t0 = Instant::now();
            self.spans.push(Span {
                name,
                start_ns: *cursor,
                end_ns: *cursor + duration_ns,
                parent,
                id,
            });
            *cursor += duration_ns;
            self.cost_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn append(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
        self.cost_ns += other.cost_ns;
    }

    /// Seconds spent recording so far, over every log appended.
    pub fn cost_s(&self) -> f64 {
        self.cost_ns as f64 / 1e9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"{}\",\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id
            )?;
        }
        out.flush()
    }

    /// Total self time per span name: each span's duration minus the
    /// part of it its children cover. Sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        self_times(&self.spans)
    }
}

/// See [`SpanLog::self_times`].
fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    use std::collections::BTreeMap;
    // Children grouped under the (name, id) of their parent.
    let mut children: BTreeMap<(&str, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        children
            .entry((s.parent, s.id))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&(s.name, s.id))
            .map_or(0, |kids| covered_within(kids, s.start_ns, s.end_ns));
        *totals.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered);
    }
    totals.into_iter().collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`:
/// overlapping children (parallel lanes) are not counted twice.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, id: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("block", "", 7, 0, 100),
            span("vscc", "block", 7, 10, 60),
            span("mvcc", "block", 7, 60, 70),
            // A different block's child must not be charged to block 7.
            span("vscc", "block", 8, 0, 1_000),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![("block", 40), ("mvcc", 10), ("vscc", 1_050)]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("p", "", 0, 100, 200),
            span("a", "p", 0, 90, 150),  // starts before the parent
            span("b", "p", 0, 140, 180), // overlaps a
            span("c", "p", 0, 190, 260), // ends after the parent
        ];
        let t = self_times(&spans);
        // Cover = [100,180] ∪ [190,200] = 90.
        assert_eq!(t[3], ("p", 10));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, false);
        log.record("x", "", 0, epoch, Instant::now());
        let mut cursor = 0;
        log.record_reported("y", "x", 0, &mut cursor, 5);
        assert_eq!(log.len(), 0);
        assert_eq!(cursor, 0);
        assert_eq!(log.cost_s(), 0.0);
    }

    #[test]
    fn recording_cost_is_timed_and_survives_a_merge() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, true);
        let mut other = SpanLog::new(epoch, true);
        for i in 0..1_000 {
            log.record("x", "", i, epoch, epoch);
            other.record("y", "", i, epoch, epoch);
        }
        let (own, merged) = (log.cost_s(), other.cost_s());
        assert!(own > 0.0 && merged > 0.0);
        log.append(other);
        assert_eq!(log.len(), 2_000);
        assert!((log.cost_s() - (own + merged)).abs() < 1e-12);
    }

    #[test]
    fn reported_children_lie_back_to_back() {
        let mut log = SpanLog::new(Instant::now(), true);
        let mut cursor = 1_000;
        log.record_reported("a", "p", 1, &mut cursor, 30);
        log.record_reported("b", "p", 1, &mut cursor, 12);
        assert_eq!(cursor, 1_042);
        assert_eq!(log.spans[1].start_ns, 1_030);
        assert_eq!(log.spans[1].end_ns, 1_042);
    }
}
