//! The metric tables (mirrored by `BENCHMARK.json`) and the result line
//! the driver reads.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Each workload reports all of them; the README says what each means
/// on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_tps", "tx/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.verify_us", "us"),
    ("crypto.sha256_mb_per_s", "MB/s"),
    ("crypto.verifications_per_tx", "count"),
    ("sigcache.hit_rate", "ratio"),
    ("sigcache.misses", "count"),
    ("protos.decode_us_per_block", "us"),
    ("protos.block_bytes_per_tx", "B"),
    ("policy.eval_ns", "ns"),
    ("bmac.send_us_per_block", "us"),
    ("bmac.recv_us_per_block", "us"),
    ("bmac.packets_per_block", "count"),
    ("bmac.savings", "ratio"),
    ("bmac.wire_bytes_per_tx", "B"),
    ("peer.unmarshal_us_per_block", "us"),
    ("peer.block_verify_us_per_block", "us"),
    ("peer.vscc_us_per_block", "us"),
    ("peer.mvcc_us_per_block", "us"),
    ("peer.statedb_commit_us_per_block", "us"),
    ("peer.ledger_us_per_block", "us"),
    ("peer.verify_occupancy", "ratio"),
    ("peer.commit_occupancy", "ratio"),
    ("peer.overlap_factor", "ratio"),
    ("peer.max_in_flight", "count"),
    ("peer.queue_wait_ms_p50", "ms"),
    ("mempool.admit_us_p50", "us"),
    ("mempool.admit_us_p99", "us"),
    ("mempool.verify_us_per_tx", "us"),
    ("mempool.verify_busy_share", "ratio"),
    ("mempool.queue_wait_ms_p50", "ms"),
    ("mempool.dedup_hits", "count"),
    ("mempool.shed", "count"),
    ("mempool.invalid", "count"),
    ("orderer.ingest_us_per_block", "us"),
    ("orderer.batch_wait_ms_p50", "ms"),
    ("orderer.txs_per_block", "count"),
    ("statedb.apply_us_per_block", "us"),
    ("statedb.get_ns_p50", "ns"),
    ("statedb.reads_per_s", "1/s"),
    ("statedb.pin_us", "us"),
    ("statedb.range100_us", "us"),
    ("statedb.preload_keys_per_s", "1/s"),
    ("statedb.keys", "count"),
    ("ledger.commit_us_per_block", "us"),
    ("store.append_us_per_block", "us"),
    ("store.flush_ms", "ms"),
    ("store.open_s", "s"),
    ("store.journal_bytes_per_tx", "B"),
    ("store.segment_bytes_per_tx", "B"),
    ("store.disk_bytes_per_tx", "B"),
    ("loadgen.feeder_busy_share", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.watch_poll_us", "us"),
    ("probe.serial_replay_ms", "ms"),
    ("probe.stage_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("host.cpus", "count"),
    ("host.cpu_busy_share", "ratio"),
    ("host.calib_ns", "ns"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists or a non-finite value:
    /// both are harness bugs that would otherwise surface as a result
    /// the driver refuses.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in neither table"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` of every end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics when one was never set: every workload must measure all
    /// of them, and a 0 would read as a result.
    pub fn end_to_end_rows(&self) -> Vec<Row> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }

    /// `(name, value, unit)` of every per-layer metric; 0 for a layer
    /// the workload did not exercise.
    pub fn per_layer_rows(&self) -> Vec<Row> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

pub type Row = (&'static str, f64, &'static str);

/// The one-line JSON result: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[("latency_ms", 1.2034, "ms"), ("n", 3.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn small_values_keep_their_digits_without_an_exponent() {
        let line = result_line(false, 1, 1, &[("t", 0.000000412, "ms")]);
        assert!(line.contains("\"value\": 0.000000412,"), "{line}");
    }

    #[test]
    fn unexercised_layers_read_zero_but_end_to_end_must_be_set() {
        let mut m = Metrics::default();
        m.set("host.cpus", 2.0);
        let rows = m.per_layer_rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("host.cpus", 2.0, "count")));
        assert!(rows.contains(&("statedb.keys", 0.0, "count")));
        let missing = std::panic::catch_unwind(|| Metrics::default().end_to_end_rows());
        assert!(missing.is_err());
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
