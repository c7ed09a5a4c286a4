//! Cross-checks between the detailed per-block hardware simulation and
//! the closed-form throughput model — the reproduction of the paper's
//! "performance reported by our simulator is always within 1% of actual
//! measurements" validation (§4.1), here between our two model layers —
//! and between the models' inputs and the blocks the workloads generate
//! (`BlockShape::measure`).

use std::collections::HashMap;
use std::time::Instant;

use bmac_hw::processor::ProcessorConfig;
use bmac_hw::{
    validate_block, BMacMachine, BlockShape, Geometry, HwModelConfig, SwBreakdown, SwValidatorModel,
};
use bmac_protocol::BmacSender;
use fabric_crypto::identity::{Msp, Role};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_peer::ValidatorPipeline;
use fabric_policy::parse;
use fabric_sim::as_millis;
use workload::{Driver, Drm, Smallbank, Workload};

/// Runs `blocks` real blocks of `ntx` smallbank transactions through the
/// detailed machine and returns the mean block latency (ms).
fn detailed_latency_ms(ntx: usize, validators: usize, blocks: usize) -> f64 {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(ntx)
        .chaincode("smallbank", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(Smallbank::new()));
    let mut driver = Driver::new(Workload::Smallbank, 8, 5);
    let mut all = driver.prepare(&mut net).unwrap();
    all.extend(driver.generate_blocks(&mut net, blocks).unwrap());

    let policies: HashMap<String, fabric_policy::Policy> =
        [("smallbank".to_string(), parse("2-outof-2 orgs").unwrap())]
            .into_iter()
            .collect();
    let mut latencies = Vec::new();
    for block in all.iter().filter(|b| b.data.data.len() == ntx) {
        // Fresh machine per block: the closed-form model is the latency
        // of one block in isolation (queueing behind earlier blocks is a
        // throughput, not latency, effect).
        let mut machine = BMacMachine::new(
            ProcessorConfig::new(Geometry::new(validators, 2), 2),
            &policies,
        );
        let mut sender = BmacSender::new();
        for p in sender.send_block(block).unwrap() {
            machine.ingest_wire(&p.encode().unwrap(), 0).unwrap();
        }
        while let Some(result) = machine.get_block_data() {
            latencies.push(as_millis(result.stats.latency()));
        }
    }
    assert!(!latencies.is_empty(), "no full-size blocks were produced");
    latencies.iter().sum::<f64>() / latencies.len() as f64
}

#[test]
fn detailed_simulation_matches_closed_form_within_5pct() {
    for &(ntx, validators) in &[(8usize, 2usize), (12, 4), (16, 8)] {
        let detailed = detailed_latency_ms(ntx, validators, 2);
        let cfg = HwModelConfig::new(Geometry::new(validators, 2));
        let closed = as_millis(validate_block(&cfg, &BlockShape::smallbank(ntx)).total);
        let rel = (detailed - closed).abs() / closed;
        assert!(
            rel < 0.05,
            "ntx={ntx} V={validators}: detailed {detailed:.3} ms vs closed-form {closed:.3} ms ({:.1}% apart)",
            rel * 100.0
        );
    }
}

/// Cross-checks `SwValidatorModel::validate_block_cached` against the
/// *measured* functional pipeline — the cache-model figure reproduction
/// left open by the ROADMAP. A block is signature-verified cold (empty
/// cache, hit rate 0) and then re-verified warm (identical triples, hit
/// rate 1); the measured cold/warm speedup must land in the same
/// ballpark as the model's 0%-vs-100%-hit-rate prediction.
///
/// Wall-clock on shared CI is noisy, so the band is deliberately wide
/// (one order of magnitude, checked on the log scale); the *exact*
/// parts — hit-rate accounting and verification counts — are asserted
/// tightly.
#[test]
fn cached_pipeline_speedup_matches_cache_model() {
    const NTX: usize = 100;
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(NTX)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while blocks.is_empty() {
        blocks.extend(
            net.submit_invocation(0, "kv", "put", &[format!("m{i}"), "1".into()])
                .unwrap(),
        );
        i += 1;
    }
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Peer, 0).unwrap();
    msp.issue(1, Role::Peer, 0).unwrap();
    msp.issue(0, Role::Orderer, 0).unwrap();
    msp.issue(0, Role::Client, 0).unwrap();
    let mut policies = HashMap::new();
    policies.insert("kv".to_string(), parse("2-outof-2 orgs").unwrap());
    // One worker: the model's serial/parallel split is exact at W=1, so
    // host-vCPU availability cannot skew the comparison.
    let validator = ValidatorPipeline::new(msp, policies, 1);

    // Warm global crypto tables on a throwaway digest-level call first?
    // No — the cold pass *is* the measurement of interest, but the
    // process-wide comb table must not be billed to it. Touch it via a
    // signature that doesn't enter the cache.
    fabric_crypto::curve::mul_fixed_base(&fabric_crypto::U256::from_u64(3));

    let s0 = validator.sig_cache_stats();
    let t0 = Instant::now();
    validator.verify_block_signatures(&blocks[0]).unwrap();
    let cold_us = t0.elapsed().as_secs_f64() * 1e6;
    let s1 = validator.sig_cache_stats();
    let cold_verifications = validator.verifications();

    // Warm pass, repeated; take the fastest to shed scheduler noise.
    let mut warm_us = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        validator.verify_block_signatures(&blocks[0]).unwrap();
        warm_us = warm_us.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    let s2 = validator.sig_cache_stats();

    // Exact accounting: the cold pass misses every unique task, the
    // warm passes are pure hits, and no new ECDSA runs happen warm.
    assert_eq!(s1.hits - s0.hits, 0, "cold pass must not hit");
    assert!(s1.misses > s0.misses, "cold pass must record misses");
    assert_eq!(
        s2.misses, s1.misses,
        "warm replay must be fully served by the cache"
    );
    assert!(s2.hits > s1.hits);
    assert_eq!(
        validator.verifications(),
        cold_verifications,
        "warm replay must not reach the ECDSA engine"
    );
    let warm_probes = (s2.hits - s1.hits) + (s2.misses - s1.misses);
    let warm_hit_rate = (s2.hits - s1.hits) as f64 / warm_probes as f64;
    assert_eq!(warm_hit_rate, 1.0);

    // Model side: the same block shape at hit rates 0 and 1. The
    // measured path covers unmarshal + orderer check + verify/vscc, so
    // compare against that slice of the breakdown.
    let model = SwValidatorModel::new(1);
    let shape = BlockShape::smallbank(NTX);
    let cold_model = model.validate_block_cached(&shape, 0.0);
    let warm_model = model.validate_block_cached(&shape, 1.0);
    let model_slice = |b: &SwBreakdown| (b.unmarshal + b.block_verify + b.verify_vscc) as f64;
    let model_speedup = model_slice(&cold_model) / model_slice(&warm_model);
    let measured_speedup = cold_us / warm_us;

    assert!(
        measured_speedup > 1.5,
        "cache must speed up re-validation: cold {cold_us:.0} µs vs warm {warm_us:.0} µs"
    );
    assert!(model_speedup > 1.5, "model speedup {model_speedup:.2}");
    let log_gap = (measured_speedup / model_speedup).ln().abs();
    assert!(
        log_gap < 10.0f64.ln(),
        "model ({model_speedup:.2}x) and measured ({measured_speedup:.2}x) cached-vscc \
         speedups diverge by more than 10x (cold {cold_us:.0} µs, warm {warm_us:.0} µs)"
    );
}

#[test]
fn hardware_latency_scales_down_with_validators() {
    let l2 = detailed_latency_ms(16, 2, 1);
    let l8 = detailed_latency_ms(16, 8, 1);
    assert!(
        l8 < l2 * 0.55,
        "8 validators ({l8:.2} ms) should be well under half of 2 validators ({l2:.2} ms)"
    );
}

/// Measures the shape of two `workload` blocks of `block_size`
/// transactions generated on a 2-of-2 network.
fn measured_shape(workload: Workload, block_size: usize, seed: u64) -> BlockShape {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(block_size)
        .chaincode(workload.chaincode(), parse("2-outof-2 orgs").unwrap())
        .build();
    match workload {
        Workload::Drm => net.install_chaincode(|| Box::new(Drm::new())),
        _ => net.install_chaincode(|| Box::new(Smallbank::new())),
    }
    let mut driver = Driver::new(workload, 8, seed);
    driver.prepare(&mut net).unwrap();
    let blocks = driver.generate_blocks(&mut net, 2).unwrap();
    BlockShape::measure(&blocks)
}

#[test]
fn measured_shape_reflects_smallbank() {
    let shape = measured_shape(Workload::Smallbank, 6, 7);
    assert_eq!(shape.endorsements_per_tx, 2); // 2of2 policy
    assert!(shape.tx_bytes > 2_000, "envelope {}", shape.tx_bytes);
    assert!(shape.reads_per_tx >= 1);
    assert!(shape.writes_per_tx >= 1);
    // The BMac section is the envelope with its identities stripped.
    assert!(
        shape.tx_section_bytes > 0 && shape.tx_section_bytes < shape.tx_bytes,
        "section {} of envelope {}",
        shape.tx_section_bytes,
        shape.tx_bytes
    );
}

#[test]
fn measured_drm_shape_has_fewer_db_accesses() {
    let shape = measured_shape(Workload::Drm, 4, 9);
    // drm: fewer db accesses than smallbank.
    assert!(shape.reads_per_tx <= 1);
    assert!(shape.writes_per_tx <= 1);
}

#[test]
fn split_payment_inflates_measured_rw() {
    let shape = measured_shape(Workload::SplitPayment(4), 4, 11);
    assert!(shape.reads_per_tx >= 4, "reads {}", shape.reads_per_tx);
    assert!(shape.writes_per_tx >= 4, "writes {}", shape.writes_per_tx);
}
