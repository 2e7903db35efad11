//! Thread-count invariance of the full pipeline: profiling and extraction
//! on the serial path (one worker) must match an 8-worker pool bit for bit.
//! The engine's contract (see `ml::par`) is that parallelism changes
//! wall-clock time only — every reduction happens in a fixed order, so the
//! trained models and the recovered structure are identical.
//!
//! The same contract extends to fault injection: a `FaultPlan` is part of
//! the GPU configuration, so one plan value fully determines a run and the
//! faulted pipeline is exactly as reproducible as the clean one.

mod common;

use common::quick_pipeline;
use gpu_sim::FaultPlan;
use moscons::AttackReport;

/// Profiles and attacks at smoke scale on the clean path.
fn run_pipeline() -> AttackReport {
    quick_pipeline(99, FaultPlan::none())
}

#[test]
fn pipeline_is_thread_count_invariant() {
    let serial = ml::par::with_threads(1, run_pipeline);
    let parallel = ml::par::with_threads(8, run_pipeline);
    assert_eq!(
        serial, parallel,
        "8-worker pipeline diverged from the serial pipeline"
    );
    // The comparison must be over a non-degenerate run to mean anything.
    assert!(!serial.iterations.is_empty(), "no iterations recovered");
    assert!(!serial.fused_classes.is_empty(), "no fused classes");
}

#[test]
fn packed_batch_pipeline_is_thread_count_invariant() {
    // A minibatch of 8 packs several equal-length profiling iterations into
    // each fused bucket GEMM (`ml::seq`'s batched training path), instead of
    // the mostly-singleton buckets the default minibatch of 4 produces at
    // this scale. The 1-vs-8-worker bitwise equality must hold there too:
    // bucket composition and worker count are both scheduling decisions, not
    // arithmetic ones.
    let run = || common::quick_pipeline_batched(99, FaultPlan::none(), 8);
    let serial = ml::par::with_threads(1, run);
    let parallel = ml::par::with_threads(8, run);
    assert_eq!(
        serial, parallel,
        "packed batch training diverged across worker counts"
    );
    assert!(!serial.iterations.is_empty(), "no iterations recovered");
    assert!(!serial.fused_classes.is_empty(), "no fused classes");
}

#[test]
fn faulted_pipeline_is_deterministic_across_thread_counts() {
    let plan = FaultPlan::uniform(0.15, 7);
    let first = ml::par::with_threads(1, || quick_pipeline(99, plan));
    // Clear the in-process trace memo so the repeat run re-simulates every
    // collection instead of replaying cached slices.
    moscons::cache::clear_memory();
    let second = ml::par::with_threads(8, || quick_pipeline(99, plan));
    assert_eq!(
        first, second,
        "same fault plan must yield a bitwise-identical report"
    );
    assert!(!first.iterations.is_empty(), "no iterations recovered");

    // A different fault seed is a different run: the samples differ even
    // though every stage still completes.
    moscons::cache::clear_memory();
    let other = ml::par::with_threads(8, || quick_pipeline(99, FaultPlan::uniform(0.15, 8)));
    assert!(!other.fused_classes.is_empty(), "faulted run degenerated");
}

#[test]
fn cache_modes_agree_bitwise() {
    // The same pipeline with the trace cache off, cold on disk, and warm
    // from disk must produce the same report — a disk hit is a bitwise
    // round trip, not an approximation.
    let dir = "target/leaky-dnn-cache-test";
    let _ = std::fs::remove_dir_all(dir);
    std::env::set_var("LEAKY_DNN_CACHE_DIR", dir);

    std::env::set_var("LEAKY_DNN_CACHE", "off");
    let uncached = ml::par::with_threads(1, run_pipeline);

    std::env::set_var("LEAKY_DNN_CACHE", "disk");
    let disk_cold = ml::par::with_threads(1, run_pipeline);
    assert!(
        std::fs::read_dir(dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false),
        "disk mode must persist trace entries under {}",
        dir
    );

    // Drop the in-process memo so the next run must load from disk.
    moscons::cache::clear_memory();
    let disk_warm = ml::par::with_threads(1, run_pipeline);

    std::env::set_var("LEAKY_DNN_CACHE", "mem");
    assert_eq!(uncached, disk_cold, "disk-cold run diverged from uncached");
    assert_eq!(uncached, disk_warm, "disk-warm run diverged from uncached");
}

#[test]
fn quantization_is_worker_count_invariant_and_simd_agnostic() {
    use ml::{QuantizedSequenceClassifier, SeqClassifierConfig, SeqExample, SequenceClassifier};

    // A small classifier trained on a separable toy task; training itself is
    // thread-count invariant (ml's own tests pin that), so one trained model
    // serves every comparison below.
    let mut cfg = SeqClassifierConfig::new(2, 16, 2);
    cfg.epochs = 10;
    cfg.seed = 77;
    let data: Vec<SeqExample> = (0..12)
        .map(|i| {
            let lab = i % 2;
            let mut f = vec![0.0, 0.0];
            f[lab] = 1.0;
            SeqExample::new(vec![f; 6], vec![lab; 6])
        })
        .collect();
    let mut clf = SequenceClassifier::new(cfg);
    clf.fit(&data);

    // Quantization is a pure function of the f32 weights: the int8 twins
    // produced under 1-worker and 8-worker pools must be identical down to
    // every i8 value and f32 scale (derived PartialEq).
    let q1 = ml::par::with_threads(1, || QuantizedSequenceClassifier::from_f32(&clf));
    let q8 = ml::par::with_threads(8, || QuantizedSequenceClassifier::from_f32(&clf));
    assert_eq!(q1, q8, "quantized weights diverged across worker counts");

    let seqs: Vec<&[Vec<f32>]> = data.iter().map(|e| e.features.as_slice()).collect();
    let labels1 = ml::par::with_threads(1, || q1.predict_batch(&seqs));
    let labels8 = ml::par::with_threads(8, || q8.predict_batch(&seqs));
    assert_eq!(
        labels1, labels8,
        "int8 labels diverged across worker counts"
    );

    // Integer accumulation is order-free, so the scalar and AVX2 int8
    // kernels agree exactly — the SIMD dispatch must never change a label.
    let scalar = ml::simd::with_simd(false, || q1.predict_batch(&seqs));
    let auto = ml::simd::with_simd(true, || q1.predict_batch(&seqs));
    assert_eq!(scalar, auto, "int8 labels depend on the SIMD dispatch");
}

/// Flattened, comparable view of one fleet session: report, label
/// latencies, rows dropped, samples streamed.
type SessionSummary = (AttackReport, Vec<usize>, usize, usize);

/// Flattened, comparable view of a fleet run (Extraction itself carries no
/// `PartialEq`; the report is the bitwise-comparable surface).
fn fleet_summary(outcome: moscons::FleetOutcome) -> (Vec<SessionSummary>, usize) {
    let sessions = outcome
        .sessions
        .into_iter()
        .map(|s| {
            (
                s.extraction.report(),
                s.label_latencies,
                s.overflow_dropped,
                s.samples_streamed,
            )
        })
        .collect();
    (sessions, outcome.rounds)
}

#[test]
fn fleet_is_worker_count_and_order_invariant() {
    use moscons::{run_fleet, FleetConfig, InferencePrecision, OverflowPolicy, SessionSpec};

    let (moscons, victim) = common::quick_attack_setup(FaultPlan::none(), 4);
    let gpu = moscons.config().gpu.clone();
    let specs: Vec<SessionSpec> = [99u64, 123, 7]
        .iter()
        .map(|&seed| SessionSpec {
            victim: victim.clone(),
            seed,
            gpu: gpu.clone(),
        })
        .collect();
    let config = FleetConfig::default();

    // 1 vs 8 workers: the poll/classify fan-outs partition independent
    // sessions, so worker count must never reach the results.
    let serial = ml::par::with_threads(1, || fleet_summary(run_fleet(&moscons, &specs, &config)));
    let parallel = ml::par::with_threads(8, || fleet_summary(run_fleet(&moscons, &specs, &config)));
    assert_eq!(
        serial, parallel,
        "8-worker fleet diverged from the serial fleet"
    );

    // Spec order is presentation, not arithmetic: reversing the fleet
    // reverses the outcomes and changes nothing else — sessions finishing
    // earlier or later relative to each other cannot couple.
    let reversed_specs: Vec<SessionSpec> = specs.iter().rev().cloned().collect();
    let (mut rev_sessions, _) = ml::par::with_threads(8, || {
        fleet_summary(run_fleet(&moscons, &reversed_specs, &config))
    });
    rev_sessions.reverse();
    assert_eq!(
        serial.0, rev_sessions,
        "fleet outcomes depend on session order"
    );

    // Lossless streaming is the batch attack: every session's report equals
    // its solo `attack_on` bit for bit.
    for (spec, (report, latencies, dropped, _)) in specs.iter().zip(&serial.0) {
        let (batch, _) = moscons.attack_on(&spec.victim, spec.seed, &spec.gpu);
        assert_eq!(
            *report,
            batch.report(),
            "fleet session (seed {}) diverged from the batch attack",
            spec.seed
        );
        assert!(!latencies.is_empty(), "session emitted no labels");
        assert_eq!(*dropped, 0, "Stall policy must never drop");
    }

    // Int8 mode batches closed segments across sessions; the cross-session
    // composition varies with spec order, but each session's final report is
    // batch-semantics int8 — order invariance must hold there too.
    let int8 = FleetConfig {
        precision: InferencePrecision::Int8,
        ..config
    };
    let fwd = ml::par::with_threads(8, || fleet_summary(run_fleet(&moscons, &specs, &int8)));
    let (mut rev, _) = ml::par::with_threads(8, || {
        fleet_summary(run_fleet(&moscons, &reversed_specs, &int8))
    });
    rev.reverse();
    assert_eq!(fwd.0, rev, "int8 fleet outcomes depend on session order");

    // DropOldest: a deliberately starved consumer must evict — counted,
    // bounded, and still bitwise reproducible across worker counts.
    let starved = FleetConfig {
        queue_capacity: 2,
        drain_per_round: 1,
        overflow: OverflowPolicy::DropOldest,
        ..config
    };
    let d1 = ml::par::with_threads(1, || fleet_summary(run_fleet(&moscons, &specs, &starved)));
    let d8 = ml::par::with_threads(8, || fleet_summary(run_fleet(&moscons, &specs, &starved)));
    assert_eq!(d1, d8, "DropOldest fleet diverged across worker counts");
    let total_dropped: usize = d1.0.iter().map(|(_, _, dropped, _)| dropped).sum();
    assert!(
        total_dropped > 0,
        "starved DropOldest fleet should have evicted rows"
    );
}

#[test]
fn pool_is_reused_across_sequential_attacks() {
    // Pool workers outlive a dispatch: the second attack reuses the threads
    // the first one spawned (same process-wide pool) and must reproduce the
    // same report bit for bit once the trace memo is dropped.
    let (moscons, victim) = common::quick_attack_setup(FaultPlan::none(), 4);
    let gpu = moscons.config().gpu.clone();
    let run = || ml::par::with_threads(8, || moscons.attack_on(&victim, 4242, &gpu).0.report());
    let first = run();
    moscons::cache::clear_memory();
    let second = run();
    assert_eq!(
        first, second,
        "second attack on the reused pool diverged from the first"
    );
    assert!(!first.iterations.is_empty(), "no iterations recovered");
}

#[test]
fn worker_panic_does_not_poison_later_dispatches() {
    // A panicking job must propagate to the dispatcher — and the resident
    // workers must keep serving later dispatches, up to a full pipeline.
    let items: Vec<usize> = (0..64).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ml::par::with_threads(8, || {
            ml::par::par_map(&items, |i, _| {
                if i == 40 {
                    panic!("poisoned job");
                }
                i
            })
        })
    }));
    assert!(result.is_err(), "worker panic must reach the dispatcher");
    let doubled = ml::par::with_threads(8, || ml::par::par_map(&items, |_, &x| x * 2));
    assert_eq!(doubled, (0..128).step_by(2).collect::<Vec<usize>>());
    let report = ml::par::with_threads(8, run_pipeline);
    assert!(
        !report.iterations.is_empty(),
        "pipeline degenerated after a worker panic"
    );
}

#[test]
fn report_serializes_to_json() {
    let report = ml::par::with_threads(1, run_pipeline);
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("\"structure\""));
    assert!(json.contains("\"syntax_edits\""));
}
