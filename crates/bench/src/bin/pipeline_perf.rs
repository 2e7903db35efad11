//! Pipeline performance bench: times each attack stage under a 1-worker and
//! an N-worker pool and merges its top-level keys into `BENCH_pipeline.json`.
//!
//! Because the execution engine is deterministic (see `ml::par`), the two
//! configurations produce bitwise-identical models and extractions — this
//! binary asserts that while it measures, so a speedup can never silently
//! come from diverged work. On a single-core machine the N-thread run
//! degenerates to the serial path; the JSON records `cores` so downstream
//! tooling can tell a missing speedup from a missing machine.
//!
//! Run: `cargo run -p bench --release --bin pipeline_perf`
//! (honours `LEAKY_SCALE=quick` and `LEAKY_DNN_THREADS`).

use std::time::Instant;

use dnn_sim::{zoo, TrainingSession};
use moscons::attack::{AttackConfig, Moscons};
use moscons::trace::collect_trace;
use moscons::LabeledTrace;
use serde::Serialize;

#[derive(Serialize)]
struct StageTiming {
    stage: String,
    secs_1_thread: f64,
    secs_n_threads: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct PipelineBench {
    cores: usize,
    threads: usize,
    scale: String,
    stages: Vec<StageTiming>,
    total_secs_1_thread: f64,
    total_secs_n_threads: f64,
    total_speedup: f64,
    /// Trace collection with a cold in-memory cache (fresh simulation).
    cache_cold_secs: f64,
    /// The same collection again, served from the warm cache.
    cache_warm_secs: f64,
    /// `cache_cold_secs / cache_warm_secs`.
    cache_speedup: f64,
    /// Mean wall time of one training epoch of a smoke-scale LSTM classifier
    /// (tracks the allocation-free hot path in `ml`).
    lstm_secs_per_epoch: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Mean seconds per epoch of a smoke-scale `SequenceClassifier::fit` — a
/// direct probe of the workspace-backed LSTM training hot path.
fn lstm_epoch_bench() -> f64 {
    let input = 13;
    let classes = 4;
    let epochs = 8;
    let data: Vec<ml::SeqExample> = (0..12)
        .map(|i| {
            let features: Vec<Vec<f32>> = (0..40)
                .map(|t| {
                    (0..input)
                        .map(|d| ((i * 37 + t * 11 + d * 3) % 17) as f32 / 17.0)
                        .collect()
                })
                .collect();
            let labels: Vec<usize> = (0..40).map(|t| (i + t) % classes).collect();
            ml::SeqExample::new(features, labels)
        })
        .collect();
    let mut cfg = ml::SeqClassifierConfig::new(input, 48, classes);
    cfg.epochs = epochs;
    // The pipeline's LstmTrainConfig trains with minibatches of 4, so the
    // probe does too: equal-length sequences in a minibatch share fused
    // batched GEMMs (see `ml::seq`), which is the hot path being tracked.
    cfg.batch_size = 4;
    let (secs, _) = timed(|| ml::SequenceClassifier::new(cfg).fit(&data));
    secs / epochs as f64
}

fn main() {
    // The staged 1-vs-N timings below measure *simulation and training*
    // cost; run them with the trace cache off so the N-thread pass cannot
    // be flattered by hits left behind by the serial pass.
    std::env::set_var("LEAKY_DNN_CACHE", "off");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ml::par::threads();
    let scale = bench::Scale::from_env();
    let scale_name = if scale == bench::Scale::quick() {
        "quick"
    } else {
        "full"
    };
    println!(
        "pipeline_perf: {} cores, {} pool workers, scale {}",
        cores, threads, scale_name
    );

    // Smoke-scale attack budget: the point is relative stage cost, not
    // accuracy (EXPERIMENTS.md owns accuracy).
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 6;
    config.op_lstm.hidden = 32;
    config.voting_lstm.epochs = 6;
    config.hp_lstm.epochs = 4;
    config.voting_iterations = 3;
    let sessions: Vec<TrainingSession> = moscons::random_profiling_models(4, scale.input(), 7)
        .into_iter()
        .map(|m| scale.session(m))
        .collect();
    let victim = scale.session(zoo::tested_mlp());

    // Stage 1: trace collection fan-out (one spy trace per profiling model).
    let collect = |session_set: &[TrainingSession]| -> Vec<LabeledTrace> {
        ml::par::par_map(session_set, |i, s| {
            let raw = collect_trace(
                s,
                &config
                    .collection
                    .with_seed(config.collection.seed ^ (i as u64 * 7919)),
                &config.gpu,
            );
            LabeledTrace::from_raw(&raw, s.model().name.clone())
        })
    };
    // Stage 2: full profiling (Mgap + Mlong/Mop + voting + Mhp training).
    // Stage 3: attack-time extraction on the victim stream.
    let mut stages = Vec::new();
    let run = |threads: usize| -> (f64, f64, f64, moscons::AttackReport) {
        ml::par::with_threads(threads, || {
            let (t_collect, traces) = timed(|| collect(&sessions));
            drop(traces);
            let (t_profile, moscons) = timed(|| Moscons::profile(&sessions, config.clone()));
            let (t_extract, (extraction, _)) = timed(|| moscons.attack(&victim, 4242));
            (t_collect, t_profile, t_extract, extraction.report())
        })
    };

    let (c1, p1, e1, report_serial) = run(1);
    // With a single pool worker the "N-thread" pass is the serial path
    // again; timing it separately only measures noise (a second serial run
    // can easily come out a few percent slower and print a bogus <1.0x
    // "regression"). Reuse the serial timings so speedup is exactly 1.0,
    // and still record the honest `cores`/`threads` in the JSON.
    let (cn, pn, en) = if threads <= 1 {
        println!("single pool worker: skipping duplicate serial pass (speedup := 1.0)");
        (c1, p1, e1)
    } else {
        let (cn, pn, en, report_parallel) = run(threads);
        assert_eq!(
            report_serial, report_parallel,
            "determinism violation: N-thread extraction diverged from serial"
        );
        println!(
            "determinism check passed: 1-thread and {}-thread reports identical",
            threads
        );
        (cn, pn, en)
    };

    for (stage, s1, sn) in [
        ("collect_traces", c1, cn),
        ("profile_train", p1, pn),
        ("attack_extract", e1, en),
    ] {
        println!(
            "  {:<16} 1-thread {:>8.3}s   {}-thread {:>8.3}s   speedup {:.2}x",
            stage,
            s1,
            threads,
            sn,
            s1 / sn
        );
        stages.push(StageTiming {
            stage: stage.to_string(),
            secs_1_thread: s1,
            secs_n_threads: sn,
            speedup: s1 / sn,
        });
    }
    let total_1 = c1 + p1 + e1;
    let total_n = cn + pn + en;

    // Cold-vs-warm trace cache: the same collection fan-out, first against
    // an empty memo, then again with every trace already resident.
    std::env::set_var("LEAKY_DNN_CACHE", "mem");
    moscons::cache::clear_memory();
    let (cache_cold, _) = ml::par::with_threads(1, || timed(|| collect(&sessions)));
    let (cache_warm, _) = ml::par::with_threads(1, || timed(|| collect(&sessions)));
    assert!(
        cache_warm < cache_cold,
        "warm cache collection ({:.4}s) must beat cold ({:.4}s)",
        cache_warm,
        cache_cold
    );
    println!(
        "  trace cache      cold {:>8.3}s   warm {:>13.6}s   speedup {:.0}x",
        cache_cold,
        cache_warm,
        cache_cold / cache_warm
    );

    let lstm_secs_per_epoch = ml::par::with_threads(1, lstm_epoch_bench);
    println!(
        "  lstm epoch       {:.4}s (smoke-scale fit, 1 thread)",
        lstm_secs_per_epoch
    );

    let bench = PipelineBench {
        cores,
        threads,
        scale: scale_name.to_string(),
        stages,
        total_secs_1_thread: total_1,
        total_secs_n_threads: total_n,
        total_speedup: total_1 / total_n,
        cache_cold_secs: cache_cold,
        cache_warm_secs: cache_warm,
        cache_speedup: cache_cold / cache_warm,
        lstm_secs_per_epoch,
    };
    // Merge field by field so the other perf bins' sections survive
    // whichever order the bins run in.
    let serde_json::Value::Object(fields) = serde_json::to_value(&bench).expect("bench serializes")
    else {
        unreachable!("a struct serializes to a JSON object");
    };
    let sections: Vec<(&str, &dyn serde::Serialize)> = fields
        .iter()
        .map(|(k, v)| (k.as_str(), v as &dyn serde::Serialize))
        .collect();
    bench::merge_sections(bench::BENCH_PATH, &sections).expect("write BENCH_pipeline.json");
    println!(
        "total: 1-thread {:.3}s, {}-thread {:.3}s ({:.2}x) -> {}",
        total_1,
        threads,
        total_n,
        total_1 / total_n,
        bench::BENCH_PATH
    );
}
