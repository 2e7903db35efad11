//! Fleet-scale serving bench: f32-scalar vs f32-SIMD vs int8 classification.
//!
//! Measures labels/second of a trained [`ml::SequenceClassifier`] on a
//! confident synthetic task through three serving paths:
//!
//! * **f32-scalar** — [`ml::SequenceClassifier::predict_naive`] per
//!   sequence: the reference forward pass whose per-gate horizontal dot
//!   products carry a sequential f32 dependency chain the compiler cannot
//!   vectorize. This is the honest scalar baseline.
//! * **f32-SIMD** — the production batch-bucketed
//!   [`ml::SequenceClassifier::predict_batch`] with the AVX2 lane kernel
//!   enabled (bitwise identical to the naive pass by contract).
//! * **int8** — [`ml::QuantizedSequenceClassifier::predict_batch`], the
//!   post-training quantized serving twin (≥ 99% label agreement, not
//!   bitwise).
//!
//! Also times the tiled GEMM with the SIMD lane kernel on vs off
//! (`simd_gemm_speedup`, hard 1.0 when AVX2 is unavailable or disabled via
//! `LEAKY_DNN_SIMD=off`) and measures `int8_label_agreement` on the eval
//! set; CI's bench-smoke job gates both.
//!
//! Everything runs under `ml::par::with_threads(1)` so the numbers isolate
//! kernel quality from the worker pool. Merges a `serving` section into
//! `BENCH_pipeline.json` without touching the other binaries' sections.
//!
//! Run: `cargo run -p bench --release --bin serving_bench`

use std::time::Instant;

use ml::matrix::Matrix;
use ml::{QuantizedSequenceClassifier, SeqClassifierConfig, SeqExample, SequenceClassifier};
use serde::Serialize;

/// Eval fleet: sequences classified per timed repetition.
const EVAL_SEQS: usize = 64;
/// Timesteps per eval sequence (labels per sequence).
const EVAL_LEN: usize = 32;
/// LSTM hidden units — serving-realistic, unlike the smoke-scale tests.
const HIDDEN: usize = 64;

/// Timed repetitions; minimum wall time is reported (robust to scheduler
/// noise on shared CI runners).
const REPS: usize = 7;

/// GEMM shape for the SIMD on/off probe (same as `gemm_bench`).
const GM: usize = 160;
const GK: usize = 64;
const GN: usize = 256;

#[derive(Serialize)]
struct ServingBench {
    sequences: usize,
    timesteps_per_sequence: usize,
    hidden: usize,
    /// Whether the AVX2 lane kernel was active for the f32-SIMD row.
    simd_enabled: bool,
    f32_scalar_labels_per_sec: f64,
    f32_simd_labels_per_sec: f64,
    int8_labels_per_sec: f64,
    /// `f32_simd / f32_scalar`.
    simd_speedup_vs_scalar: f64,
    /// `int8 / f32_scalar`.
    int8_speedup_vs_scalar: f64,
    /// Tiled GEMM with the lane kernel on vs off — CI gates this at >= 1
    /// (hard 1.0 when SIMD is unavailable, so the gate stays meaningful).
    simd_gemm_speedup: f64,
    /// Fraction of eval labels where int8 agrees with f32 — CI gates this
    /// at >= 0.99.
    int8_label_agreement: f64,
}

/// Deterministic pseudo-random stream — no RNG dependency.
fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 40) as f32) / (1u64 << 23) as f32 - 1.0
}

/// Quadrant task: points near the four quadrant centers (±1, ±1) with a
/// small noise radius, labeled by quadrant — an easy, margin-heavy task the
/// classifier learns confidently, so int8's lossy arithmetic lands on the
/// same argmax almost everywhere (the ≥ 99% agreement contract).
fn quadrant_sequences(n: usize, t: usize, seed: u64) -> Vec<SeqExample> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            let mut features = Vec::with_capacity(t);
            let mut labels = Vec::with_capacity(t);
            for _ in 0..t {
                let lab = (lcg(&mut state).to_bits() & 3) as usize;
                let (sx, sy) = match lab {
                    0 => (1.0, 1.0),
                    1 => (-1.0, 1.0),
                    2 => (-1.0, -1.0),
                    _ => (1.0, -1.0),
                };
                features.push(vec![sx + 0.2 * lcg(&mut state), sy + 0.2 * lcg(&mut state)]);
                labels.push(lab);
            }
            SeqExample::new(features, labels)
        })
        .collect()
}

/// Minimum wall time of `f` over [`REPS`] repetitions.
fn best_secs(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn gemm_simd_speedup() -> f64 {
    if !ml::simd::enabled() {
        return 1.0;
    }
    let mut a = Matrix::zeros(GM, GK);
    let mut b = Matrix::zeros(GK, GN);
    let mut state = 0x5e71_u64;
    for r in 0..GM {
        for c in 0..GK {
            a[(r, c)] = lcg(&mut state);
        }
    }
    for r in 0..GK {
        for c in 0..GN {
            b[(r, c)] = lcg(&mut state);
        }
    }
    let mut out = Matrix::zeros(1, 1);
    let on_secs = ml::simd::with_simd(true, || {
        best_secs(|| {
            for _ in 0..8 {
                std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
            }
        })
    });
    let off_secs = ml::simd::with_simd(false, || {
        best_secs(|| {
            for _ in 0..8 {
                std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
            }
        })
    });
    off_secs / on_secs
}

fn main() {
    let bench = ml::par::with_threads(1, || {
        let mut cfg = SeqClassifierConfig::new(2, HIDDEN, 4);
        cfg.epochs = 30;
        cfg.seed = 11;
        cfg.batch_size = 4;
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&quadrant_sequences(32, 16, 3));
        let quant = QuantizedSequenceClassifier::from_f32(&clf);

        let eval = quadrant_sequences(EVAL_SEQS, EVAL_LEN, 7);
        let seqs: Vec<&[Vec<f32>]> = eval.iter().map(|e| e.features.as_slice()).collect();
        let total_labels = (EVAL_SEQS * EVAL_LEN) as f64;

        let f32_labels: Vec<Vec<usize>> = clf.predict_batch(&seqs);
        let int8_labels: Vec<Vec<usize>> = quant.predict_batch(&seqs);
        let agree = f32_labels
            .iter()
            .flatten()
            .zip(int8_labels.iter().flatten())
            .filter(|(a, b)| a == b)
            .count();

        let scalar_secs = best_secs(|| {
            for s in &seqs {
                std::hint::black_box(clf.predict_naive(std::hint::black_box(s)));
            }
        });
        let simd_secs = ml::simd::with_simd(true, || {
            best_secs(|| {
                std::hint::black_box(clf.predict_batch(std::hint::black_box(&seqs)));
            })
        });
        let int8_secs = best_secs(|| {
            std::hint::black_box(quant.predict_batch(std::hint::black_box(&seqs)));
        });

        ServingBench {
            sequences: EVAL_SEQS,
            timesteps_per_sequence: EVAL_LEN,
            hidden: HIDDEN,
            simd_enabled: ml::simd::enabled(),
            f32_scalar_labels_per_sec: total_labels / scalar_secs,
            f32_simd_labels_per_sec: total_labels / simd_secs,
            int8_labels_per_sec: total_labels / int8_secs,
            simd_speedup_vs_scalar: scalar_secs / simd_secs,
            int8_speedup_vs_scalar: scalar_secs / int8_secs,
            simd_gemm_speedup: gemm_simd_speedup(),
            int8_label_agreement: agree as f64 / total_labels,
        }
    });

    println!(
        "serving ({} seqs x {} steps, hidden {}): f32-scalar {:.0}/s, f32-simd {:.0}/s \
         ({:.2}x), int8 {:.0}/s ({:.2}x), agreement {:.4}, gemm simd {:.2}x",
        bench.sequences,
        bench.timesteps_per_sequence,
        bench.hidden,
        bench.f32_scalar_labels_per_sec,
        bench.f32_simd_labels_per_sec,
        bench.simd_speedup_vs_scalar,
        bench.int8_labels_per_sec,
        bench.int8_speedup_vs_scalar,
        bench.int8_label_agreement,
        bench.simd_gemm_speedup,
    );

    let path = bench::BENCH_PATH;
    bench::merge_sections(path, &[("serving", &bench)]).expect("write BENCH_pipeline.json");
    println!("serving -> {path}");
}
