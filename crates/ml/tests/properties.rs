//! Property-based tests for the ML substrate's core invariants, on `testkit`.

use ml::activation::{argmax, softmax};
use ml::gbdt::{GbdtBinaryClassifier, GbdtConfig};
use ml::loss::{inverse_frequency_weights, softmax_cross_entropy};
use ml::lstm::LstmLayer;
use ml::matrix::Matrix;
use ml::scale::MinMaxScaler;
use ml::tree::BinMapper;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use testkit::gen::{f32_in, u64_in, usize_in, vec_of, zip2, zip3, zip4};
use testkit::prop::holds;
use testkit::Gen;

/// Exactly `len` floats in `[-1e4, 1e4)`.
fn finite_vec(len: usize) -> Gen<Vec<f32>> {
    vec_of(f32_in(-1e4, 1e4), len, len)
}

/// Builds an `r x c` matrix with entries drawn from the given RNG.
fn random_matrix(r: usize, c: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f32> = (0..r * c).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let rows: Vec<&[f32]> = data.chunks(c).collect();
    Matrix::from_rows(&rows)
}

/// `(seed, m, k, n, threads)` for the bitwise GEMM differentials: seed in
/// `[0, 1000)`, each dimension in `[1, 24)`, 1–4 pool workers.
fn gemm_shapes() -> Gen<(u64, (usize, usize, usize, usize))> {
    zip2(
        u64_in(0, 999),
        zip4(
            usize_in(1, 23),
            usize_in(1, 23),
            usize_in(1, 23),
            usize_in(1, 4),
        ),
    )
}

#[test]
fn softmax_is_a_distribution() {
    let logits = vec_of(f32_in(-50.0, 50.0), 1, 15);
    testkit::check("softmax_is_a_distribution", &logits, |logits| {
        let p = softmax(logits);
        let sum: f32 = p.iter().sum();
        holds(
            (sum - 1.0).abs() < 1e-4,
            format!("probabilities sum to {sum}"),
        )?;
        holds(
            p.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "probability outside [0, 1]",
        )?;
        // argmax of probabilities equals argmax of logits.
        holds(argmax(&p) == argmax(logits), "softmax moved the argmax")
    });
}

#[test]
fn cross_entropy_gradient_sums_to_zero() {
    let inputs = zip2(vec_of(f32_in(-10.0, 10.0), 2, 7), usize_in(0, 7));
    testkit::check(
        "cross_entropy_gradient_sums_to_zero",
        &inputs,
        |(logits, target_raw)| {
            let target = target_raw % logits.len();
            let w = vec![1.0; logits.len()];
            let eval = softmax_cross_entropy(logits, target, &w, false);
            let g: f32 = eval.dlogits.iter().sum();
            // Softmax CE gradient components always sum to zero.
            holds(g.abs() < 1e-4, format!("gradient sum {g}"))?;
            holds(eval.loss >= 0.0, format!("negative loss {}", eval.loss))
        },
    );
}

#[test]
fn inverse_frequency_weights_are_positive_and_mean_one() {
    let labels = vec_of(usize_in(0, 4), 1, 199);
    testkit::check(
        "inverse_frequency_weights_are_positive_and_mean_one",
        &labels,
        |labels| {
            let w = inverse_frequency_weights(labels.iter().copied(), 5);
            holds(w.len() == 5, format!("{} weights for 5 classes", w.len()))?;
            holds(
                w.iter().all(|&x| x > 0.0 && x.is_finite()),
                "non-positive or non-finite weight",
            )?;
            let mean: f32 = w.iter().sum::<f32>() / 5.0;
            holds((mean - 1.0).abs() < 1e-3, format!("mean weight {mean}"))
        },
    );
}

#[test]
fn matmul_distributes_over_addition() {
    let data = zip3(finite_vec(6), finite_vec(6), finite_vec(6));
    testkit::check(
        "matmul_distributes_over_addition",
        &data,
        |(a_data, b_data, c_data)| {
            let a = Matrix::from_rows(&[&a_data[..3], &a_data[3..]]);
            let b = Matrix::from_rows(&[&b_data[..2], &b_data[2..4], &b_data[4..]]);
            let c = Matrix::from_rows(&[&c_data[..2], &c_data[2..4], &c_data[4..]]);
            // a * (b + c) == a*b + a*c (within fp tolerance).
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                holds(
                    (x - y).abs() <= 1e-2 * (1.0 + x.abs().max(y.abs())),
                    format!("a(b+c) = {x} but ab+ac = {y}"),
                )?;
            }
            Ok(())
        },
    );
}

#[test]
fn transpose_is_involutive() {
    testkit::check("transpose_is_involutive", &finite_vec(12), |data| {
        let m = Matrix::from_rows(&[&data[..4], &data[4..8], &data[8..]]);
        holds(
            m.transposed().transposed() == m,
            "double transpose changed the matrix",
        )
    });
}

#[test]
fn minmax_scaler_output_is_unit_bounded() {
    let inputs = zip2(
        vec_of(vec_of(f32_in(-1e6, 1e6), 4, 4), 1, 39),
        vec_of(f32_in(-2e6, 2e6), 4, 4),
    );
    testkit::check(
        "minmax_scaler_output_is_unit_bounded",
        &inputs,
        |(rows, probe)| {
            let s = MinMaxScaler::fit(rows);
            let unit = |t: &[f32]| t.iter().all(|&v| (0.0..=1.0).contains(&v));
            for r in rows {
                holds(
                    unit(&s.transform_row(r)),
                    "fitted row scaled outside [0, 1]",
                )?;
            }
            // Out-of-range probes clamp, never escape [0, 1].
            holds(unit(&s.transform_row(probe)), "probe escaped [0, 1]")
        },
    );
}

#[test]
fn bin_mapper_is_monotone_for_any_data() {
    let vals = vec_of(f32_in(-1e5, 1e5), 2, 199);
    testkit::check("bin_mapper_is_monotone_for_any_data", &vals, |vals| {
        let rows: Vec<Vec<f32>> = vals.iter().map(|&v| vec![v]).collect();
        let mapper = BinMapper::fit(&rows, 32);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0u16;
        for v in sorted {
            let b = mapper.bin_value(0, v);
            holds(b >= prev, format!("{v} binned to {b} after bin {prev}"))?;
            prev = b;
        }
        Ok(())
    });
}

#[test]
fn gbdt_probabilities_are_probabilities() {
    testkit::check(
        "gbdt_probabilities_are_probabilities",
        &u64_in(0, 999),
        |&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<Vec<f32>> = (0..60)
                .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
                .collect();
            let labels: Vec<bool> = rows.iter().map(|r| r[0] > 0.0).collect();
            if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
                return Ok(()); // degenerate single-class draw
            }
            let cfg = GbdtConfig {
                rounds: 5,
                ..GbdtConfig::default()
            };
            let model = GbdtBinaryClassifier::fit(&rows, &labels, &cfg);
            for r in &rows {
                let p = model.predict_proba(r);
                holds((0.0..=1.0).contains(&p), format!("p = {p}"))?;
            }
            Ok(())
        },
    );
}

// The fast GEMM paths promise *bitwise* equality with their reference
// implementations, independent of worker-pool size — exact `==` on the
// raw f32 buffers, no tolerance.

#[test]
fn blocked_matmul_is_bitwise_equal_to_naive() {
    testkit::check(
        "blocked_matmul_is_bitwise_equal_to_naive",
        &gemm_shapes(),
        |&(seed, (m, k, n, threads))| {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let fast = ml::par::with_threads(threads, || a.matmul(&b));
            holds(
                fast == a.matmul_naive(&b),
                "blocked matmul differs from naive",
            )
        },
    );
}

#[test]
fn blocked_t_matmul_is_bitwise_equal_to_naive() {
    testkit::check(
        "blocked_t_matmul_is_bitwise_equal_to_naive",
        &gemm_shapes(),
        |&(seed, (m, k, n, threads))| {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(k, m, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let fast = ml::par::with_threads(threads, || a.t_matmul(&b));
            holds(
                fast == a.t_matmul_naive(&b),
                "blocked t_matmul differs from naive",
            )
        },
    );
}

#[test]
fn fused_lstm_step_is_bitwise_equal_to_naive() {
    let shapes = zip2(
        u64_in(0, 499),
        zip4(
            usize_in(1, 15),
            usize_in(1, 7),
            usize_in(1, 7),
            usize_in(1, 4),
        ),
    );
    testkit::check(
        "fused_lstm_step_is_bitwise_equal_to_naive",
        &shapes,
        |&(seed, (t_len, input, hidden, threads))| {
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = LstmLayer::new(input, hidden, &mut rng);
            let xs = random_matrix(t_len, input, &mut rng);
            let dh = random_matrix(t_len, hidden, &mut rng);

            let (cache, grads, dx) = ml::par::with_threads(threads, || {
                let cache = layer.forward(&xs);
                let (grads, dx) = layer.backward(&cache, &dh);
                (cache, grads, dx)
            });
            let ref_cache = layer.forward_naive(&xs);
            let (ref_grads, ref_dx) = layer.backward_naive(&ref_cache, &dh);

            holds(cache.h == ref_cache.h, "forward hidden states differ")?;
            holds(grads.wx == ref_grads.wx, "input-weight gradients differ")?;
            holds(
                grads.wh == ref_grads.wh,
                "recurrent-weight gradients differ",
            )?;
            holds(grads.b == ref_grads.b, "bias gradients differ")?;
            holds(dx == ref_dx, "input gradients differ")
        },
    );
}
