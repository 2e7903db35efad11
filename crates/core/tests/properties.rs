//! Property-based tests for the attack pipeline's pure stages, on `testkit`.

use std::fmt;

use dnn_sim::OpClass;
use moscons::dataset::{counter_features, filter_valid_iterations, split_on_nop_runs};
use moscons::opseq::{collapse, forward_boundary, parse_forward_layers_lenient};
use moscons::report::lcs_pairs;
use testkit::gen::{bool_with, choice, f32_in, u32_in, usize_in, vec_of, zip2};
use testkit::prop::holds;
use testkit::{check_with, Config, Gen};

/// Runs `prop` over at least 128 cases, twice testkit's default: these
/// stages are cheap and their inputs are long sequences with many shapes.
/// Seeded and replayable like [`testkit::check`].
fn check_128<T, F>(name: &str, gen: &Gen<T>, prop: F)
where
    T: Clone + fmt::Debug + 'static,
    F: Fn(&T) -> Result<(), String>,
{
    let env = Config::from_env();
    let cfg = Config {
        cases: env.cases.max(128),
        ..env
    };
    if let Err(failure) = check_with(name, &cfg, gen, prop) {
        panic!("{}", failure.report());
    }
}

fn op_class() -> Gen<OpClass> {
    choice(vec![
        OpClass::Conv,
        OpClass::MatMul,
        OpClass::BiasAdd,
        OpClass::Relu,
        OpClass::Tanh,
        OpClass::Sigmoid,
        OpClass::Pool,
        OpClass::Optimizer,
        OpClass::Nop,
    ])
}

#[test]
fn split_segments_are_sorted_disjoint_and_busy_bounded() {
    let inputs = zip2(vec_of(bool_with(0.5), 0, 299), usize_in(1, 7));
    check_128(
        "split_segments_are_sorted_disjoint_and_busy_bounded",
        &inputs,
        |(nops, th)| {
            let th = *th;
            let segs = split_on_nop_runs(nops, th);
            let mut prev_end = 0usize;
            for s in &segs {
                holds(s.start >= prev_end, "segments overlap or unsorted")?;
                holds(s.end <= nops.len(), "segment runs past the trace")?;
                holds(s.start < s.end, "empty segment")?;
                // Segments start and end on busy samples.
                holds(!nops[s.start], "segment starts on a NOP")?;
                holds(!nops[s.end - 1], "segment ends on a NOP")?;
                // No NOP run of >= th inside a segment.
                let mut run = 0usize;
                for i in s.clone() {
                    if nops[i] {
                        run += 1;
                        holds(run < th, format!("NOP run of {run} inside {s:?}"))?;
                    } else {
                        run = 0;
                    }
                }
                prev_end = s.end;
            }
            // Every busy sample lies inside some segment: splitting only
            // drops NOPs.
            let busy_in_segments: usize = segs
                .iter()
                .map(|s| nops[s.clone()].iter().filter(|&&n| !n).count())
                .sum();
            let busy_total = nops.iter().filter(|&&n| !n).count();
            holds(
                busy_in_segments == busy_total,
                format!("{busy_in_segments} of {busy_total} busy samples in segments"),
            )
        },
    );
}

#[test]
fn filter_keeps_only_banded_segments() {
    let lens = vec_of(usize_in(1, 199), 1, 19);
    check_128("filter_keeps_only_banded_segments", &lens, |lens| {
        let mut segs = Vec::new();
        let mut start = 0usize;
        for l in lens {
            segs.push(start..start + l);
            start += l;
        }
        let kept = filter_valid_iterations(segs.clone(), 0.8, 1.2);
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let in_band = |l: f64| l >= 0.8 * median && l <= 1.2 * median;
        for s in &kept {
            holds(in_band(s.len() as f64), format!("kept out-of-band {s:?}"))?;
        }
        // Everything in-band is kept.
        let expected = segs.iter().filter(|s| in_band(s.len() as f64)).count();
        holds(
            kept.len() == expected,
            format!("kept {} of {expected} in-band segments", kept.len()),
        )
    });
}

#[test]
fn collapse_runs_partition_the_busy_samples() {
    let classes = vec_of(op_class(), 0, 199);
    check_128(
        "collapse_runs_partition_the_busy_samples",
        &classes,
        |classes| {
            let runs = collapse(classes);
            let mut covered = vec![false; classes.len()];
            let mut prev_end: Option<usize> = None;
            for r in &runs {
                holds(r.start <= r.end, "run ends before it starts")?;
                holds(r.end < classes.len(), "run past the sequence")?;
                holds(r.class != OpClass::Nop, "NOP run")?;
                if let Some(pe) = prev_end {
                    holds(r.start > pe, "runs out of order")?;
                }
                prev_end = Some(r.end);
                // Run endpoints carry the run's class.
                holds(classes[r.start] == r.class, "run start has another class")?;
                holds(classes[r.end] == r.class, "run end has another class")?;
                covered[r.start..=r.end].fill(true);
            }
            // Every non-NOP sample is inside some run.
            for (i, &c) in classes.iter().enumerate() {
                if c != OpClass::Nop {
                    holds(covered[i], format!("busy sample {i} uncovered"))?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn forward_boundary_is_a_valid_index_and_parse_is_sane() {
    let classes = vec_of(op_class(), 0, 199);
    check_128(
        "forward_boundary_is_a_valid_index_and_parse_is_sane",
        &classes,
        |classes| {
            let boundary = forward_boundary(classes);
            holds(boundary <= classes.len(), format!("boundary {boundary}"))?;
            let runs = collapse(classes);
            let layers = parse_forward_layers_lenient(&runs, boundary);
            // Layers never exceed the run count and their sample anchors are
            // within the boundary region (anchors may trail into the last run).
            holds(
                layers.len() <= runs.len(),
                format!("{} layers from {} runs", layers.len(), runs.len()),
            )?;
            for l in &layers {
                holds(
                    l.last_sample < classes.len().max(1),
                    format!("anchor {} past the sequence", l.last_sample),
                )?;
            }
            Ok(())
        },
    );
}

#[test]
fn lcs_is_symmetric_in_length_and_bounded() {
    let symbols = || vec_of(u32_in(0, 3), 0, 39);
    check_128(
        "lcs_is_symmetric_in_length_and_bounded",
        &zip2(symbols(), symbols()),
        |(a, b)| {
            let ab = lcs_pairs(a, b, |x, y| x == y);
            let ba = lcs_pairs(b, a, |x, y| x == y);
            holds(ab.len() == ba.len(), "LCS length is not symmetric")?;
            holds(ab.len() <= a.len().min(b.len()), "LCS longer than an input")?;
            // Pairs are strictly increasing in both coordinates and match.
            for w in ab.windows(2) {
                holds(
                    w[1].0 > w[0].0 && w[1].1 > w[0].1,
                    format!("pairs {:?} then {:?}", w[0], w[1]),
                )?;
            }
            for &(i, j) in &ab {
                holds(a[i] == b[j], format!("pair ({i}, {j}) does not match"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn counter_features_are_finite_and_width_stable() {
    let raw = vec_of(f32_in(0.0, 1e9), 10, 10);
    check_128(
        "counter_features_are_finite_and_width_stable",
        &raw,
        |raw| {
            let f = counter_features(raw);
            holds(
                f.len() == moscons::dataset::FEATURE_WIDTH,
                format!("{} features", f.len()),
            )?;
            holds(f.iter().all(|v| v.is_finite()), "non-finite feature")?;
            // Log features are monotone in the raw counters.
            let mut bigger = raw.clone();
            bigger[2] *= 2.0;
            bigger[2] += 1.0;
            let f2 = counter_features(&bigger);
            holds(
                f2[2] > f[2],
                format!("{} -> {} not increasing", f[2], f2[2]),
            )
        },
    );
}
