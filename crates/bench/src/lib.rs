//! Shared harness code for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! (`cargo run -p bench --release --bin tableN`); this library holds the
//! scaled experiment configuration, the profiling/tested model suites, and
//! small formatting helpers. `EXPERIMENTS.md` records the outputs next to
//! the paper's numbers.

// Enforced statically here and by leaky-lint rule D5: this crate's
// determinism contract is easier to audit with zero unsafe code.
#![forbid(unsafe_code)]

use dnn_sim::{zoo, InputSpec, Model, TrainingConfig, TrainingSession};
use moscons::attack::{AttackConfig, Moscons};
use moscons::{hp_sweep_variants, CollectionConfig};

/// Experiment scale. The paper runs 224x224 images for 500 iterations on
/// real hardware; the simulated runs default to 112x112 and 8 iterations,
/// which preserves every structural property (op ordering, relative
/// durations, layer-size signals) at tractable cost. `LEAKY_SCALE=quick`
/// shrinks further for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Input image side.
    pub image: usize,
    /// Batch size for CNNs.
    pub batch_cnn: usize,
    /// Batch size for MLPs (the paper uses larger MLP batches).
    pub batch_mlp: usize,
    /// Training iterations observed per model.
    pub iterations: usize,
}

impl Scale {
    /// The default evaluation scale.
    pub fn full() -> Self {
        Scale {
            image: 112,
            batch_cnn: 16,
            batch_mlp: 128,
            iterations: 8,
        }
    }

    /// A fast smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            image: 64,
            batch_cnn: 8,
            batch_mlp: 32,
            iterations: 6,
        }
    }

    /// Reads `LEAKY_SCALE` from the environment (`quick` or `full`).
    pub fn from_env() -> Self {
        match std::env::var("LEAKY_SCALE").as_deref() {
            Ok("quick") => Scale::quick(),
            _ => Scale::full(),
        }
    }

    /// The input spec at this scale.
    pub fn input(&self) -> InputSpec {
        InputSpec::Image {
            height: self.image,
            width: self.image,
            channels: 3,
        }
    }

    /// Batch size appropriate for a model (MLPs get the larger batch).
    pub fn batch_for(&self, model: &Model) -> usize {
        let is_mlp = model
            .layers
            .iter()
            .all(|l| matches!(l, dnn_sim::Layer::Dense { .. }));
        if is_mlp {
            self.batch_mlp
        } else {
            self.batch_cnn
        }
    }

    /// Builds a training session for a model at this scale.
    pub fn session(&self, model: Model) -> TrainingSession {
        let model = model.with_input(self.input());
        let batch = self.batch_for(&model);
        TrainingSession::new(model, TrainingConfig::new(batch, self.iterations))
    }
}

/// The profiling suite: the Table V zoo plus hyper-parameter sweep variants
/// (§V-D: the adversary varies hyper-parameters on her profiled models).
pub fn profiling_suite(scale: Scale) -> Vec<TrainingSession> {
    let input = scale.input();
    let mut models: Vec<Model> = vec![zoo::profiled_mlp(), zoo::alexnet(), zoo::profiled_vgg19()];
    models.extend(hp_sweep_variants(&zoo::alexnet().with_input(input), 4, 5));
    models.extend(hp_sweep_variants(
        &zoo::profiled_mlp().with_input(input),
        3,
        9,
    ));
    models.extend(hp_sweep_variants(
        &zoo::profiled_vgg19().with_input(input),
        2,
        13,
    ));
    models.into_iter().map(|m| scale.session(m)).collect()
}

/// The tested models of Table IX.
pub fn tested_models() -> Vec<Model> {
    vec![zoo::tested_mlp(), zoo::zfnet(), zoo::vgg16()]
}

/// Trains a full MoSConS instance on the profiling suite.
pub fn train_moscons(scale: Scale) -> Moscons {
    let sessions = profiling_suite(scale);
    Moscons::profile(&sessions, AttackConfig::default())
}

/// The zoo profiling suite: randomized residual/separable/attention shapes
/// covering every [`moscons::OpVocab::Zoo`] op class.
pub fn zoo_profiling_suite(scale: Scale) -> Vec<TrainingSession> {
    moscons::random_zoo_profiling_models(6, scale.input(), 19)
        .into_iter()
        .map(|m| scale.session(m))
        .collect()
}

/// Trains a MoSConS instance under the zoo op vocabulary on the zoo
/// profiling suite.
pub fn train_zoo_moscons(scale: Scale) -> Moscons {
    let config = AttackConfig {
        vocab: moscons::OpVocab::Zoo,
        ..AttackConfig::default()
    };
    Moscons::profile(&zoo_profiling_suite(scale), config)
}

/// The victim session of a zoo conformance family at this scale (the
/// `inference` family runs forward-only iterations).
pub fn zoo_family_session(family: &str, scale: Scale) -> TrainingSession {
    let model = zoo::family_model(family)
        .unwrap_or_else(|| panic!("unknown zoo family {family:?}"))
        .with_input(scale.input());
    let batch = scale.batch_for(&model);
    let config = if family == "inference" {
        TrainingConfig::inference(batch, scale.iterations)
    } else {
        TrainingConfig::new(batch, scale.iterations)
    };
    TrainingSession::new(model, config)
}

/// The collection configuration the benches use (the paper's setting).
pub fn collection() -> CollectionConfig {
    CollectionConfig::paper()
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>width$}", c, width = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a table header with a separator line.
pub fn print_header(title: &str, cells: &[&str], widths: &[usize]) {
    println!("\n=== {} ===", title);
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The JSON file every perf bin records its measurements in.
pub const BENCH_PATH: &str = "BENCH_pipeline.json";

/// Merges top-level `sections` into the JSON object at `path`: a key named
/// in `sections` is replaced (and moves to the end), every other key is
/// kept as it is. A missing or unparseable file starts from an empty
/// object. This is how the perf bins share one file without dropping each
/// other's results, whatever order they run in.
pub fn merge_sections(
    path: impl AsRef<std::path::Path>,
    sections: &[(&str, &dyn serde::Serialize)],
) -> std::io::Result<()> {
    use serde_json::Value;
    let path = path.as_ref();
    let mut fields = match std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
    {
        Some(Value::Object(fields)) => fields,
        _ => Vec::new(),
    };
    fields.retain(|(k, _)| sections.iter().all(|(name, _)| name != k));
    fields.extend(
        sections
            .iter()
            .map(|(name, value)| (name.to_string(), value.to_json_value())),
    );
    let json =
        serde_json::to_string_pretty(&Value::Object(fields)).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

// ---------------------------------------------------------------------------
// shared attack evaluation (tables VII, VIII, IX)
// ---------------------------------------------------------------------------

use dnn_sim::OpClass;
use moscons::attack::Extraction;
use moscons::LabeledTrace;

/// One attacked victim with everything the table bins need.
pub struct VictimEval {
    /// Ground-truth model.
    pub model: Model,
    /// Extraction result.
    pub extraction: Extraction,
    /// Ground-truth-labeled victim trace (bench-side only).
    pub labeled: LabeledTrace,
    /// Ground-truth classes aligned to the extraction's base iteration.
    pub base_truth: Option<Vec<OpClass>>,
}

/// Attacks every tested model and aligns ground truth to the base iteration.
pub fn attack_tested_models(moscons: &Moscons, scale: Scale) -> Vec<VictimEval> {
    tested_models()
        .into_iter()
        .enumerate()
        .map(|(i, model)| {
            let session = scale.session(model.clone());
            let (extraction, raw) = moscons.attack(&session, 9000 + i as u64);
            let labeled = LabeledTrace::from_raw(&raw, model.name.clone());
            let gt_iters = labeled.split_iterations_ground_truth(moscons.config().gap.th_gap);
            let base_truth = extraction.iterations.first().and_then(|base| {
                gt_iters
                    .iter()
                    .find(|g| g.start.abs_diff(base.start) < 12)
                    .map(|g| labeled.samples[g.clone()].iter().map(|s| s.class).collect())
            });
            VictimEval {
                model,
                extraction,
                labeled,
                base_truth,
            }
        })
        .collect()
}

/// Truncates two class sequences to their common length.
pub fn common<'a>(a: &'a [OpClass], b: &'a [OpClass]) -> (&'a [OpClass], &'a [OpClass]) {
    let n = a.len().min(b.len());
    (&a[..n], &b[..n])
}

/// Op accuracy of an extraction against a ground-truth-labeled trace: the
/// ground-truth iteration aligned with the extraction's base iteration when
/// one aligns (the paper's tables), otherwise the best-scoring ground-truth
/// iteration. `None` when either side found no iterations.
pub fn op_accuracy_vs_truth(
    extraction: &Extraction,
    labeled: &LabeledTrace,
    th_gap: usize,
) -> Option<f64> {
    use moscons::report::overall_op_accuracy;
    let gt_iters = labeled.split_iterations_ground_truth(th_gap);
    let base = extraction.iterations.first()?;
    let score = |g: &std::ops::Range<usize>| {
        let truth: Vec<OpClass> = labeled.samples[g.clone()].iter().map(|s| s.class).collect();
        let (p, t) = common(&extraction.fused_classes, &truth);
        overall_op_accuracy(p, t)
    };
    match gt_iters.iter().find(|g| g.start.abs_diff(base.start) < 12) {
        Some(g) => Some(score(g)),
        None => gt_iters
            .iter()
            .map(score)
            .fold(None, |best, a| Some(best.map_or(a, |b: f64| b.max(a)))),
    }
}

// ---------------------------------------------------------------------------
// table printers shared by the per-table bins and the combined `eval_all` bin
// ---------------------------------------------------------------------------

/// Prints Table VII (op-inference accuracy) for pre-attacked victims.
pub fn print_table7(evals: &[VictimEval]) {
    use moscons::report::{class_accuracy, overall_op_accuracy};
    let classes = [
        OpClass::Conv,
        OpClass::MatMul,
        OpClass::BiasAdd,
        OpClass::Relu,
        OpClass::Pool,
        OpClass::Tanh,
        OpClass::Sigmoid,
        OpClass::Optimizer,
    ];
    let mut header = vec!["Model".to_string(), "Phase".to_string()];
    header.extend(classes.iter().map(|c| c.letter().to_string()));
    header.push("Overall".to_string());
    let widths: Vec<usize> = std::iter::once(20usize)
        .chain(std::iter::once(8))
        .chain(classes.iter().map(|_| 6))
        .chain(std::iter::once(8))
        .collect();
    print_header(
        "Table VII — op inference accuracy",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &widths,
    );
    for ev in evals {
        let Some(truth) = &ev.base_truth else {
            println!("{}: base iteration not aligned — skipped", ev.model.name);
            continue;
        };
        let rows: [(&str, &[OpClass]); 3] = [
            ("Pre Vt.", &ev.extraction.pre_voting_classes),
            ("Majority", &ev.extraction.majority_classes),
            ("W/ Vt.", &ev.extraction.fused_classes),
        ];
        for (phase, pred) in rows {
            let (p, t) = common(pred, truth);
            let mut cells = vec![
                if phase == "Pre Vt." {
                    ev.model.name.clone()
                } else {
                    String::new()
                },
                phase.to_string(),
            ];
            for c in classes {
                cells.push(match class_accuracy(p, t, c) {
                    Some(a) => format!("{:.0}%", 100.0 * a),
                    None => "-".to_string(),
                });
            }
            cells.push(pct(overall_op_accuracy(p, t)));
            print_row(&cells, &widths);
        }
    }
    println!("\npaper reference (overall): Cust. MLP 97.1 -> 99.4%, ZFNet 86.3 -> 93.0%, VGG16 84.8 -> 85.8%.");
}

/// Prints Table VIII (hyper-parameter accuracy) — collects its own victim
/// traces with hyper-parameter sweep variants.
pub fn print_table8(moscons: &Moscons, scale: Scale) {
    use gpu_sim::GpuConfig;
    use moscons::hyperparams::forward_last_sample;
    use moscons::trace::collect_trace;
    use moscons::HpKind;

    let gpu = GpuConfig::gtx_1080_ti();
    let mut victims: Vec<Model> = tested_models();
    for (i, m) in tested_models().into_iter().enumerate() {
        victims.extend(moscons::hp_sweep_variants(
            &m.with_input(scale.input()),
            2,
            40 + i as u64,
        ));
    }
    let mut totals: std::collections::HashMap<HpKind, (usize, usize)> = Default::default();
    for (i, model) in victims.iter().enumerate() {
        let session = scale.session(model.clone());
        let raw = collect_trace(&session, &collection().with_seed(8800 + i as u64), &gpu);
        let labeled = LabeledTrace::from_raw(&raw, model.name.clone());
        let iters = labeled.split_iterations_ground_truth(6);
        for r in iters.iter().take(3) {
            let samples = &labeled.samples[r.clone()];
            let features: Vec<Vec<f32>> = samples.iter().map(|s| s.features.clone()).collect();
            for kind in HpKind::ALL {
                let preds = moscons.hp_model(kind).predict(&features, moscons.scaler());
                match kind {
                    HpKind::Optimizer => {
                        let truth = HpKind::optimizer_class(model.optimizer);
                        let mut counts = [0usize; 3];
                        for (s, &p) in samples.iter().zip(&preds) {
                            if s.class == OpClass::Optimizer {
                                counts[p.min(2)] += 1;
                            }
                        }
                        if counts.iter().sum::<usize>() > 0 {
                            let best = (0..3).max_by_key(|&c| counts[c]).expect("3 classes");
                            let e = totals.entry(kind).or_default();
                            e.1 += 1;
                            if best == truth {
                                e.0 += 1;
                            }
                        }
                    }
                    _ => {
                        for (layer_idx, _) in model.layers.iter().enumerate() {
                            let Some(truth) = kind.label_for_layer(model, layer_idx) else {
                                continue;
                            };
                            let Some(pos) = forward_last_sample(
                                samples.iter().map(|s| s.layer_index),
                                layer_idx,
                            ) else {
                                continue;
                            };
                            let e = totals.entry(kind).or_default();
                            e.1 += 1;
                            if preds[pos] == truth {
                                e.0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    print_header(
        "Table VIII — hyper-parameter inference accuracy",
        &["HP", "Kind", "Correct", "Total", "Accuracy"],
        &[4, 12, 8, 6, 9],
    );
    let paper = [95.71, 88.1, 96.58, 95.89, 92.63];
    for (i, kind) in HpKind::ALL.iter().enumerate() {
        let (correct, total) = totals.get(kind).copied().unwrap_or((0, 0));
        let acc = if total > 0 {
            correct as f64 / total as f64
        } else {
            0.0
        };
        print_row(
            &[
                format!("HP{}", i + 1),
                format!("{:?}", kind),
                correct.to_string(),
                total.to_string(),
                pct(acc),
            ],
            &[4, 12, 8, 6, 9],
        );
        println!("      paper: {:.1}%", paper[i]);
    }
}

/// Prints Table IX (end-to-end structure recovery) for pre-attacked victims.
pub fn print_table9(evals: &[VictimEval]) {
    use moscons::score_structure;
    println!("\n=== Table IX — end-to-end structure recovery ===");
    let paper = [(1.0, 1.0), (1.0, 0.769), (0.952, 0.828)];
    let mut sum_l = 0.0;
    let mut sum_hp = 0.0;
    for (ev, (pl, php)) in evals.iter().zip(paper) {
        let score = score_structure(&ev.model, &ev.extraction.layers, ev.extraction.optimizer);
        println!("\n{}", ev.model.name);
        println!("  ground truth : {}", ev.model.structure_string());
        println!("  recovered    : {}", ev.extraction.structure);
        println!(
            "  AccuracyL = {} (paper {})   AccuracyHP = {} ({}/{}; paper {})",
            pct(score.layers),
            pct(pl),
            pct(score.hyper_params),
            score.hp_correct,
            score.hp_total,
            pct(php),
        );
        sum_l += score.layers;
        sum_hp += score.hyper_params;
    }
    let n = evals.len() as f64;
    println!(
        "\naverages: AccuracyL {} (paper 98.4%), AccuracyHP {} (paper 86.6%)",
        pct(sum_l / n),
        pct(sum_hp / n)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_consistent() {
        let full = Scale::full();
        let quick = Scale::quick();
        assert!(quick.image < full.image);
        assert!(quick.iterations <= full.iterations);
        let mlp = zoo::tested_mlp();
        let cnn = zoo::vgg16();
        assert_eq!(full.batch_for(&mlp), full.batch_mlp);
        assert_eq!(full.batch_for(&cnn), full.batch_cnn);
    }

    #[test]
    fn profiling_suite_is_diverse() {
        let suite = profiling_suite(Scale::quick());
        assert!(suite.len() >= 9, "suite has {} models", suite.len());
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|s| s.model().name.as_str()).collect();
        assert_eq!(names.len(), suite.len(), "duplicate model names");
    }

    #[test]
    fn tested_models_match_table_ix() {
        let tested = tested_models();
        assert_eq!(tested.len(), 3);
        assert_eq!(tested[1].name, "ZFNet");
        assert_eq!(tested[2].name, "VGG16");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.984), "98.4%");
    }

    #[test]
    fn merge_sections_keeps_foreign_sections_and_replaces_named_ones() {
        use serde_json::Value;
        let path = std::env::temp_dir().join(format!("bench-merge-{}.json", std::process::id()));
        merge_sections(&path, &[("a", &1.0), ("b", &2.0)]).expect("first write");
        merge_sections(&path, &[("b", &3.0), ("c", &"new")]).expect("merge");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");
        let expect = vec![
            ("a".to_string(), Value::Number(1.0)),
            ("b".to_string(), Value::Number(3.0)),
            ("c".to_string(), Value::String("new".into())),
        ];
        assert_eq!(serde_json::from_str(&text), Ok(Value::Object(expect)));
    }
}
