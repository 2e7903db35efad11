//! The traced run: each workload re-driven through the public per-layer
//! functions of `moscons`, one call per span.
//!
//! The calls run one after another, so span durations are busy time, not
//! critical-path time.

use std::ops::Range;

use dnn_sim::TrainingSession;
use gpu_sim::GpuConfig;
use ml::MinMaxScaler;
use moscons::dataset::{counter_features, fit_scaler, with_lookahead};
use moscons::voting::VotingExample;
use moscons::{
    collect_trace, AttackConfig, AttackStream, Extraction, GapModel, HpKind, HpModel, LabeledTrace,
    LongClass, LongOpModel, Moscons, OtherClass, OtherOpModel, RawTrace, VotingModel,
};

use crate::inputs::Target;
use crate::tracer::Tracer;

/// The models `Moscons::profile` trains, fitted one layer call at a time.
pub struct Refit {
    scaler: MinMaxScaler,
    gap: GapModel,
    long: LongOpModel,
    op: OtherOpModel,
    hp: Vec<HpModel>,
}

/// Span name of one `Mhp` head's fit.
fn hp_train_span(kind: HpKind) -> &'static str {
    match kind {
        HpKind::Filters => "core.hyperparams.filters.train",
        HpKind::FilterSize => "core.hyperparams.filter_size.train",
        HpKind::Neurons => "core.hyperparams.neurons.train",
        HpKind::Stride => "core.hyperparams.stride.train",
        HpKind::Optimizer => "core.hyperparams.optimizer.train",
    }
}

/// Re-drives `Moscons::profile(sessions, config)` under the root span
/// `core.profile`, in the same order of calls and with the same seeds.
pub fn refit(t: &mut Tracer, sessions: &[TrainingSession], config: &AttackConfig) -> Refit {
    t.span("core.profile", |t| {
        let mut traces = Vec::with_capacity(sessions.len());
        for (i, session) in sessions.iter().enumerate() {
            let collection = config
                .collection
                .with_seed(config.collection.seed ^ (i as u64 * 7919));
            let raw = t.time("core.trace.collect", || {
                collect_trace(session, &collection, &config.gpu)
            });
            t.count("core.trace.samples", raw.samples.len() as f64);
            let name = session.model().name.clone();
            traces.push(t.time("core.dataset.label", || LabeledTrace::from_raw(&raw, name)));
        }
        let refs: Vec<&LabeledTrace> = traces.iter().collect();
        let scaler = t.time("core.dataset.label", || fit_scaler(&refs));
        let gap = t.time("core.gap.train", || {
            GapModel::train(&refs, &scaler, config.gap)
        });
        let ranges: Vec<Vec<Range<usize>>> = t.time("core.dataset.label", || {
            traces
                .iter()
                .map(|tr| tr.split_iterations_ground_truth(config.gap.th_gap))
                .collect()
        });
        let iteration_steps: usize = ranges.iter().flatten().map(|r| r.len()).sum();
        let op_data: Vec<(&LabeledTrace, &[Range<usize>])> = traces
            .iter()
            .zip(&ranges)
            .map(|(tr, r)| (tr, r.as_slice()))
            .collect();

        let long = t.time("core.long_ops.train", || {
            LongOpModel::train(&op_data, &scaler, &config.op_lstm)
        });
        let op = t.time("core.other_ops.train", || {
            OtherOpModel::train(&op_data, &scaler, &config.op_lstm, config.vocab)
        });
        t.count(
            "ml.seq.train_timesteps",
            (2 * iteration_steps * config.op_lstm.epochs) as f64,
        );

        let (long_examples, op_examples) = t.time("core.voting.data", || {
            voting_examples(
                &traces,
                &ranges,
                &long,
                &op,
                &scaler,
                config.voting_iterations,
            )
        });
        let voting_steps: usize = long_examples
            .iter()
            .chain(&op_examples)
            .map(|e| e.truth.len())
            .sum();
        let n = config.voting_iterations;
        let hp_data: Vec<(&LabeledTrace, &dnn_sim::Model, &[Range<usize>])> = traces
            .iter()
            .zip(sessions)
            .zip(&ranges)
            .map(|((tr, s), r)| (tr, s.model(), r.as_slice()))
            .collect();
        let hp: Vec<HpModel> = t.span("core.hyperparams.train", |t| {
            HpKind::ALL
                .into_iter()
                .map(|kind| {
                    t.time(hp_train_span(kind), || {
                        HpModel::train(kind, &hp_data, &scaler, &config.hp_lstm)
                    })
                })
                .collect()
        });
        t.count(
            "ml.seq.train_timesteps",
            (HpKind::ALL.len() * iteration_steps * config.hp_lstm.epochs) as f64,
        );
        t.span("core.voting.train", |_| {
            VotingModel::train(&long_examples, 4, n, &config.voting_lstm);
            VotingModel::train(
                &op_examples,
                config.vocab.other_classes(),
                n,
                &config.voting_lstm,
            );
        });
        t.count(
            "ml.seq.train_timesteps",
            (voting_steps * config.voting_lstm.epochs) as f64,
        );
        Refit {
            scaler,
            gap,
            long,
            op,
            hp,
        }
    })
}

/// The voting training examples `Moscons::profile` builds: per trace,
/// sliding groups of `n` iterations of `Mlong`/`Mop` predictions.
fn voting_examples(
    traces: &[LabeledTrace],
    ranges: &[Vec<Range<usize>>],
    long: &LongOpModel,
    op: &OtherOpModel,
    scaler: &MinMaxScaler,
    n: usize,
) -> (Vec<VotingExample>, Vec<VotingExample>) {
    let mut long_examples = Vec::new();
    let mut op_examples = Vec::new();
    for (trace, trace_ranges) in traces.iter().zip(ranges) {
        let range_feats: Vec<Vec<Vec<f32>>> = trace_ranges
            .iter()
            .map(|r| {
                trace.samples[r.clone()]
                    .iter()
                    .map(|s| s.features.clone())
                    .collect()
            })
            .collect();
        let feat_refs: Vec<&[Vec<f32>]> = range_feats.iter().map(|f| f.as_slice()).collect();
        let preds_long: Vec<Vec<usize>> = long
            .predict_batch(&feat_refs, scaler)
            .into_iter()
            .map(|seq| seq.into_iter().map(LongClass::index).collect())
            .collect();
        let preds_op: Vec<Vec<usize>> = op
            .predict_batch(&feat_refs, scaler)
            .into_iter()
            .map(|seq| seq.into_iter().map(OtherClass::index).collect())
            .collect();
        for g in 0..trace_ranges.len().saturating_sub(n - 1) {
            let base = &trace.samples[trace_ranges[g].clone()];
            let truth_long = base
                .iter()
                .map(|s| LongClass::of(s.class).index())
                .collect();
            long_examples.push(VotingExample::new(
                preds_long[g..g + n].to_vec(),
                truth_long,
            ));
            let (truth_op, mask_op) = base
                .iter()
                .map(|s| OtherClass::of(s.class).map_or((0, false), |c| (c.index(), true)))
                .unzip();
            op_examples.push(VotingExample::with_mask(
                preds_op[g..g + n].to_vec(),
                truth_op,
                mask_op,
            ));
        }
    }
    (long_examples, op_examples)
}

/// The layers whose re-fit predictions differ from the profiled instance's
/// on `features`, compared bit for bit (empty when all agree).
pub fn refit_mismatches(refit: &Refit, m: &Moscons, features: &[Vec<f32>]) -> Vec<&'static str> {
    let mut out = Vec::new();
    if refit.scaler != *m.scaler() {
        out.push("scaler");
    }
    if refit.gap.predict_nop(features, &refit.scaler)
        != m.gap_model().predict_nop(features, m.scaler())
    {
        out.push("gap");
    }
    let scaled: Vec<Vec<f32>> = features
        .iter()
        .map(|f| refit.scaler.transform_row(f))
        .collect();
    let prepared = with_lookahead(&scaled);
    let bits =
        |p: Vec<Vec<f32>>| -> Vec<u32> { p.into_iter().flatten().map(f32::to_bits).collect() };
    let same = |a: &ml::SequenceClassifier, b: &ml::SequenceClassifier| {
        bits(a.predict_proba(&prepared)) == bits(b.predict_proba(&prepared))
    };
    if !same(refit.long.classifier(), m.long_model().classifier()) {
        out.push("long_ops");
    }
    if !same(refit.op.classifier(), m.op_model().classifier()) {
        out.push("other_ops");
    }
    for h in &refit.hp {
        if !same(h.classifier(), m.hp_model(h.kind()).classifier()) {
            out.push("hyperparams");
        }
    }
    out
}

/// Re-drives `Moscons::attack` on `target` under the span `attack`
/// (collect, features, extract), then times the parts of `extract` one at a
/// time under the span `probe`. Returns the extraction, the raw trace, and
/// whether the probe's iterations match the extraction's.
pub fn attack(t: &mut Tracer, m: &Moscons, target: &Target) -> (Extraction, RawTrace, bool) {
    let (extraction, raw, features) = t.span("attack", |t| {
        let collection = m.config().collection.with_seed(target.seed);
        let raw = t.time("core.trace.collect", || {
            collect_trace(&target.session, &collection, &m.config().gpu)
        });
        let features = t.time("core.cache.features", || {
            moscons::cache::counter_feature_matrix(&raw)
        });
        let extraction = t.time("core.extract", || m.extract(&features));
        (extraction, raw, features)
    });
    t.count("core.trace.samples", raw.samples.len() as f64);
    let agrees = t.span("probe", |t| {
        let scaler = m.scaler();
        let iterations = t.time("core.gap.split", || {
            m.gap_model().split_iterations(&features, scaler)
        });
        t.count("core.gap.iterations", iterations.len() as f64);
        if let Some(base) = iterations.first() {
            let n = m.config().voting_iterations.min(iterations.len());
            let group: Vec<&[Vec<f32>]> = iterations[..n]
                .iter()
                .map(|r| &features[r.clone()])
                .collect();
            t.time("core.long_ops.predict", || {
                m.long_model().predict_batch(&group, scaler)
            });
            t.time("core.other_ops.predict", || {
                m.op_model().predict_batch(&group, scaler)
            });
            let base_feats = &features[base.clone()];
            t.time("core.hyperparams.predict", || {
                for kind in HpKind::ALL {
                    m.hp_model(kind).predict(base_feats, scaler);
                }
            });
        }
        iterations == extraction.iterations
    });
    (extraction, raw, agrees)
}

/// Re-drives one fleet session on its own: `SpySession::poll` in steps of
/// `poll_steps` engine events, each sample pushed through `AttackStream`.
pub fn stream(
    t: &mut Tracer,
    m: &Moscons,
    target: &Target,
    gpu: &GpuConfig,
    poll_steps: usize,
) -> Extraction {
    t.span("stream", |t| {
        let collection = m.config().collection.with_seed(target.seed);
        let mut spy = t.time("core.trace.poll", || {
            moscons::trace::SpySession::start(&target.session, &collection, gpu)
        });
        let mut stream = AttackStream::new(m);
        let mut push = |t: &mut Tracer, samples: Vec<cupti_sim::CuptiSample>| {
            for s in samples {
                let row = counter_features(&s.to_features());
                t.time("core.stream.push", || stream.push(&row));
            }
        };
        while !spy.is_done() {
            let samples = t.time("core.trace.poll", || spy.poll(poll_steps));
            t.count("core.trace.poll_calls", 1.0);
            push(t, samples);
        }
        let tail = t.time("core.trace.poll", || spy.finish());
        push(t, tail.samples);
        t.count(
            "core.stream.segments_closed",
            stream.segments_closed() as f64,
        );
        t.time("core.stream.finish", || stream.finish()).extraction
    })
}
