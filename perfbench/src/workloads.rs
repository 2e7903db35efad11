//! The three workloads, each run untraced (end-to-end metrics) or traced
//! (per-layer metrics).
//!
//! The untraced run drives the system only through `Moscons::profile`,
//! `Moscons::attack` and `run_fleet`, repeating passes over the same inputs
//! until the next operation would end past `--seconds`; the last pass is
//! usually partial. Every pass must
//! reproduce the first pass's reports. Each operation's wall time is scaled
//! to reference speed (see [`crate::calib`]), and its time is the median of
//! its passes. Latencies are order statistics over operations of those
//! median times. The traced run makes one untraced pass and then one traced
//! pass over the same inputs (see [`crate::layers`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dnn_sim::TrainingSession;
use moscons::{
    run_fleet, score_structure, AttackConfig, AttackReport, Extraction, FleetConfig, LabeledTrace,
    Moscons, RawTrace, SessionSpec,
};

use crate::calib::{Calibrator, Speeds};
use crate::inputs::{self, Target};
use crate::layers;
use crate::stats::{digest, mean, median, peak_rss_mb, percentile};
use crate::tracer::Tracer;

/// Victims the `attack` workload attacks one after another per pass.
const ATTACK_VICTIMS: usize = 200;
/// Victims the `fleet` workload streams per pass.
const FLEET_VICTIMS: usize = 128;
/// Sessions per `run_fleet` call.
const FLEET_SIZE: usize = 8;
/// Held-out victims that score the `profile` workload's attacker.
const HELD_OUT_VICTIMS: usize = 48;
/// Victims of `profile` and `attack` also streamed through `run_fleet` to
/// check that streaming and batch extraction agree.
const STREAM_CHECKS: usize = 4;
/// Set-ups per run of `profile`, whose set-up only builds sessions.
const LIGHT_SETUP_REPS: usize = 51;
/// Pause between two set-ups of `profile`. One set-up takes well under a
/// millisecond, so without pauses every one of them would run in the same
/// state of the machine (see [`crate::calib`]).
const LIGHT_SETUP_SPACING: Duration = Duration::from_millis(20);
/// Set-ups per run of `attack` and `fleet`, whose set-up is a smoke profile.
const SMOKE_SETUP_REPS: usize = 3;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// Pool workers the workload ran at.
    pub workers: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// End-to-end metrics untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// The end-to-end time metrics without calibration (untraced only).
    pub raw: Vec<Metric>,
    /// Digest of the first pass's attack reports, in input order.
    pub digest: u64,
    /// The calibration ([`Speeds::describe`]); `null` when nothing ran.
    pub calibration: String,
    /// Each complete untraced pass's summed operation times, `(unscaled,
    /// scaled)`.
    pub passes: Vec<(f64, f64)>,
    pub tracer: Option<Tracer>,
}

/// Failure accounting: an operation (a profiled model, an attacked victim
/// or a fleet session) fails when it panics, recovers no iterations or
/// fails an output check.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    checks: Vec<String>,
}

impl Ledger {
    fn op(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Records an output check; returns `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.checks.push(what());
        }
        ok
    }
}

/// Runs `setup` `reps` times, `spacing` apart: each run's `(start, wall
/// seconds)` on the calibrator's clock, and the last result.
fn repeated_setup<R>(
    cal: &Calibrator,
    reps: usize,
    spacing: Duration,
    mut setup: impl FnMut() -> R,
) -> (Vec<(f64, f64)>, R) {
    let mut runs = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        if rep > 0 {
            std::thread::sleep(spacing);
        }
        let (start, wall, out) = cal.time(&mut setup);
        runs.push((start, wall));
        last = Some(out);
    }
    (runs, last.expect("at least one set-up"))
}

/// Wall times of a workload's operations over every pass.
struct Timings {
    ops: usize,
    /// `(operation, start, wall seconds)`, on the calibrator's clock.
    timed: Vec<(usize, f64, f64)>,
    /// Each operation's latest wall time.
    last: Vec<f64>,
}

impl Timings {
    fn new(ops: usize) -> Self {
        Timings {
            ops,
            timed: Vec::new(),
            last: vec![0.0; ops],
        }
    }

    fn record(&mut self, op: usize, start: f64, wall: f64) {
        self.timed.push((op, start, wall));
        self.last[op] = wall;
    }

    /// Each operation's median time over the passes, each time mapped by
    /// `time(start, wall)`.
    fn per_op(&self, time: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut times = vec![Vec::new(); self.ops];
        for &(op, start, wall) in &self.timed {
            times[op].push(time(start, wall));
        }
        times.iter().map(|t| median(t)).collect()
    }
}

/// The time the untraced passes may take.
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether pass `pass` may run an operation that took `last` seconds
    /// the pass before: pass 0 runs every operation, later passes only those
    /// that should end within the budget.
    fn allows(&self, pass: usize, last: f64) -> bool {
        pass == 0 || self.start.elapsed().as_secs_f64() + last <= self.seconds
    }
}

/// Runs `pass(index, budget)` until a pass returns false because it stopped
/// at an operation that would end past `seconds`. The last pass is then
/// partial, so that the whole budget times operations.
fn passes(seconds: f64, mut pass: impl FnMut(usize, &Budget) -> bool) {
    let budget = Budget::new(seconds);
    for n in 0.. {
        if !pass(n, &budget) {
            return;
        }
    }
}

/// The fixed smoke-budget attacker of `attack` and `fleet`.
fn smoke_attacker() -> Moscons {
    Moscons::profile(&inputs::profiling_suite(), inputs::smoke_config())
}

/// Op accuracy and `AccuracyL` of one extraction against ground truth.
fn score(m: &Moscons, target: &Target, e: &Extraction, raw: &RawTrace) -> (f64, f64) {
    let labeled = LabeledTrace::from_raw(raw, target.model.name.clone());
    let op = bench::op_accuracy_vs_truth(e, &labeled, m.config().gap.th_gap).unwrap_or(0.0);
    (
        op,
        score_structure(&target.model, &e.layers, e.optimizer).layers,
    )
}

fn specs(m: &Moscons, targets: &[Target]) -> Vec<SessionSpec> {
    targets
        .iter()
        .map(|t| SessionSpec {
            victim: t.session.clone(),
            seed: t.seed,
            gpu: m.config().gpu.clone(),
        })
        .collect()
}

/// Streams `targets` through one `run_fleet` (and, traced, through the
/// per-layer re-drive) and checks each session's report against `batch`.
/// Returns the label latencies in samples.
fn stream_check(
    m: &Moscons,
    targets: &[Target],
    batch: &[Option<AttackReport>],
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
) -> Vec<f64> {
    let specs = specs(m, targets);
    let config = FleetConfig::default();
    let fleet = || catch_unwind(AssertUnwindSafe(|| run_fleet(m, &specs, &config)));
    let outcome = match tracer.as_deref_mut() {
        Some(t) => t.time("core.fleet.run", fleet),
        None => fleet(),
    };
    let Ok(outcome) = outcome else {
        for _ in targets {
            ledger.op(true);
        }
        ledger.check(false, || "stream check: run_fleet panicked".into());
        return Vec::new();
    };
    if let Some(t) = tracer.as_deref_mut() {
        t.count("core.fleet.rounds", outcome.rounds as f64);
    }
    let mut lags = Vec::new();
    for ((target, session), expected) in targets.iter().zip(&outcome.sessions).zip(batch) {
        let report = session.extraction.report();
        let mut ok = ledger.check(expected.as_ref() == Some(&report), || {
            format!(
                "stream check: victim {} streamed != batch",
                target.model.name
            )
        });
        if let Some(t) = tracer.as_deref_mut() {
            let redriven = layers::stream(t, m, target, &m.config().gpu, config.poll_steps);
            ok &= ledger.check(redriven.report() == report, || {
                format!(
                    "stream check: victim {} re-driven != run_fleet",
                    target.model.name
                )
            });
        }
        ledger.op(!ok || report.iterations.is_empty());
        lags.extend(session.label_latencies.iter().map(|&l| l as f64));
    }
    lags
}

/// Checks a per-layer re-fit against the profiled instance on one trace.
fn check_refit(ledger: &mut Ledger, refit: &layers::Refit, m: &Moscons, raw: &RawTrace) -> bool {
    let features = moscons::cache::counter_feature_matrix(raw);
    let mismatches = layers::refit_mismatches(refit, m, &features);
    ledger.check(mismatches.is_empty(), || {
        format!("re-fit differs from Moscons::profile in {:?}", mismatches)
    })
}

/// End-to-end metrics shared by every workload.
struct EndToEnd {
    /// Items (profiled models, attacked victims, streamed labels) per pass.
    items: f64,
    timings: Timings,
    lags: Vec<f64>,
    scores: Vec<(f64, f64)>,
    /// Each set-up's `(start, wall seconds)`.
    setups: Vec<(f64, f64)>,
    /// `VmHWM` after the timed passes, before the output checks and scoring
    /// allocate for themselves.
    peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics with times scaled to reference speed, and the time
    /// metrics again unscaled.
    fn metrics(&self, speeds: &Speeds) -> (Vec<Metric>, Vec<Metric>) {
        let times = |time: &dyn Fn(f64, f64) -> f64| -> Vec<Metric> {
            let ops = self.timings.per_op(time);
            let setups: Vec<f64> = self.setups.iter().map(|&(s, w)| time(s, w)).collect();
            vec![
                ("items_per_s", self.items / ops.iter().sum::<f64>(), "1/s"),
                ("latency_p50_ms", percentile(&ops, 50.0) * 1e3, "ms"),
                ("latency_p95_ms", percentile(&ops, 95.0) * 1e3, "ms"),
                ("setup_s", median(&setups), "s"),
            ]
        };
        let ops: Vec<f64> = self.scores.iter().map(|s| s.0).collect();
        let layers: Vec<f64> = self.scores.iter().map(|s| s.1).collect();
        let mut metrics = times(&|start, wall| wall * speeds.scale(start, wall));
        metrics.extend([
            (
                "label_lag_p99_samples",
                percentile(&self.lags, 99.0),
                "samples",
            ),
            ("op_accuracy", mean(&ops), "fraction"),
            ("layer_accuracy", mean(&layers), "fraction"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]);
        (metrics, times(&|_, wall| wall))
    }

    /// Each complete pass's summed operation times, `(unscaled, scaled)`.
    /// Every pass times the operations in order, and only the last can be
    /// partial.
    fn pass_totals(&self, speeds: &Speeds) -> Vec<(f64, f64)> {
        self.timings
            .timed
            .chunks_exact(self.timings.ops)
            .map(|pass| {
                pass.iter()
                    .fold((0.0, 0.0), |(raw, scaled), &(_, start, wall)| {
                        (raw + wall, scaled + wall * speeds.scale(start, wall))
                    })
            })
            .collect()
    }
}

/// Per-layer busy times, `(metric, span)`.
const BUSY_SPANS: [(&str, &str); 20] = [
    ("core.trace.collect_s", "core.trace.collect"),
    ("core.cache.features_s", "core.cache.features"),
    ("core.dataset.label_s", "core.dataset.label"),
    ("core.gap.train_s", "core.gap.train"),
    ("core.gap.split_s", "core.gap.split"),
    ("core.long_ops.train_s", "core.long_ops.train"),
    ("core.other_ops.train_s", "core.other_ops.train"),
    ("core.voting.data_s", "core.voting.data"),
    ("core.voting.train_s", "core.voting.train"),
    ("core.hyperparams.train_s", "core.hyperparams.train"),
    (
        "core.hyperparams.filters.train_s",
        "core.hyperparams.filters.train",
    ),
    (
        "core.hyperparams.filter_size.train_s",
        "core.hyperparams.filter_size.train",
    ),
    (
        "core.hyperparams.neurons.train_s",
        "core.hyperparams.neurons.train",
    ),
    (
        "core.hyperparams.stride.train_s",
        "core.hyperparams.stride.train",
    ),
    (
        "core.hyperparams.optimizer.train_s",
        "core.hyperparams.optimizer.train",
    ),
    ("core.long_ops.predict_s", "core.long_ops.predict"),
    ("core.other_ops.predict_s", "core.other_ops.predict"),
    ("core.hyperparams.predict_s", "core.hyperparams.predict"),
    ("core.trace.poll_s", "core.trace.poll"),
    ("core.stream.push_s", "core.stream.push"),
];

/// Per-layer work counts, recorded under the metric's own name.
const COUNTS: [&str; 6] = [
    "core.trace.samples",
    "core.gap.iterations",
    "ml.seq.train_timesteps",
    "core.trace.poll_calls",
    "core.stream.segments_closed",
    "core.fleet.rounds",
];

/// Per-layer metrics of a traced run.
fn per_layer(t: &Tracer, traced_s: f64, untraced_s: f64) -> Vec<Metric> {
    let mut out: Vec<_> = BUSY_SPANS
        .iter()
        .map(|&(metric, span)| (metric, t.busy_s(span), "s"))
        .chain(COUNTS.iter().map(|&c| (c, t.counted(c), "count")))
        .collect();
    let busy = |span| t.busy_s(span);
    let seq_train_s = busy("core.long_ops.train")
        + busy("core.other_ops.train")
        + busy("core.voting.train")
        + busy("core.hyperparams.train");
    let extract_parts = busy("core.gap.split")
        + busy("core.long_ops.predict")
        + busy("core.other_ops.predict")
        + busy("core.hyperparams.predict");
    let pushes: Vec<f64> = t
        .durations_ns("core.stream.push")
        .map(|d| d as f64)
        .collect();
    let samples = t.counted("core.trace.samples").max(1.0);
    out.extend([
        (
            "core.trace.us_per_sample",
            busy("core.trace.collect") * 1e6 / samples,
            "us",
        ),
        (
            "ml.seq.timesteps_per_s",
            t.counted("ml.seq.train_timesteps") / seq_train_s.max(1e-9),
            "1/s",
        ),
        (
            "core.attack.assemble_s",
            busy("core.extract") - extract_parts,
            "s",
        ),
        (
            "core.stream.push_p99_us",
            percentile(&pushes, 99.0) / 1e3,
            "us",
        ),
        ("bench.untraced_total_s", untraced_s, "s"),
        ("bench.traced_total_s", traced_s, "s"),
        (
            "bench.trace_overhead",
            traced_s / untraced_s - 1.0,
            "fraction",
        ),
    ]);
    out
}

/// `profile`: `Moscons::profile` at the paper budget, 1 pool worker.
pub fn profile(run: &Run) -> Outcome {
    let config = AttackConfig::default();
    let cal = Calibrator::start(1);
    let (setups, (suite, held_out)) =
        repeated_setup(&cal, LIGHT_SETUP_REPS, LIGHT_SETUP_SPACING, || {
            (
                inputs::profiling_suite(),
                inputs::targets(HELD_OUT_VICTIMS, inputs::HELD_OUT_CATALOG_SEED, run.seed),
            )
        });
    ml::par::with_threads(1, || {
        let profile_once = |suite: &[TrainingSession]| {
            cal.time(|| catch_unwind(AssertUnwindSafe(|| Moscons::profile(suite, config.clone()))))
        };
        let mut ledger = Ledger::default();
        let mut walls = Vec::new();
        let mut timings = Timings::new(1);
        let mut instances = Vec::new();
        let mut tracer = run.traced.then(Tracer::new);
        let mut refit = None;
        if let Some(t) = tracer.as_mut() {
            let (_, wall, m) = profile_once(&suite);
            walls.push(wall);
            instances.push(m);
            refit = Some(layers::refit(t, &suite, &config));
        } else {
            passes(run.seconds, |pass, budget| {
                if !budget.allows(pass, timings.last[0]) {
                    return false;
                }
                let (start, wall, m) = profile_once(&suite);
                walls.push(wall);
                timings.record(0, start, wall);
                instances.push(m);
                true
            });
        }
        let speeds = cal.finish();
        let peak_rss_mb = peak_rss_mb();
        let Some(Ok(m)) = instances.first() else {
            ledger.check(false, || "Moscons::profile panicked".into());
            return failed_outcome(ledger, 1);
        };

        // Score the first instance on the held-out victims. Every other
        // pass's attacker must extract the same reports from the same traces.
        let mut batch = Vec::new();
        let mut scores = Vec::new();
        let mut pass_same = vec![true; instances.len()];
        let mut refit_ok = true;
        for (i, target) in held_out.iter().enumerate() {
            let attacked = catch_unwind(AssertUnwindSafe(|| match tracer.as_mut() {
                Some(t) => layers::attack(t, m, target),
                None => {
                    let (e, raw) = m.attack(&target.session, target.seed);
                    (e, raw, true)
                }
            }));
            let Ok((e, raw, agrees)) = attacked else {
                ledger.op(true);
                batch.push(None);
                continue;
            };
            let ok = ledger.check(agrees, || {
                format!(
                    "victim {}: probe iterations != extraction",
                    target.model.name
                )
            });
            ledger.op(!ok || e.iterations.is_empty());
            scores.push(score(m, target, &e, &raw));
            let report = e.report();
            if instances.len() > 1 {
                let features = moscons::cache::counter_feature_matrix(&raw);
                for (same, other) in pass_same.iter_mut().zip(&instances).skip(1) {
                    *same &= other
                        .as_ref()
                        .is_ok_and(|o| o.extract(&features).report() == report);
                }
            }
            if let (0, Some(r)) = (i, &refit) {
                refit_ok = check_refit(&mut ledger, r, m, &raw);
            }
            batch.push(Some(report));
        }
        for (pass, &same) in pass_same.iter().enumerate() {
            let ok = if pass == 0 {
                refit_ok
            } else {
                ledger.check(same, || format!("profile pass {pass} differs from pass 0"))
            };
            for _ in 0..suite.len() {
                ledger.op(!ok);
            }
        }
        let lags = stream_check(
            m,
            &held_out[..STREAM_CHECKS],
            &batch[..STREAM_CHECKS],
            &mut ledger,
            tracer.as_mut(),
        );

        let digest = digest(batch.iter().map(Option::as_ref));
        let mut passes = Vec::new();
        let (metrics, raw) = match &tracer {
            Some(t) => (per_layer(t, t.busy_s("core.profile"), walls[0]), Vec::new()),
            None => {
                let e2e = EndToEnd {
                    items: suite.len() as f64,
                    timings,
                    lags,
                    scores,
                    setups,
                    peak_rss_mb,
                };
                passes = e2e.pass_totals(&speeds);
                e2e.metrics(&speeds)
            }
        };
        let mut o = outcome(ledger, 1, (metrics, raw), digest, tracer);
        (o.calibration, o.passes) = (speeds.describe(), passes);
        o
    })
}

/// `attack`: a closed loop of `Moscons::attack` on distinct victims, 1 pool
/// worker.
pub fn attack(run: &Run) -> Outcome {
    let cal = Calibrator::start(1);
    ml::par::with_threads(1, || {
        let (setups, (m, victims)) = repeated_setup(&cal, SMOKE_SETUP_REPS, Duration::ZERO, || {
            (
                smoke_attacker(),
                inputs::targets(ATTACK_VICTIMS, inputs::ATTACK_CATALOG_SEED, run.seed),
            )
        });
        let mut ledger = Ledger::default();
        let mut timings = Timings::new(victims.len());
        let mut batch: Vec<Option<AttackReport>> = Vec::new();
        let mut scores = Vec::new();
        // One pass over the victims; returns its summed attack time, or
        // None when the budget ended it early.
        let mut pass_fn = |pass: usize, ledger: &mut Ledger, budget: &Budget| -> Option<f64> {
            let mut pass_s = 0.0;
            for (i, target) in victims.iter().enumerate() {
                if !budget.allows(pass, timings.last[i]) {
                    return None;
                }
                let (start, wall, attacked) = cal.time(|| {
                    catch_unwind(AssertUnwindSafe(|| m.attack(&target.session, target.seed)))
                });
                timings.record(i, start, wall);
                pass_s += wall;
                let report = attacked.ok().map(|(e, raw)| {
                    if pass == 0 {
                        scores.push(score(&m, target, &e, &raw));
                    }
                    e.report()
                });
                let ok = if pass == 0 {
                    batch.push(report.clone());
                    true
                } else {
                    ledger.check(report == batch[i], || {
                        format!("attack pass {pass}: victim {i} differs from pass 0")
                    })
                };
                ledger.op(!ok || report.is_none_or(|r| r.iterations.is_empty()));
            }
            Some(pass_s)
        };
        let mut tracer = None;
        let mut untraced_s = 0.0;
        if run.traced {
            let mut t = Tracer::new();
            let refit = layers::refit(&mut t, &inputs::profiling_suite(), &inputs::smoke_config());
            untraced_s = pass_fn(0, &mut ledger, &Budget::new(f64::INFINITY)).unwrap_or_default();
            for (i, target) in victims.iter().enumerate() {
                let (e, raw, agrees) = layers::attack(&mut t, &m, target);
                ledger.check(agrees && batch[i] == Some(e.report()), || {
                    format!("traced attack: victim {i} differs from untraced")
                });
                if i == 0 {
                    check_refit(&mut ledger, &refit, &m, &raw);
                }
            }
            tracer = Some(t);
        } else {
            passes(run.seconds, |pass, budget| {
                pass_fn(pass, &mut ledger, budget).is_some()
            });
        }
        let speeds = cal.finish();
        let peak_rss_mb = peak_rss_mb();
        let lags = stream_check(
            &m,
            &victims[..STREAM_CHECKS],
            &batch[..STREAM_CHECKS],
            &mut ledger,
            tracer.as_mut(),
        );
        let digest = digest(batch.iter().map(Option::as_ref));
        let mut passes = Vec::new();
        let (metrics, raw) = match &tracer {
            Some(t) => (per_layer(t, t.busy_s("attack"), untraced_s), Vec::new()),
            None => {
                let e2e = EndToEnd {
                    items: victims.len() as f64,
                    timings,
                    lags,
                    scores,
                    setups,
                    peak_rss_mb,
                };
                passes = e2e.pass_totals(&speeds);
                e2e.metrics(&speeds)
            }
        };
        let mut o = outcome(ledger, 1, (metrics, raw), digest, tracer);
        (o.calibration, o.passes) = (speeds.describe(), passes);
        o
    })
}

/// `fleet`: victims streamed through `run_fleet` in fleets of
/// [`FLEET_SIZE`], 2 pool workers.
pub fn fleet(run: &Run) -> Outcome {
    const WORKERS: usize = 2;
    let cal = Calibrator::start(WORKERS);
    ml::par::with_threads(WORKERS, || {
        let (setups, (m, victims)) = repeated_setup(&cal, SMOKE_SETUP_REPS, Duration::ZERO, || {
            (
                smoke_attacker(),
                inputs::targets(FLEET_VICTIMS, inputs::FLEET_CATALOG_SEED, run.seed),
            )
        });
        let specs = specs(&m, &victims);
        let config = FleetConfig::default();
        let mut ledger = Ledger::default();
        let mut timings = Timings::new(specs.len().div_ceil(FLEET_SIZE));
        let mut labels = 0usize;
        let mut lags = Vec::new();
        let mut streamed: Vec<Option<AttackReport>> = Vec::new();
        let mut tracer = run.traced.then(Tracer::new);
        // One pass over the fleets; returns its summed `run_fleet` time, or
        // None when the budget ended it early. Pass 0's sessions are
        // recorded after the batch check below.
        let mut pass_fn = |pass: usize,
                           ledger: &mut Ledger,
                           budget: &Budget,
                           mut t: Option<&mut Tracer>|
         -> Option<f64> {
            let mut pass_s = 0.0;
            for (f, chunk) in specs.chunks(FLEET_SIZE).enumerate() {
                if !budget.allows(pass, timings.last[f]) {
                    return None;
                }
                let fleet = || catch_unwind(AssertUnwindSafe(|| run_fleet(&m, chunk, &config)));
                let (start, wall, outcome) = match t.as_deref_mut() {
                    Some(t) => cal.time(|| t.time("core.fleet.run", fleet)),
                    None => cal.time(fleet),
                };
                timings.record(f, start, wall);
                pass_s += wall;
                let reports: Vec<Option<AttackReport>> = match &outcome {
                    Ok(o) => o
                        .sessions
                        .iter()
                        .map(|s| Some(s.extraction.report()))
                        .collect(),
                    Err(_) => vec![None; chunk.len()],
                };
                if let Ok(o) = &outcome {
                    if let Some(t) = t.as_deref_mut() {
                        t.count("core.fleet.rounds", o.rounds as f64);
                    }
                    if pass == 0 {
                        labels += o.sessions.iter().map(|s| s.labels_emitted()).sum::<usize>();
                        let session_lags = o.sessions.iter().flat_map(|s| &s.label_latencies);
                        lags.extend(session_lags.map(|&l| l as f64));
                    }
                }
                for (j, report) in reports.into_iter().enumerate() {
                    let i = f * FLEET_SIZE + j;
                    if pass == 0 {
                        streamed.push(report);
                    } else {
                        let ok = ledger.check(report == streamed[i], || {
                            format!("fleet pass {pass}: session {i} differs from pass 0")
                        });
                        ledger.op(!ok || report.is_none_or(|r| r.iterations.is_empty()));
                    }
                }
            }
            Some(pass_s)
        };
        let mut untraced_s = 0.0;
        let mut refit = None;
        let mut redriven_ok = vec![true; victims.len()];
        if let Some(t) = tracer.as_mut() {
            refit = Some(layers::refit(
                t,
                &inputs::profiling_suite(),
                &inputs::smoke_config(),
            ));
            let unlimited = Budget::new(f64::INFINITY);
            untraced_s = pass_fn(0, &mut ledger, &unlimited, None).unwrap_or_default();
            pass_fn(1, &mut ledger, &unlimited, Some(t));
            for (i, target) in victims.iter().enumerate() {
                let redriven = layers::stream(t, &m, target, &specs[i].gpu, config.poll_steps);
                redriven_ok[i] = ledger.check(streamed[i] == Some(redriven.report()), || {
                    format!("fleet session {i}: re-driven stream != run_fleet")
                });
            }
        } else {
            passes(run.seconds, |pass, budget| {
                pass_fn(pass, &mut ledger, budget, None).is_some()
            });
        }
        let speeds = cal.finish();
        let peak_rss_mb = peak_rss_mb();

        // Each streamed extraction must equal the batch attack on the same
        // victim, seed and GPU.
        let mut scores = Vec::new();
        for (i, (target, spec)) in victims.iter().zip(&specs).enumerate() {
            let attacked = catch_unwind(AssertUnwindSafe(|| match tracer.as_mut() {
                Some(t) => layers::attack(t, &m, target),
                None => {
                    let (e, raw) = m.attack_on(&spec.victim, spec.seed, &spec.gpu);
                    (e, raw, true)
                }
            }));
            let matches = attacked.is_ok_and(|(e, raw, agrees)| {
                scores.push(score(&m, target, &e, &raw));
                if let (0, Some(r)) = (i, &refit) {
                    check_refit(&mut ledger, r, &m, &raw);
                }
                agrees && streamed[i] == Some(e.report())
            });
            let ok = ledger.check(matches, || {
                format!("fleet session {i}: streamed != Moscons::attack_on")
            });
            let empty = streamed[i].as_ref().is_none_or(|r| r.iterations.is_empty());
            ledger.op(!ok || !redriven_ok[i] || empty);
        }
        let digest = digest(streamed.iter().map(Option::as_ref));
        let mut passes = Vec::new();
        let (metrics, raw) = match &tracer {
            Some(t) => (
                per_layer(t, t.busy_s("core.fleet.run"), untraced_s),
                Vec::new(),
            ),
            None => {
                let e2e = EndToEnd {
                    items: labels as f64,
                    timings,
                    lags,
                    scores,
                    setups,
                    peak_rss_mb,
                };
                passes = e2e.pass_totals(&speeds);
                e2e.metrics(&speeds)
            }
        };
        let mut o = outcome(ledger, WORKERS, (metrics, raw), digest, tracer);
        (o.calibration, o.passes) = (speeds.describe(), passes);
        o
    })
}

fn outcome(
    ledger: Ledger,
    workers: usize,
    (metrics, raw): (Vec<Metric>, Vec<Metric>),
    digest: u64,
    tracer: Option<Tracer>,
) -> Outcome {
    Outcome {
        workers,
        attempted: ledger.attempted,
        failed: ledger.failed,
        check_failures: ledger.checks,
        metrics,
        raw,
        digest,
        calibration: "null".into(),
        passes: Vec::new(),
        tracer,
    }
}

/// The outcome of a run that could not measure anything.
fn failed_outcome(ledger: Ledger, workers: usize) -> Outcome {
    let mut o = outcome(ledger, workers, (Vec::new(), Vec::new()), 0, None);
    o.attempted = o.attempted.max(1);
    o.failed = o.failed.max(1);
    o
}
