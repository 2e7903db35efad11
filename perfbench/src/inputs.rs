//! Seeded workload inputs.
//!
//! Every model architecture comes from `moscons::random_profiling_models`
//! under a fixed catalog seed, so each workload does the same amount of work
//! on every `--seed`: random architectures differ in cost by up to 10x (a
//! paper-budget profile of four of them takes 2.5 s for one draw and 22 s
//! for another), which would bury any change in seed-to-seed spread. The
//! run seed draws what the adversary does not choose: every victim layer's
//! activation and every victim's optimizer (the secrets the attack
//! recovers), and every victim's collection seed (the simulated GPU's timing
//! noise).

use bench::Scale;
use dnn_sim::{Activation, Layer, Model, Optimizer, TrainingSession};
use moscons::AttackConfig;

/// Seed of the adversary's profiling suite (the set `pipeline_perf` and
/// `fleet_bench` profile).
pub const PROFILING_SET_SEED: u64 = 7;
/// Models in a profiling suite.
pub const PROFILING_MODELS: usize = 4;
/// Architecture seed of the `attack` workload's victims.
pub const ATTACK_CATALOG_SEED: u64 = 1001;
/// Architecture seed of the `fleet` workload's victims.
pub const FLEET_CATALOG_SEED: u64 = 1002;
/// Architecture seed of the held-out victims that score a profiled attacker.
pub const HELD_OUT_CATALOG_SEED: u64 = 1003;

/// The benchmark runs at quick scale.
pub fn scale() -> Scale {
    Scale::quick()
}

/// SplitMix64: a stateless mixer, so each input draws from its own stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keeps `model`'s architecture and re-draws its secrets from `seed`: the
/// activation of every conv and dense layer, and the optimizer.
pub fn with_seeded_secrets(mut model: Model, seed: u64) -> Model {
    const ACTS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Sigmoid];
    let mut draw = 0u64;
    let mut next = |n: usize| {
        draw += 1;
        (mix(seed, draw) % n as u64) as usize
    };
    for layer in &mut model.layers {
        if let Layer::Conv2D { activation, .. } | Layer::Dense { activation, .. } = layer {
            *activation = ACTS[next(ACTS.len())];
        }
    }
    model.optimizer = Optimizer::ALL[next(Optimizer::ALL.len())];
    model
}

/// One model to profile or attack, with its collection seed.
pub struct Target {
    /// Ground truth.
    pub model: Model,
    /// The training run the spy observes.
    pub session: TrainingSession,
    /// Collection seed.
    pub seed: u64,
}

/// `count` targets on the architectures of `catalog_seed`, with secrets and
/// collection seeds drawn from `seed`.
pub fn targets(count: usize, catalog_seed: u64, seed: u64) -> Vec<Target> {
    let scale = scale();
    moscons::random_profiling_models(count, scale.input(), catalog_seed)
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let model = with_seeded_secrets(m, mix(seed, catalog_seed ^ ((i as u64) << 16)));
            Target {
                session: scale.session(model.clone()),
                model,
                seed: mix(seed, 0x0C01_1EC7 ^ catalog_seed ^ ((i as u64) << 20)),
            }
        })
        .collect()
}

/// The smoke budget of `pipeline_perf`: op LSTM 6 epochs at hidden 32,
/// voting 6 epochs, `Mhp` 4 epochs, 3 voting iterations.
pub fn smoke_config() -> AttackConfig {
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 6;
    config.op_lstm.hidden = 32;
    config.voting_lstm.epochs = 6;
    config.hp_lstm.epochs = 4;
    config.voting_iterations = 3;
    config
}

/// The adversary's profiling suite: the architectures and secrets
/// `random_profiling_models` draws for [`PROFILING_SET_SEED`].
///
/// Profiling is the adversary's own offline phase, on models and collection
/// settings she chooses, so the suite and its collection seeds are fixed:
/// every run seed profiles the same traces. With seeded collection noise, the
/// paper-budget attacker's layer accuracy moved by 29% (interquartile range
/// over median) from seed to seed, which would hide any real change.
pub fn profiling_suite() -> Vec<TrainingSession> {
    let scale = scale();
    moscons::random_profiling_models(PROFILING_MODELS, scale.input(), PROFILING_SET_SEED)
        .into_iter()
        .map(|m| scale.session(m))
        .collect()
}
