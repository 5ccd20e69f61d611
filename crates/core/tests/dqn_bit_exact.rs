//! Bit-exact pin of the DQN baseline over long training runs.
//!
//! The fig5 goldens only drive DQN at Ñ = 8 for a handful of episodes —
//! a few dozen gradient steps. This test runs the full trainer on CartPole
//! at the paper's larger widths for 100 episodes per seed (thousands of
//! replay mini-batch steps, one network re-initialisation included) and
//! folds everything the run leaves behind into one FNV-1a digest:
//!
//! * the bits of every episode return;
//! * the bits of the online Q-values at fixed probe states;
//! * the bits of the exported online and target parameters and of the
//!   Adam first/second moments (with their step counts).
//!
//! Any change to the order of a floating-point operation anywhere in the
//! forward pass, the backward pass, the optimiser or the replay sampling
//! lands on different bits, so the expected constants below hold only as
//! long as the DQN training step stays bit-identical.

use elmrl_core::agent::Agent;
use elmrl_core::dqn::{DqnAgent, DqnConfig};
use elmrl_core::trainer::{Trainer, TrainerConfig};
use elmrl_gym::{SolveCriterion, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;

const EPISODES: usize = 100;
const SEEDS: [u64; 3] = [3, 17, 2024];
const PROBES: [[f64; 4]; 4] = [
    [0.0, 0.0, 0.0, 0.0],
    [0.05, -0.02, 0.1, 0.04],
    [-0.3, 0.5, -0.08, -0.6],
    [1.2, -1.5, 0.15, 1.9],
];

/// 64-bit FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold every number of a snapshot subtree, in document order.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.word(0),
            Value::Bool(b) => self.word(u64::from(*b)),
            Value::Int(i) => self.word(*i as u64),
            Value::UInt(u) => self.word(*u),
            Value::Float(f) => self.word(f.to_bits()),
            Value::Str(s) => s.bytes().for_each(|b| self.word(u64::from(b))),
            Value::Seq(items) => {
                self.word(items.len() as u64);
                items.iter().for_each(|i| self.value(i));
            }
            Value::Map(fields) => fields.iter().for_each(|(_, f)| self.value(f)),
        }
    }
}

/// Train one DQN agent and digest the run.
fn digest(hidden: usize, seed: u64) -> u64 {
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = DqnAgent::new(DqnConfig::for_workload(&spec, hidden), &mut rng);
    let mut env = spec.make_env();
    let mut config = TrainerConfig::for_workload(&spec);
    config.max_episodes = EPISODES;
    config.stop_when_solved = false;
    // Gym's 100-episode moving-average criterion cannot be met before the
    // re-initialisation at episode 70, so the reset path is pinned too.
    config.solve_criterion = SolveCriterion::MovingAverage {
        threshold: 195.0,
        window: 100,
    };
    config.reset_after_episodes = Some(70);
    let result = Trainer::new(config).run(&mut agent, env.as_mut(), &mut rng);
    assert_eq!(result.episodes_run, EPISODES);
    assert_eq!(result.resets, 1);

    let mut h = Fnv::new();
    h.word(result.total_steps as u64);
    for r in &result.stats.returns {
        h.word(r.to_bits());
    }
    for probe in &PROBES {
        for q in agent.q_values(probe) {
            h.word(q.to_bits());
        }
    }
    let snapshot = agent.snapshot().expect("DQN supports snapshots");
    for field in ["online", "target", "optimizer"] {
        h.value(
            snapshot
                .state
                .get_field(field)
                .unwrap_or_else(|| panic!("DQN snapshot lacks `{field}`")),
        );
    }
    h.0
}

fn assert_pinned(hidden: usize, expected: [u64; 3]) {
    let got: Vec<u64> = SEEDS.iter().map(|&s| digest(hidden, s)).collect();
    assert_eq!(
        got,
        expected.to_vec(),
        "DQN at Ñ = {hidden} drifted from the pinned bits (got {got:#018x?})"
    );
}

#[test]
fn dqn_hidden_16_is_bit_exact() {
    assert_pinned(
        16,
        [
            0x670a_d399_61de_75b0,
            0x98ad_0a8d_4911_b3ab,
            0x8e7a_5b96_0ac1_c663,
        ],
    );
}

#[test]
fn dqn_hidden_64_is_bit_exact() {
    assert_pinned(
        64,
        [
            0x2665_8bef_a001_4f2c,
            0x7f11_007c_7bec_938f,
            0x8c66_fe50_0c3d_feed,
        ],
    );
}
