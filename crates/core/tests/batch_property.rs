//! Property test: batched Q inference matches per-sample prediction **bit
//! for bit** for all three trainable networks.
//!
//! The guarantee the population engine relies on: running an agent through
//! `BatchAgent::predict_batch` (one stacked matmul) is observationally
//! identical to the scalar `Agent::q_values` loop, so batched and scalar
//! execution can be swapped freely without perturbing any seeded experiment.

use elmrl_core::batch::{elm_q_batch_into, BatchAgent, BatchQScratch};
use elmrl_core::dqn::{DqnAgent, DqnConfig};
use elmrl_core::elm_qnet::{ElmQNet, ElmQNetConfig};
use elmrl_core::encoding::{ActionEncoding, StateActionEncoder};
use elmrl_core::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
use elmrl_core::{Agent, Observation};
use elmrl_elm::{ElmModel, HiddenActivation, OsElmConfig};
use elmrl_gym::Workload;
use elmrl_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const HIDDEN: usize = 8;

/// Random states in the post-normalisation range of the workloads.
fn random_states(rng: &mut SmallRng, batch: usize, dim: usize) -> Matrix<f64> {
    Matrix::from_fn(batch, dim, |_, _| rng.gen_range(-1.0..1.0))
}

/// Drive `count` distinct transitions into the agent so its β/weights are
/// non-trivial (an untrained network would pass the equality vacuously).
fn train_a_little(agent: &mut dyn Agent, rng: &mut SmallRng, dim: usize, actions: usize) {
    for i in 0..(HIDDEN + 70) {
        let state: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let next: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let done = i % 7 == 0;
        agent.observe(
            &Observation {
                state,
                action: i % actions,
                reward: if done { -1.0 } else { 0.0 },
                next_state: next,
                done,
                truncated: false,
            },
            rng,
        );
    }
}

const ACTIVATIONS: [HiddenActivation; 5] = [
    HiddenActivation::ReLU,
    HiddenActivation::LeakyReLU,
    HiddenActivation::HardTanh,
    HiddenActivation::HardSigmoid,
    HiddenActivation::Identity,
];

/// Evaluate a random `batch × state_dim` state matrix through
/// `elm_q_batch_into` and require every `(state, action)` Q to equal the
/// first output of `ElmModel::predict_single` on the encoded pair, bit for
/// bit. The model and states are drawn from `seed`, with pre-activations
/// wide enough to reach every activation's saturating and negative branches.
#[allow(clippy::too_many_arguments)]
fn assert_batch_q_equals_predict_single(
    seed: u64,
    batch: usize,
    state_dim: usize,
    actions: usize,
    hidden: usize,
    outputs: usize,
    activation: HiddenActivation,
    encoding: ActionEncoding,
) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let encoder = StateActionEncoder::with_encoding(state_dim, actions, encoding);
    let config = OsElmConfig::new(encoder.input_dim(), hidden, outputs)
        .with_init_range(-1.0, 1.0)
        .with_activation(activation);
    let mut model = ElmModel::<f64>::new(&config, &mut rng);
    model.set_beta(Matrix::from_fn(hidden, outputs, |_, _| {
        rng.gen_range(-1.5..1.5)
    }));
    let states = Matrix::from_fn(batch, state_dim, |_, _| rng.gen_range(-3.0..3.0));
    let mut scratch = BatchQScratch::default();
    elm_q_batch_into(&encoder, &model, &states, &mut scratch);
    let q = scratch.q();
    prop_assert_eq!(q.shape(), (batch, actions));
    for i in 0..batch {
        for (action, input) in encoder.encode_all_actions(states.row(i)).iter().enumerate() {
            let expected = model.predict_single(input)[0];
            prop_assert!(
                q[(i, action)].to_bits() == expected.to_bits(),
                "{:?}/{:?} m={}: Q[{}, {}] = {} but predict_single = {}",
                activation,
                encoding,
                outputs,
                i,
                action,
                q[(i, action)],
                expected
            );
        }
    }
    Ok(())
}

/// `predict_batch` must equal the row-by-row `q_values` loop exactly.
fn assert_bitwise_batch_equality<A: BatchAgent + ?Sized>(
    agent: &mut A,
    states: &Matrix<f64>,
) -> Result<(), TestCaseError> {
    let batched = agent.predict_batch(states);
    prop_assert_eq!(batched.rows(), states.rows());
    for i in 0..states.rows() {
        let scalar = agent.q_values(states.row(i));
        prop_assert_eq!(batched.row(i), scalar.as_slice());
    }
    // Nothing may be approximate: a second batched pass is identical too.
    let again = agent.predict_batch(states);
    prop_assert_eq!(batched, again);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_scalar_kernel_equals_predict_single_for_every_activation(
        seed in 0u64..1000,
        batch in 1usize..10,
        (state_dim, actions, hidden) in (1usize..7, 2usize..5, 1usize..20),
    ) {
        // The single-output scalar-encoding route: the fused
        // activation · β kernel, with 4-pair groups and every tail.
        for activation in ACTIVATIONS {
            assert_batch_q_equals_predict_single(
                seed, batch, state_dim, actions, hidden, 1, activation, ActionEncoding::Scalar,
            )?;
        }
    }

    #[test]
    fn multi_output_and_one_hot_take_the_generic_route(
        seed in 0u64..1000,
        batch in 1usize..10,
        (state_dim, actions, hidden) in (1usize..7, 2usize..5, 1usize..20),
    ) {
        // The fused kernel reads β as one column; with m > 1 or a one-hot
        // encoding it must not run, and the generic stacked route must
        // still match the first output of predict_single.
        for activation in ACTIVATIONS {
            assert_batch_q_equals_predict_single(
                seed, batch, state_dim, actions, hidden, 3, activation, ActionEncoding::Scalar,
            )?;
            assert_batch_q_equals_predict_single(
                seed, batch, state_dim, actions, hidden, 1, activation, ActionEncoding::OneHot,
            )?;
        }
    }

    #[test]
    fn elm_qnet_batched_equals_per_sample(seed in 0u64..500, batch in 1usize..12) {
        let spec = Workload::CartPole.spec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = ElmQNet::new(ElmQNetConfig::for_workload(&spec, HIDDEN), &mut rng);
        train_a_little(&mut agent, &mut rng, spec.observation_dim, spec.num_actions);
        assert!(agent.is_trained());
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_bitwise_batch_equality(&mut agent, &states)?;
    }

    #[test]
    fn oselm_qnet_batched_equals_per_sample(seed in 0u64..500, batch in 1usize..12) {
        // Cover both spectral-normalised and plain variants via the seed.
        let spectral = seed % 2 == 0;
        let spec = Workload::MountainCar.spec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = OsElmQNet::new(
            OsElmQNetConfig::for_workload(&spec, HIDDEN, 0.5, spectral),
            &mut rng,
        );
        train_a_little(&mut agent, &mut rng, spec.observation_dim, spec.num_actions);
        assert!(agent.is_initialized());
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_bitwise_batch_equality(&mut agent, &states)?;
    }

    #[test]
    fn dqn_batched_equals_per_sample(seed in 0u64..500, batch in 1usize..12) {
        let spec = Workload::Pendulum.spec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = DqnAgent::new(DqnConfig::for_workload(&spec, HIDDEN), &mut rng);
        train_a_little(&mut agent, &mut rng, spec.observation_dim, spec.num_actions);
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_bitwise_batch_equality(&mut agent, &states)?;
    }

    #[test]
    fn boxed_batch_agents_also_match(seed in 0u64..200, batch in 1usize..8) {
        // The population engine holds `Box<dyn BatchAgent>`; the dynamic
        // dispatch path must preserve the equality too.
        use elmrl_core::designs::{Design, DesignConfig};
        let spec = Workload::Acrobot.spec();
        let config = DesignConfig::for_workload(&spec, HIDDEN);
        let mut rng = SmallRng::seed_from_u64(seed);
        let design = Design::software_designs()[(seed % 6) as usize];
        let mut agent = design.build_batch(&config, &mut rng);
        train_a_little(agent.as_mut(), &mut rng, spec.observation_dim, spec.num_actions);
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_bitwise_batch_equality(agent.as_mut(), &states)?;
    }
}
