//! `population-h256`: the multi-core training path.
//!
//! Passes of `PopulationRunner::run` alternate between OS-ELM-L2-Lipschitz
//! (f64) and FPGA (Q20): CartPole at Ñ=256, 8 replicas in 2 shards on the
//! pool pinned to `nproc` threads, `train_envs` = 8 (chunked batch RLS and
//! packed B×Ñ products) and a fixed episode budget. `P` is 512 KiB (f64) or
//! 256 KiB (Q20), L2-resident, so kernel bandwidth and pool scheduling do the
//! work; nothing is served.
//!
//! The traced run times each pass from outside, then replays every replica
//! through `Trainer::run_vec` with a [`TimedAgent`] and a `VecEnv` of
//! [`TimedEnv`]s — once bare, once wrapped — and checks both replays against
//! the pass's report.

use crate::calib::{Calibrator, CALIBRATION_SHARE};
use crate::probe::{AgentProbe, EnvProbe, TimedAgent, TimedEnv};
use crate::stats::{geomean, mean};
use crate::{
    build_agent, reconcile, report_agent_layers, report_layer_totals, report_setups,
    report_slowdown, Dut, LayerTotals, RunReport, FPGA, OSELM,
};
use elmrl_core::batch::BatchAgent;
use elmrl_core::designs::Design;
use elmrl_core::trainer::{Trainer, TrainerConfig, TrainingResult};
use elmrl_gym::{Environment, VecEnv, Workload};
use elmrl_population::{
    replica_train_seed, split_seed, PopulationConfig, PopulationReport, PopulationRunner,
    ReplicaOutcome,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hidden width `Ñ`.
pub const HIDDEN: usize = 256;
/// Replicas per pass.
pub const REPLICAS: usize = 8;
/// Shards per pass.
pub const SHARDS: usize = 2;
/// Parallel training episodes per replica.
pub const TRAIN_ENVS: usize = 8;
/// Episode budget per replica.
pub const MAX_EPISODES: usize = 120;
/// The designs.
pub const DUTS: [Dut; 2] = [OSELM, FPGA];
/// Passes per design in the panel.
pub const PANEL_PASSES: u64 = 2;
/// Master seed of the panel's pass seeds. The panel is fixed so that every
/// run times the same passes (see `fig5::PANEL_SEED`).
const PANEL_SEED: u64 = 0x504f_5055;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Episode budget of each set-up warm-up replica.
const WARMUP_EPISODES: usize = 16;
/// Seed stream of the set-up warm-up passes (disjoint from the panel).
const WARMUP_STREAM: u64 = 1 << 40;

/// The configuration of one pass of `dut` with master seed `seed`.
pub fn pass_config(dut: Dut, seed: u64) -> PopulationConfig {
    let mut config = PopulationConfig::new(Workload::CartPole, dut.design, HIDDEN, REPLICAS);
    config.shards = SHARDS;
    config.seed = seed;
    config.max_episodes = MAX_EPISODES;
    config.train_envs = TRAIN_ENVS;
    config
}

/// The pass list: the fixed panel (every design on every panel seed), in an
/// order drawn from the workload `seed`.
pub fn pass_list(seed: u64) -> Vec<(Dut, PopulationConfig)> {
    let mut passes: Vec<(Dut, PopulationConfig)> = (0..PANEL_PASSES)
        .flat_map(|j| DUTS.map(|dut| (dut, pass_config(dut, split_seed(PANEL_SEED, j)))))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..passes.len()).rev() {
        passes.swap(i, rng.gen_range(0..=i));
    }
    passes
}

/// Output checks of one replica of a pass.
pub fn check_replica(config: &PopulationConfig, r: &ReplicaOutcome) -> Vec<String> {
    let spec = config.workload.spec_with(config.options);
    let mut problems = Vec::new();
    let mut fail = |what: &str| {
        problems.push(format!(
            "{} seed {} replica {}: {what}",
            config.design.label(),
            config.seed,
            r.replica
        ))
    };
    if r.seed != replica_train_seed(config.seed, r.replica) {
        fail("seed is not the replica's derived stream");
    }
    if r.episodes_run == 0
        || r.episodes_run > config.max_episodes
        || r.returns.len() != r.episodes_run
    {
        fail("episode count inconsistent with the budget or the returns");
    }
    // Finished episodes pay +1 per step; episodes still in flight on other
    // slots when the replica stops add steps but no return.
    if r.returns.iter().sum::<f64>() > r.total_steps as f64 {
        fail("returns exceed the step count");
    }
    if r.returns.iter().any(|&x| !(1.0..=200.0).contains(&x)) {
        fail("an episode return is outside [1, 200]");
    }
    let c = spec.solve_criterion;
    let first_met = (0..r.returns.len()).find(|&j| c.met(&r.returns[..=j], r.returns[j]));
    if r.solved != r.solved_at_episode.is_some() || r.solved_at_episode != first_met {
        fail("solved flag disagrees with the solve criterion");
    }
    if !r.solved && r.episodes_run != config.max_episodes {
        fail("stopped unsolved before the budget");
    }
    match r.greedy_eval_return {
        Some(g) if (0.0..=200.0).contains(&g) => {}
        _ => fail("greedy evaluation return missing or out of range"),
    }
    problems
}

/// Run-level checks of a pass report; returns per-replica problem lists.
fn check_report(
    config: &PopulationConfig,
    rep: &PopulationReport,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut run_level = Vec::new();
    if rep.replicas.len() != config.population
        || rep.replicas.iter().enumerate().any(|(i, r)| r.replica != i)
    {
        run_level.push(format!(
            "seed {}: report does not cover every replica in order",
            config.seed
        ));
    }
    let solved = rep.replicas.iter().filter(|r| r.solved).count();
    if rep.solved != solved || rep.solve_rate != solved as f64 / config.population as f64 {
        run_level.push(format!(
            "seed {}: solve counts disagree with the replicas",
            config.seed
        ));
    }
    let per_replica = rep
        .replicas
        .iter()
        .map(|r| check_replica(config, r))
        .collect();
    (per_replica, run_level)
}

/// Every execution of one panel pass, plus its traced replays.
#[derive(Clone, Default)]
struct PassTally {
    walls: Vec<f64>,
    scaled: Vec<f64>,
    steps: u64,
    episodes: u64,
    solved: u64,
    replicas: u64,
    replay_bare_s: f64,
    replay_traced_s: f64,
    build_s: f64,
    env_s: f64,
    state_bytes: usize,
}

/// The workload's calibrator: one thread per pool thread, as the shards
/// run, on a matrix of the replicas' `P` size (L2-resident).
fn calibrator() -> Calibrator {
    Calibrator::new(rayon::current_num_threads(), HIDDEN)
}

/// Run the workload for `seconds` and report its metrics; `trace` selects
/// the per-layer run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    report_setups(&mut report, SETUP_REPEATS, calibrator(), setup_once);

    let env_probe = Arc::new(EnvProbe::default());
    let probes: BTreeMap<&str, Arc<AgentProbe>> = DUTS
        .iter()
        .map(|d| (d.tag, Arc::new(AgentProbe::default())))
        .collect();
    let list = pass_list(seed);
    let mut tallies = vec![PassTally::default(); list.len()];
    let mut loop_s = 0.0;
    let mut cal = calibrator();

    // The whole list once, then cycle until the time is up.
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    let mut k = 0;
    while k < list.len() || phase.elapsed() < budget {
        let i = k % list.len();
        let (dut, config) = &list[i];
        let start = Instant::now();
        let rep = PopulationRunner::new(config.clone()).run();
        let run_s = start.elapsed().as_secs_f64();
        if !trace {
            let scaled = cal.scale(CALIBRATION_SHARE, run_s);
            tallies[i].scaled.push(scaled);
        }

        let checks = Instant::now();
        let (mut per_replica, run_level) = check_report(config, &rep);
        for e in run_level {
            report.error(e);
        }
        let t = &mut tallies[i];
        t.walls.push(run_s);
        t.replicas = rep.replicas.len() as u64;
        t.solved = rep.solved as u64;
        t.steps = rep.replicas.iter().map(|r| r.total_steps as u64).sum();
        t.episodes = rep.replicas.iter().map(|r| r.episodes_run as u64).sum();
        loop_s += checks.elapsed().as_secs_f64();

        if trace {
            for (r, problems) in rep.replicas.iter().zip(per_replica.iter_mut()) {
                let bare = replay_replica(config, r.replica, None);
                let env_before = env_probe.step.busy_s() + env_probe.reset.busy_s();
                let traced =
                    replay_replica(config, r.replica, Some((&probes[dut.tag], &env_probe)));
                t.env_s += env_probe.step.busy_s() + env_probe.reset.busy_s() - env_before;
                let checks = Instant::now();
                if !replay_matches(r, &bare.training) || !replay_matches(r, &traced.training) {
                    problems.push(format!(
                        "{} seed {} replica {}: replay differs from the pass",
                        dut.tag, config.seed, r.replica
                    ));
                }
                t.replay_bare_s += bare.build_s + bare.run_s;
                t.replay_traced_s += traced.run_s;
                t.build_s += traced.build_s;
                t.state_bytes = t.state_bytes.max(traced.state_bytes);
                loop_s += checks.elapsed().as_secs_f64();
            }
        }
        for problems in per_replica {
            report.operation(problems);
        }
        k += 1;
    }
    let wall_s = phase.elapsed().as_secs_f64();

    let (mut replicas, mut solved) = (0, 0);
    let (mut accounted, mut bare_s, mut traced_s) = (loop_s, 0.0, 0.0);
    let (mut rates, mut pass_times) = (Vec::new(), Vec::new());
    let mut totals = LayerTotals::default();
    for dut in DUTS {
        let passes: Vec<&PassTally> = list
            .iter()
            .zip(&tallies)
            .filter(|((d, _), _)| d.tag == dut.tag)
            .map(|(_, t)| t)
            .collect();
        // Each pass is represented by the mean of its executions.
        let run_s: f64 = passes.iter().map(|t| mean(&t.walls)).sum();
        let sum = |f: fn(&PassTally) -> u64| passes.iter().map(|t| f(t)).sum::<u64>();
        let steps = sum(|t| t.steps);
        let executions = sum(|t| t.walls.len() as u64);
        replicas += sum(|t| t.replicas);
        solved += sum(|t| t.solved);
        let d = dut.tag;
        if !trace {
            let scaled_s: f64 = passes.iter().map(|t| mean(&t.scaled)).sum();
            rates.push(steps as f64 / scaled_s);
            pass_times.push(scaled_s / passes.len() as f64);
            report.metric(
                format!("train_steps_per_s.{}", dut.datapath),
                steps as f64 / run_s,
                "steps/s",
                executions,
            );
            continue;
        }
        let sum_s = |f: fn(&PassTally) -> f64| passes.iter().map(|t| f(t)).sum::<f64>();
        let (replay_traced_s, build_s, env_s) = (
            sum_s(|t| t.replay_traced_s),
            sum_s(|t| t.build_s),
            sum_s(|t| t.env_s),
        );
        let p = &probes[d];
        report.metric(format!("population.run_s.{d}"), run_s, "s", executions);
        report.metric(format!("population.steps.{d}"), steps as f64, "count", 1);
        report.metric(
            format!("population.episodes.{d}"),
            sum(|t| t.episodes) as f64,
            "count",
            1,
        );
        report.metric(
            format!("population.replicas_solved.{d}"),
            sum(|t| t.solved) as f64,
            "count",
            1,
        );
        let spans = (replay_traced_s, build_s, env_s);
        totals.self_s +=
            report_agent_layers(&mut report, dut, HIDDEN, p, spans, "replayed replica");
        totals.build_s += build_s;
        totals.state_bytes = totals
            .state_bytes
            .max(passes.iter().map(|t| t.state_bytes).max().unwrap_or(0));
        let all_walls: f64 = passes.iter().flat_map(|t| t.walls.iter()).sum();
        accounted += all_walls + sum_s(|t| t.replay_bare_s) + build_s + replay_traced_s;
        bare_s += sum_s(|t| t.replay_bare_s);
        traced_s += build_s + replay_traced_s;
    }
    if trace {
        let agents: Vec<&AgentProbe> = probes.values().map(|p| p.as_ref()).collect();
        report_layer_totals(&mut report, &agents, &env_probe, totals);
        let ops = report.attempted;
        reconcile(&mut report, wall_s, accounted, ops);
        report.metric(
            "trace.overhead_share",
            traced_s / bare_s - 1.0,
            "fraction",
            ops,
        );
        report.notes.push(format!(
            "trace overhead: traced replays {traced_s:.6} s against bare replays {bare_s:.6} s"
        ));
    } else {
        report.metric(
            "solve_rate",
            solved as f64 / replicas as f64,
            "fraction",
            replicas,
        );
        // Every design weighs alike, as on `fig5-h64`; a pass is the time
        // a user waits for one trained population. Both come from the
        // pass times scaled to the reference host speed.
        report_slowdown(&mut report, &cal);
        let executions = report.attempted;
        if let (Some(rate), Some(pass)) = (geomean(&rates), geomean(&pass_times)) {
            report.metric("throughput", rate, "1/s", executions);
            report.metric("op_time_ms", pass * 1e3, "ms", executions);
        }
    }
    report
}

/// One set-up: a small pass of each design on the pinned pool, so threads,
/// code and allocator state are warm. The same work in every run; the
/// budget is long enough for every replica's initial Ñ×Ñ training, so the
/// set-up does real kernel work rather than timing thread wake-ups alone.
fn setup_once() -> f64 {
    let start = Instant::now();
    for dut in DUTS {
        let mut config = pass_config(dut, split_seed(PANEL_SEED, WARMUP_STREAM));
        config.population = SHARDS;
        config.max_episodes = WARMUP_EPISODES;
        config.eval_episodes = 1;
        std::hint::black_box(PopulationRunner::new(config).run());
    }
    start.elapsed().as_secs_f64()
}

/// One replayed replica.
pub struct Replay {
    /// The training result.
    pub training: TrainingResult,
    /// Wall seconds of building the agent.
    pub build_s: f64,
    /// Wall seconds of `Trainer::run_vec`.
    pub run_s: f64,
    /// The agent's `memory_footprint_bytes` after training.
    pub state_bytes: usize,
}

/// Replay the training half of one replica exactly as the population
/// engine's `train_envs > 1` path runs it: agent from the replica's train
/// stream, an E-slot `VecEnv`, `Trainer::run_vec`. With `probes` the agent
/// and every environment are wrapped.
pub fn replay_replica(
    config: &PopulationConfig,
    replica: usize,
    probes: Option<(&Arc<AgentProbe>, &Arc<EnvProbe>)>,
) -> Replay {
    let spec = config.workload.spec_with(config.options);
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: config.max_episodes,
        reset_after_episodes: if config.design == Design::Dqn {
            None
        } else {
            spec.defaults.reset_after_episodes
        },
        stop_when_solved: true,
        solve_criterion: spec.solve_criterion,
        solved_window: 100,
        reward_shaping: spec.reward_shaping,
    });
    let mut rng = SmallRng::seed_from_u64(replica_train_seed(config.seed, replica));
    let start = Instant::now();
    let inner = build_agent(config.design, &spec, config.hidden_dim, &mut rng);
    let build_s = start.elapsed().as_secs_f64();
    let (mut agent, mut vec_env): (Box<dyn BatchAgent + Send>, VecEnv) = match probes {
        None => (inner, VecEnv::from_spec(&spec, config.train_envs)),
        Some((agent_probe, env_probe)) => (
            Box::new(TimedAgent::new(inner, agent_probe.clone())),
            VecEnv::new(
                (0..config.train_envs)
                    .map(|_| {
                        Box::new(TimedEnv::new(spec.make_env(), env_probe.clone()))
                            as Box<dyn Environment>
                    })
                    .collect(),
            ),
        ),
    };
    let start = Instant::now();
    let training = trainer.run_vec(agent.as_mut(), &mut vec_env, &mut rng);
    Replay {
        training,
        build_s,
        run_s: start.elapsed().as_secs_f64(),
        state_bytes: agent.memory_footprint_bytes(),
    }
}

/// Whether a replayed replica reproduces the pass's training outcome.
pub fn replay_matches(outcome: &ReplicaOutcome, replay: &TrainingResult) -> bool {
    outcome.solved == replay.solved
        && outcome.solved_at_episode == replay.solved_at_episode
        && outcome.episodes_run == replay.episodes_run
        && outcome.total_steps == replay.total_steps
        && outcome.resets == replay.resets
        && outcome.returns.len() == replay.stats.returns.len()
        && outcome
            .returns
            .iter()
            .zip(&replay.stats.returns)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}
