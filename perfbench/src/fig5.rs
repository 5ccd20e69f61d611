//! `fig5-h64`: the paper's Figure 5 protocol.
//!
//! CartPole at Ñ=64 on the scalar B=1 loop (`train_envs` = 1), the
//! registry's 2000-episode budget, stopping when solved. Trials of
//! OS-ELM-L2-Lipschitz (f64), FPGA (Q20) and DQN run one after another on
//! one thread through `harness::runner::run_trial`, round-robin over the
//! designs, each round sharing one trial seed. The per-step work is rank-1
//! RLS with an L1-resident `P`, the Q20 datapath and DQN replay + SGD;
//! nothing is batched and nothing is served.

use crate::calib::{Calibrator, CALIBRATION_SHARE};
use crate::probe::{AgentProbe, EnvProbe, TimedAgent, TimedEnv};
use crate::stats::{geomean, mean, median};
use crate::{
    build_agent, reconcile, report_agent_layers, report_layer_totals, report_setups,
    report_slowdown, Dut, LayerTotals, RunReport, DQN, FPGA, OSELM,
};
use elmrl_core::agent::Agent;
use elmrl_core::ops::OpKind;
use elmrl_core::trainer::{Trainer, TrainingResult};
use elmrl_harness::runner::{run_trial, TrialSpec};
use elmrl_harness::CostModel;
use elmrl_population::split_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hidden width `Ñ`.
pub const HIDDEN: usize = 64;
/// The designs, in trial order within a round.
pub const DUTS: [Dut; 3] = [OSELM, FPGA, DQN];
/// Rounds in the trial panel (one trial per design each).
pub const PANEL_ROUNDS: usize = 10;
/// Master seed of the panel's trial seeds. The panel is fixed so that every
/// run times the same trials: how many episodes a trial needs to solve
/// varies far more from seed to seed than any code change moves its speed.
const PANEL_SEED: u64 = 0x4649_4735;
/// Episode budget of each set-up warm-up trial.
const WARMUP_EPISODES: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Seed stream of the warm-up trials (disjoint from the panel's rounds).
const WARMUP_STREAM: u64 = 1 << 40;

/// The trial list: the fixed panel, its rounds in an order drawn from the
/// workload `seed`. Round `i` runs every design on trial seed
/// `split_seed(PANEL_SEED, i)`.
pub fn trial_list(seed: u64) -> Vec<(Dut, TrialSpec)> {
    let mut rounds: Vec<u64> = (0..PANEL_ROUNDS as u64)
        .map(|i| split_seed(PANEL_SEED, i))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..rounds.len()).rev() {
        rounds.swap(i, rng.gen_range(0..=i));
    }
    rounds
        .into_iter()
        .flat_map(|trial_seed| {
            DUTS.map(|dut| (dut, TrialSpec::new(dut.design, HIDDEN, trial_seed)))
        })
        .collect()
}

/// A trial's outcome without its host timings: what a traced and an
/// untraced run of one spec must agree on.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialFingerprint {
    design: String,
    hidden_dim: usize,
    solved: bool,
    solved_at_episode: Option<usize>,
    episodes_run: usize,
    total_steps: usize,
    resets: usize,
    return_bits: Vec<u64>,
    op_counts: Vec<(OpKind, u64)>,
    modeled_bits: u64,
}

impl TrialFingerprint {
    /// Fingerprint a training result and its modeled on-device seconds.
    pub fn of(training: &TrainingResult, modeled_seconds: f64) -> Self {
        Self {
            design: training.design.clone(),
            hidden_dim: training.hidden_dim,
            solved: training.solved,
            solved_at_episode: training.solved_at_episode,
            episodes_run: training.episodes_run,
            total_steps: training.total_steps,
            resets: training.resets,
            return_bits: training.stats.returns.iter().map(|r| r.to_bits()).collect(),
            op_counts: OpKind::all()
                .map(|k| (k, training.op_counts.count(k)))
                .to_vec(),
            modeled_bits: modeled_seconds.to_bits(),
        }
    }
}

/// Output checks of one trial. An unsolved trial is not a failure (it shows
/// in `solve_rate`); an inconsistent one is.
pub fn check_trial(spec: &TrialSpec, t: &TrainingResult) -> Vec<String> {
    let mut problems = Vec::new();
    let mut fail = |what: &str| problems.push(format!("{} seed {}: {what}", t.design, spec.seed));
    let returns = &t.stats.returns;
    let budget = spec.trainer.max_episodes;
    if t.episodes_run == 0 || t.episodes_run > budget || returns.len() != t.episodes_run {
        fail("episode count inconsistent with the budget or the returns");
    }
    // CartPole pays +1 per step, so the returns add up to the step count.
    if returns.iter().sum::<f64>() != t.total_steps as f64 {
        fail("returns do not add up to the step count");
    }
    if returns.iter().any(|&r| !(1.0..=200.0).contains(&r)) {
        fail("an episode return is outside [1, 200]");
    }
    let criterion = spec.trainer.solve_criterion;
    let first_met = (0..returns.len()).find(|&j| criterion.met(&returns[..=j], returns[j]));
    if t.solved != t.solved_at_episode.is_some() || t.solved_at_episode != first_met {
        fail("solved flag disagrees with the solve criterion");
    }
    if t.solved && t.solved_at_episode != Some(t.episodes_run - 1) {
        fail("did not stop at the solving episode");
    }
    if !t.solved && t.episodes_run != budget {
        fail("stopped unsolved before the budget");
    }
    if t.op_counts.total_count() == 0 {
        fail("no operations counted");
    }
    problems
}

/// Every timed execution of one panel trial.
#[derive(Clone, Default)]
struct TrialTally {
    walls: Vec<f64>,
    scaled: Vec<f64>,
    steps: u64,
    solved: bool,
}

/// Run the workload for `seconds` and report its metrics; `trace` selects
/// the per-layer run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    report_setups(&mut report, SETUP_REPEATS, calibrator(), setup_once);

    let list = trial_list(seed);
    if trace {
        traced(&list, seconds, &mut report);
    } else {
        untraced(&list, seconds, &mut report);
    }
    report
}

/// The workload's calibrator: one thread, as the trials run, on a matrix
/// of the trials' `P` size.
fn calibrator() -> Calibrator {
    Calibrator::new(1, HIDDEN)
}

/// One set-up: a short warm-up trial of every design, paging in code and
/// allocator state before anything is timed. The same work in every run.
fn setup_once() -> f64 {
    let start = Instant::now();
    for dut in DUTS {
        let spec = TrialSpec::new(dut.design, HIDDEN, split_seed(PANEL_SEED, WARMUP_STREAM))
            .with_max_episodes(WARMUP_EPISODES);
        std::hint::black_box(run_trial(&spec));
    }
    start.elapsed().as_secs_f64()
}

fn modeled_seconds(spec: &TrialSpec, training: &TrainingResult) -> f64 {
    let cost = CostModel::for_workload(&spec.workload.spec_with(spec.options), spec.hidden_dim);
    if spec.design == FPGA.design {
        cost.model_fpga(&training.op_counts).total_seconds
    } else {
        cost.model_software(&training.op_counts).total_seconds
    }
}

/// Runs the whole trial list once, then keeps cycling through it until
/// `seconds` have passed and the current round is complete. `each` gets the
/// list index.
fn for_each_trial(list: &[(Dut, TrialSpec)], seconds: f64, mut each: impl FnMut(usize)) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut k = 0;
    while k < list.len() || start.elapsed() < budget || k % DUTS.len() != 0 {
        each(k % list.len());
        k += 1;
    }
}

fn untraced(list: &[(Dut, TrialSpec)], seconds: f64, report: &mut RunReport) {
    let mut cal = calibrator();
    let mut tallies = vec![TrialTally::default(); list.len()];
    let mut seen: Vec<Option<TrialFingerprint>> = vec![None; list.len()];
    for_each_trial(list, seconds, |i| {
        let (dut, spec) = &list[i];
        let start = Instant::now();
        let result = run_trial(spec);
        let wall = start.elapsed().as_secs_f64();
        let scaled = cal.scale(CALIBRATION_SHARE, wall);

        let mut problems = check_trial(spec, &result.training);
        let print = TrialFingerprint::of(&result.training, result.modeled.total_seconds);
        match &seen[i] {
            Some(first) if *first != print => {
                problems.push(format!("{} seed {}: repeat differs", dut.tag, spec.seed))
            }
            _ => seen[i] = Some(print),
        }
        report.operation(problems);
        let t = &mut tallies[i];
        t.walls.push(wall);
        t.scaled.push(scaled);
        t.steps = result.training.total_steps as u64;
        t.solved = result.training.solved;
    });

    // Each trial is represented by the mean of its executions, and every
    // trial of the panel counts once, so the composition is the same in
    // every run.
    let mut solved_total = 0;
    let (mut rates, mut solve_times) = (Vec::new(), Vec::new());
    for dut in DUTS {
        let trials: Vec<&TrialTally> = list
            .iter()
            .zip(&tallies)
            .filter(|((d, _), _)| d.tag == dut.tag)
            .map(|(_, t)| t)
            .collect();
        let executions: u64 = trials.iter().map(|t| t.walls.len() as u64).sum();
        let solved = trials.iter().filter(|t| t.solved).count();
        solved_total += solved;
        let raw = summarise(&trials, |t| &t.walls);
        report.metric(
            format!("train_steps_per_s.{}", dut.datapath),
            raw.0,
            "steps/s",
            executions,
        );
        match raw.1 {
            Some(m) => report.metric(
                format!("time_to_solve_s.{}", dut.tag),
                m,
                "s",
                solved as u64,
            ),
            None => report
                .notes
                .push(format!("{}: no trial of the panel solved", dut.tag)),
        }
        let (rate, solve) = summarise(&trials, |t| &t.scaled);
        rates.push(rate);
        solve_times.extend(solve);
    }
    report.metric(
        "solve_rate",
        solved_total as f64 / list.len() as f64,
        "fraction",
        list.len() as u64,
    );
    // The end-to-end figures come from the scaled walls and weigh every
    // design alike: a given relative speed-up of any one design moves them
    // by the same amount.
    report_slowdown(report, &cal);
    let executions = report.attempted;
    if let Some(rate) = geomean(&rates) {
        report.metric("throughput", rate, "1/s", executions);
    }
    // Left unmeasured (a failed run) when a design solved no trial.
    if solve_times.len() == DUTS.len() {
        if let Some(t) = geomean(&solve_times) {
            report.metric("op_time_ms", t * 1e3, "ms", solved_total as u64);
        }
    }
}

/// The environment steps per second of one design's trials and the median
/// over its solved trials of their time; each trial's time is the mean of
/// its executions' `walls`, so every trial of the panel counts once.
fn summarise(trials: &[&TrialTally], walls: fn(&TrialTally) -> &[f64]) -> (f64, Option<f64>) {
    let means: Vec<f64> = trials.iter().map(|t| mean(walls(t))).collect();
    let steps: u64 = trials.iter().map(|t| t.steps).sum();
    let solved: Vec<f64> = trials
        .iter()
        .zip(&means)
        .filter(|(t, _)| t.solved)
        .map(|(_, &w)| w)
        .collect();
    (steps as f64 / means.iter().sum::<f64>(), median(&solved))
}

/// One traced trial: its outcome and the spans around it.
pub struct TracedTrial {
    /// The training result.
    pub training: TrainingResult,
    /// Modeled on-device seconds, as `run_trial` computes them.
    pub modeled_seconds: f64,
    /// The agent's `memory_footprint_bytes` at the end of the trial.
    pub state_bytes: usize,
    /// Wall seconds of building the agent.
    pub build_s: f64,
    /// Wall seconds of `Trainer::run`.
    pub run_s: f64,
}

/// Run one trial exactly as `run_trial` does on the scalar path, but with
/// the agent and environment wrapped.
pub fn traced_trial(
    spec: &TrialSpec,
    agent_probe: &Arc<AgentProbe>,
    env_probe: &Arc<EnvProbe>,
) -> TracedTrial {
    assert_eq!(
        spec.train_envs, 1,
        "the traced trial covers the scalar loop"
    );
    let env_spec = spec.workload.spec_with(spec.options);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let trainer = Trainer::new(spec.trainer.clone());
    let mut env = TimedEnv::new(env_spec.make_env(), env_probe.clone());
    let start = Instant::now();
    let inner = build_agent(spec.design, &env_spec, spec.hidden_dim, &mut rng);
    let build_s = start.elapsed().as_secs_f64();
    let mut agent = TimedAgent::new(inner, agent_probe.clone());
    let start = Instant::now();
    let training = trainer.run(&mut agent, &mut env, &mut rng);
    let run_s = start.elapsed().as_secs_f64();
    TracedTrial {
        modeled_seconds: modeled_seconds(spec, &training),
        state_bytes: agent.memory_footprint_bytes(),
        training,
        build_s,
        run_s,
    }
}

/// Per-design traced accumulators.
#[derive(Default)]
struct LayerTally {
    build_s: f64,
    run_s: f64,
    env_s: f64,
    reference_s: f64,
    state_bytes: usize,
    ops: BTreeMap<OpKind, u64>,
}

fn traced(list: &[(Dut, TrialSpec)], seconds: f64, report: &mut RunReport) {
    let env_probe = Arc::new(EnvProbe::default());
    let probes: BTreeMap<&str, Arc<AgentProbe>> = DUTS
        .iter()
        .map(|d| (d.tag, Arc::new(AgentProbe::default())))
        .collect();
    let mut tallies: BTreeMap<&str, LayerTally> = BTreeMap::new();
    let mut loop_s = 0.0;

    let phase = Instant::now();
    for_each_trial(list, seconds, |i| {
        let (dut, spec) = &list[i];
        let start = Instant::now();
        let reference = run_trial(spec);
        let reference_s = start.elapsed().as_secs_f64();

        let env_before = env_probe.step.busy_s() + env_probe.reset.busy_s();
        let traced = traced_trial(spec, &probes[dut.tag], &env_probe);
        let env_s = env_probe.step.busy_s() + env_probe.reset.busy_s() - env_before;

        let checks = Instant::now();
        let mut problems = check_trial(spec, &traced.training);
        if TrialFingerprint::of(&traced.training, traced.modeled_seconds)
            != TrialFingerprint::of(&reference.training, reference.modeled.total_seconds)
        {
            problems.push(format!(
                "{} seed {}: traced differs from untraced",
                dut.tag, spec.seed
            ));
        }
        report.operation(problems);
        let t = tallies.entry(dut.tag).or_default();
        t.build_s += traced.build_s;
        t.run_s += traced.run_s;
        t.env_s += env_s;
        t.reference_s += reference_s;
        t.state_bytes = t.state_bytes.max(traced.state_bytes);
        for kind in OpKind::all() {
            *t.ops.entry(kind).or_default() += traced.training.op_counts.count(kind);
        }
        loop_s += checks.elapsed().as_secs_f64();
    });
    let wall_s = phase.elapsed().as_secs_f64();

    let (mut accounted, mut traced_s, mut reference_s) = (loop_s, 0.0, 0.0);
    let mut totals = LayerTotals::default();
    for dut in DUTS {
        let (Some(t), Some(p)) = (tallies.get(dut.tag), probes.get(dut.tag)) else {
            continue;
        };
        let d = dut.tag;
        totals.self_s += report_agent_layers(
            report,
            dut,
            HIDDEN,
            p,
            (t.run_s, t.build_s, t.env_s),
            "trial",
        );
        report.metric(
            format!("agent.state_bytes.{d}"),
            t.state_bytes as f64,
            "B",
            1,
        );
        for (kind, n) in &t.ops {
            report.metric(
                format!("ops.{}.count.{d}", kind.label()),
                *n as f64,
                "count",
                1,
            );
        }
        totals.build_s += t.build_s;
        totals.state_bytes = totals.state_bytes.max(t.state_bytes);
        accounted += t.reference_s + t.build_s + t.run_s;
        traced_s += t.build_s + t.run_s;
        reference_s += t.reference_s;
    }
    let agents: Vec<&AgentProbe> = probes.values().map(|p| p.as_ref()).collect();
    report_layer_totals(report, &agents, &env_probe, totals);
    let ops = report.attempted;
    reconcile(report, wall_s, accounted, ops);
    report.metric(
        "trace.overhead_share",
        traced_s / reference_s - 1.0,
        "fraction",
        report.attempted,
    );
    report.notes.push(format!(
        "trace overhead: traced trials {traced_s:.6} s against untraced {reference_s:.6} s"
    ));
}
