//! `serve-10k`: the serve engine under wall-clock time.
//!
//! OS-ELM-L2-Lipschitz at Ñ=64 served to 10⁴ closed-loop sessions (think
//! time 0: each session waits for its reply before it asks again) by 2
//! workers with `max_batch` 128 and a 200 µs batch window. The benchmark
//! drives `SessionDriver::submit_ready` → `ServeEngine::pump` →
//! `SessionDriver::apply_responses` itself, records every
//! `Response.latency_us`, and after the timed rounds keeps pumping with no
//! new submissions until the queue is empty. The `elm` layer is used
//! read-only here (batched predict, no RLS writes); the coalescer, pool
//! dispatch and session environment steps do the work.

use crate::calib::{Calibrator, CALIBRATION_SHARE};
use crate::probe::{union_within, AgentProbe, EnvProbe, SpanLog, TimedAgent, TimedEnv};
use crate::stats::ExactLatencies;
use crate::{
    build_agent, reconcile, report_layer_totals, report_setups, report_slowdown, LayerTotals,
    RunReport, OSELM,
};
use elmrl_core::agent::Agent;
use elmrl_core::designs::Design;
use elmrl_core::trainer::{Trainer, TrainerConfig};
use elmrl_gym::{EnvSpec, Environment, VecEnv, Workload};
use elmrl_population::split_seed;
use elmrl_serve::{
    build_workers, EngineConfig, Response, ServeClock, ServeEngine, SessionDriver, Worker,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Served design.
pub const DESIGN: Design = OSELM.design;
/// Hidden width `Ñ` of the served policy.
pub const HIDDEN: usize = 64;
/// Closed-loop client sessions.
pub const SESSIONS: usize = 10_000;
/// Agent workers.
pub const WORKERS: usize = 2;
/// Coalescer batch cap.
pub const MAX_BATCH: usize = 128;
/// Coalescer latency budget (µs).
pub const BATCH_WINDOW_US: u64 = 200;
/// Training episodes that warm the served policy.
pub const WARMUP_EPISODES: usize = 20;
/// Untimed engine rounds at the end of each set-up.
const WARMUP_ROUNDS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Longest drain after the timed rounds.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Latencies below this many µs are counted in place (see
/// [`ExactLatencies`]).
const LATENCY_CAP_US: usize = 1 << 20;
/// Seed-stream tag of the worker policy in `elmrl_serve::build_workers`;
/// the traced workers are built from the same stream so that they hold the
/// same weights.
const WORKER_STREAM: u64 = 0x5345_5256_0000_0000;

/// The engine, its sessions and its clock.
pub struct Rig {
    /// The serve engine.
    pub engine: ServeEngine,
    /// The closed-loop sessions.
    pub sessions: SessionDriver,
    /// The engine clock.
    pub clock: ServeClock,
}

impl Rig {
    /// Sessions and engine over `workers`, on a wall or virtual clock.
    pub fn new(
        spec: &EnvSpec,
        sessions: usize,
        seed: u64,
        workers: Vec<Worker>,
        max_batch: usize,
        virtual_clock: bool,
    ) -> Self {
        Self {
            engine: ServeEngine::new(
                sessions,
                spec.observation_dim,
                workers,
                EngineConfig {
                    max_batch,
                    batch_window_us: BATCH_WINDOW_US,
                },
            ),
            sessions: SessionDriver::new(spec, sessions, seed, 0),
            clock: ServeClock::from_flag(virtual_clock),
        }
    }

    /// One engine round: submit every ready session, pump, hand the
    /// responses to `each`, then apply them to the sessions.
    pub fn round(&mut self, submit: bool, mut each: impl FnMut(&[Response])) -> usize {
        if submit {
            self.sessions
                .submit_ready(&mut self.engine, self.clock.now_us());
        }
        let responses = self.engine.pump(&mut self.clock);
        each(responses);
        self.sessions.apply_responses(responses);
        responses.len()
    }
}

/// Fold a response into an FNV-1a digest, field for field as
/// `elmrl_serve::run_serve` does.
pub fn fold_digest(digest: &mut u64, r: &Response) {
    for v in [r.ticket, r.session as u64, r.action as u64, r.latency_us] {
        *digest ^= v;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The FNV-1a offset basis the digest starts from.
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Workers whose agents are wrapped in [`TimedAgent`]s.
pub struct TracedWorkers {
    /// The workers.
    pub workers: Vec<Worker>,
    /// Wall seconds of building the agents (warm-up training excluded).
    pub build_s: f64,
    /// Largest `memory_footprint_bytes` of a worker's agent.
    pub state_bytes: usize,
}

/// Build `workers` policy replicas exactly as `elmrl_serve::build_workers`
/// does, but with every agent wrapped in a [`TimedAgent`] and the warm-up
/// training run on a `VecEnv` of one [`TimedEnv`].
pub fn traced_workers(
    spec: &EnvSpec,
    workers: usize,
    max_batch: usize,
    seed: u64,
    warmup_episodes: usize,
    agent_probe: &Arc<AgentProbe>,
    env_probe: &Arc<EnvProbe>,
) -> TracedWorkers {
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: warmup_episodes,
        reset_after_episodes: None,
        stop_when_solved: false,
        solve_criterion: spec.solve_criterion,
        solved_window: 100,
        reward_shaping: spec.reward_shaping,
    });
    let (mut build_s, mut state_bytes) = (0.0, 0);
    let workers = (0..workers)
        .map(|_| {
            let mut build_rng = SmallRng::seed_from_u64(split_seed(seed, WORKER_STREAM));
            let start = Instant::now();
            let inner = build_agent(DESIGN, spec, HIDDEN, &mut build_rng);
            build_s += start.elapsed().as_secs_f64();
            let mut agent = TimedAgent::new(inner, agent_probe.clone());
            if warmup_episodes > 0 {
                let mut train_rng = SmallRng::seed_from_u64(split_seed(seed, WORKER_STREAM + 1));
                let env: Box<dyn Environment> =
                    Box::new(TimedEnv::new(spec.make_env(), env_probe.clone()));
                trainer.run_vec(&mut agent, &mut VecEnv::new(vec![env]), &mut train_rng);
            }
            state_bytes = state_bytes.max(agent.memory_footprint_bytes());
            Worker::new(Box::new(agent), max_batch, spec.observation_dim)
        })
        .collect();
    TracedWorkers {
        workers,
        build_s,
        state_bytes,
    }
}

/// Per-response output checks: every ticket answered at most once, by a
/// valid session, with a valid action. The engine composes batches from its
/// FIFO queue in ticket order and routes responses in batch order, so the
/// tickets of a correct response stream strictly increase; that check needs
/// no memory that grows with the run.
struct Checker {
    last_ticket: Option<u64>,
    num_actions: usize,
    bad: u64,
    first_problem: Option<String>,
}

impl Checker {
    fn new(num_actions: usize) -> Self {
        Self {
            last_ticket: None,
            num_actions,
            bad: 0,
            first_problem: None,
        }
    }

    fn check(&mut self, r: &Response, requests: u64) {
        let problem = if r.ticket >= requests {
            Some("answers a ticket never issued")
        } else if self.last_ticket.is_some_and(|last| r.ticket <= last) {
            Some("answers a ticket twice or out of order")
        } else if r.session >= SESSIONS {
            Some("routes to an unknown session")
        } else if r.action >= self.num_actions {
            Some("returns an invalid action")
        } else {
            None
        };
        self.last_ticket = Some(r.ticket);
        if let Some(p) = problem {
            self.bad += 1;
            self.first_problem
                .get_or_insert_with(|| format!("response to ticket {}: {p}", r.ticket));
        }
    }
}

/// What one timed window saw.
#[derive(Default)]
struct Window {
    wall_s: f64,
    rounds: u64,
    responses: u64,
    submit_s: f64,
    pump_s: f64,
    pump_self_s: f64,
    respond_s: f64,
    loop_s: f64,
    calibration_s: f64,
}

impl Window {
    /// Responses per second of serving, calibration ticks excluded.
    fn rps(&self) -> f64 {
        self.responses as f64 / (self.wall_s - self.calibration_s)
    }
}

/// Drive `rig` for `seconds`, then drain. With `spans`, every call is timed
/// and predict spans are subtracted from each pump; with `cal`, calibration
/// ticks follow the rounds (between a round's responses and the next
/// submissions).
fn serve_window(
    rig: &mut Rig,
    seconds: f64,
    latencies: &mut ExactLatencies,
    checker: &mut Checker,
    spans: Option<&SpanLog>,
    mut cal: Option<&mut Calibrator>,
) -> Window {
    let mut w = Window::default();
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    while phase.elapsed() < budget {
        let t0 = Instant::now();
        rig.sessions
            .submit_ready(&mut rig.engine, rig.clock.now_us());
        let t1 = Instant::now();
        let requests = rig.engine.stats().requests;
        let responses = rig.engine.pump(&mut rig.clock);
        let t2 = Instant::now();
        for r in responses {
            latencies.record(r.latency_us);
            checker.check(r, requests);
        }
        w.responses += responses.len() as u64;
        if let Some(log) = spans {
            let mut predicts = log.drain();
            let union = union_within(&mut predicts, log.offset(t1), log.offset(t2));
            w.pump_self_s += (t2 - t1).as_secs_f64() - union as f64 * 1e-9;
        }
        let t3 = Instant::now();
        rig.sessions.apply_responses(responses);
        let t4 = Instant::now();
        w.submit_s += (t1 - t0).as_secs_f64();
        w.pump_s += (t2 - t1).as_secs_f64();
        w.loop_s += (t3 - t2).as_secs_f64();
        w.respond_s += (t4 - t3).as_secs_f64();
        w.rounds += 1;
        if let Some(cal) = cal.as_deref_mut() {
            cal.follow(CALIBRATION_SHARE, (t4 - t0).as_secs_f64());
            w.calibration_s += t4.elapsed().as_secs_f64();
        }
    }
    w.wall_s = phase.elapsed().as_secs_f64();

    // Drain: no new submissions; the held partial batch flushes once its
    // window expires.
    let drain = Instant::now();
    while rig.engine.pending() > 0 && drain.elapsed() < DRAIN_LIMIT {
        let requests = rig.engine.stats().requests;
        rig.round(false, |responses| {
            for r in responses {
                latencies.record(r.latency_us);
                checker.check(r, requests);
            }
        });
    }
    if let Some(log) = spans {
        log.drain();
    }
    w
}

/// Set up an untraced rig: `build_workers`, engine, sessions and warm-up
/// rounds. Returns the rig and the set-up seconds.
fn setup_rig(spec: &EnvSpec, seed: u64) -> (Rig, f64) {
    let start = Instant::now();
    let workers = build_workers(
        DESIGN,
        spec,
        HIDDEN,
        WORKERS,
        MAX_BATCH,
        seed,
        WARMUP_EPISODES,
    );
    let mut rig = Rig::new(spec, SESSIONS, seed, workers, MAX_BATCH, false);
    for _ in 0..WARMUP_ROUNDS {
        rig.round(true, |_| {});
    }
    (rig, start.elapsed().as_secs_f64())
}

/// Record the run-level checks of a drained rig into `report`.
fn finish_checks(report: &mut RunReport, rig: &Rig, checker: &Checker, answered: u64) {
    let stats = rig.engine.stats();
    let unanswered = stats.requests - stats.responses;
    report.attempted += answered + unanswered;
    report.failed += checker.bad + unanswered;
    if let Some(p) = &checker.first_problem {
        report.error(p.clone());
    }
    if unanswered > 0 {
        report.error(format!("{unanswered} requests unanswered after the drain"));
    }
    if rig.sessions.stats().env_steps != stats.responses {
        report.error("session environment steps disagree with the responses applied");
    }
}

/// The workload's calibrator: one thread per pool thread, as the workers
/// run, on a matrix of the served policy's width.
fn calibrator() -> Calibrator {
    Calibrator::new(rayon::current_num_threads(), HIDDEN)
}

/// Run the workload for `seconds` and report its metrics; `trace` selects
/// the per-layer run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let spec = Workload::CartPole.spec();
    let mut report = RunReport::default();
    let mut rig = None;
    report_setups(&mut report, SETUP_REPEATS, calibrator(), || {
        let (r, s) = setup_rig(&spec, seed);
        rig = Some(r);
        s
    });
    let mut rig = rig.expect("set up at least once");

    let num_actions = spec.num_actions;
    if !trace {
        let mut latencies = ExactLatencies::new(LATENCY_CAP_US);
        let mut checker = Checker::new(num_actions);
        let mut cal = calibrator();
        let w = serve_window(
            &mut rig,
            seconds,
            &mut latencies,
            &mut checker,
            None,
            Some(&mut cal),
        );
        finish_checks(&mut report, &rig, &checker, latencies.count());
        // End-to-end figures at the reference host speed; the raw ones as
        // detail.
        let k = report_slowdown(&mut report, &cal);
        report.metric("serve_rps", w.rps(), "responses/s", w.responses);
        report.metric("throughput", w.rps() * k, "1/s", w.responses);
        let n = latencies.count();
        if let (Some(p50), Some(p99)) = (latencies.quantile(0.50), latencies.quantile(0.99)) {
            report.metric("serve_p50_us", p50 as f64, "us", n);
            report.metric("serve_p99_us", p99 as f64, "us", n);
            report.metric("op_time_ms", p50 as f64 / k * 1e-3, "ms", n);
        }
        return report;
    }

    // Traced: an untraced window on the set-up rig, then a traced window on
    // a rig whose workers are wrapped, half the time each.
    let base = Instant::now();
    let agent_probe = Arc::new(AgentProbe {
        predict_spans: Some(SpanLog::new(base)),
        ..AgentProbe::default()
    });
    let env_probe = Arc::new(EnvProbe::default());
    let start = Instant::now();
    let traced = traced_workers(
        &spec,
        WORKERS,
        MAX_BATCH,
        seed,
        WARMUP_EPISODES,
        &agent_probe,
        &env_probe,
    );
    report.metric(
        "serve.warmup_s",
        start.elapsed().as_secs_f64(),
        "s",
        WORKERS as u64,
    );
    let mut traced_rig = Rig::new(&spec, SESSIONS, seed, traced.workers, MAX_BATCH, false);
    for _ in 0..WARMUP_ROUNDS {
        traced_rig.round(true, |_| {});
    }

    let mut latencies = ExactLatencies::new(LATENCY_CAP_US);
    let mut checker = Checker::new(num_actions);
    let bare = serve_window(
        &mut rig,
        seconds / 2.0,
        &mut latencies,
        &mut checker,
        None,
        None,
    );
    finish_checks(&mut report, &rig, &checker, latencies.count());

    let (calls0, busy0) = (agent_probe.predict.calls(), agent_probe.predict.busy_s());
    let mut latencies = ExactLatencies::new(LATENCY_CAP_US);
    let mut checker = Checker::new(num_actions);
    let log = agent_probe.predict_spans.as_ref();
    log.expect("traced workers log predict spans").drain();
    let requests0 = traced_rig.engine.stats().requests;
    let w = serve_window(
        &mut traced_rig,
        seconds / 2.0,
        &mut latencies,
        &mut checker,
        log,
        None,
    );
    finish_checks(&mut report, &traced_rig, &checker, latencies.count());
    let calls = agent_probe.predict.calls() - calls0;
    let busy = agent_probe.predict.busy_s() - busy0;

    report.metric("serve.submit.busy_s", w.submit_s, "s", w.rounds);
    report.metric("serve.pump.busy_s", w.pump_s, "s", w.rounds);
    report.metric("serve.pump.self_s", w.pump_self_s, "s", w.rounds);
    report.metric("serve.respond.busy_s", w.respond_s, "s", w.rounds);
    report.metric("serve.predict.busy_s", busy, "s", calls);
    report.metric("serve.predict.calls", calls as f64, "count", 1);
    report.metric(
        "serve.batch_fill",
        w.responses as f64 / (calls as f64 * MAX_BATCH as f64),
        "fraction",
        calls,
    );
    report.metric("serve.rounds", w.rounds as f64, "count", 1);
    let requests = traced_rig.engine.stats().requests - requests0;
    report.metric("serve.requests", requests as f64, "count", 1);
    report.metric("serve.responses", latencies.count() as f64, "count", 1);
    let totals = LayerTotals {
        build_s: traced.build_s,
        state_bytes: traced.state_bytes,
        self_s: w.pump_self_s,
    };
    report_layer_totals(&mut report, &[&agent_probe], &env_probe, totals);
    let share = |s: f64| 100.0 * s / w.wall_s;
    report.notes.push(format!(
        "share of traced window: submit {:.1}%, pump {:.1}% (predict {:.1}% summed over workers, pump self {:.1}%), respond {:.1}%, bench loop {:.1}%",
        share(w.submit_s),
        share(w.pump_s),
        share(busy),
        share(w.pump_self_s),
        share(w.respond_s),
        share(w.loop_s),
    ));
    let accounted = w.submit_s + w.pump_s + w.respond_s + w.loop_s;
    reconcile(&mut report, w.wall_s, accounted, w.rounds);
    let (bare_rps, traced_rps) = (bare.rps(), w.rps());
    report.metric(
        "trace.overhead_share",
        bare_rps / traced_rps - 1.0,
        "fraction",
        w.rounds,
    );
    report.notes.push(format!(
        "trace overhead: traced {traced_rps:.1} responses/s against untraced {bare_rps:.1} responses/s"
    ));
    report
}
