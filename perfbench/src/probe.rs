//! Tracing wrappers: [`TimedAgent`] and [`TimedEnv`] time every call into
//! the `core` and `gym` layers from outside the program.
//!
//! The wrappers forward **every** trait method, the defaulted ones included,
//! so a wrapped agent runs exactly the code the bare agent runs: without the
//! `predict_batch_into` / `act_row` / `observe_batch` forwards the trait's
//! per-sample fallbacks would silently replace the batched kernels. Each
//! forwarded call lands in one [`Counter`] of a shared probe; the probes are
//! `Arc`-shared so a wrapper can be moved into a serve worker or a `VecEnv`
//! and still be read afterwards.

use elmrl_core::agent::{Agent, Observation};
use elmrl_core::batch::BatchAgent;
use elmrl_core::checkpoint::AgentSnapshot;
use elmrl_core::ops::OpCounts;
use elmrl_gym::{ActionSpace, Environment, ObservationSpace, StepOutcome};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Busy time and call count of one layer boundary. `Relaxed` suffices: the
/// values are statistics, read only after the threads that wrote them were
/// joined by the pool.
#[derive(Debug, Default)]
pub struct Counter {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Counter {
    /// Add one call that took `elapsed`.
    pub fn add(&self, elapsed: Duration) {
        self.ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Run `f` and charge its duration to this counter.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed());
        out
    }

    /// Total busy seconds.
    pub fn busy_s(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Start/end offsets (ns since a shared base instant) of every span of one
/// kind — kept only where a union of possibly overlapping spans is needed
/// (serve predicts running concurrently on several workers).
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Mutex<Vec<(u64, u64)>>,
}

impl SpanLog {
    /// A log whose offsets count from `base`.
    pub fn new(base: Instant) -> Self {
        Self {
            base,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the base to `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn record(&self, start: Instant, end: Instant) {
        let span = (self.offset(start), self.offset(end));
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Length of the union of `spans` clipped to `[lo, hi)`, in nanoseconds.
pub fn union_within(spans: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per-method counters of one wrapped agent (or of several agents of one
/// design, when they share the probe).
#[derive(Debug, Default)]
pub struct AgentProbe {
    /// Policy decisions: `act`, `act_row`, `act_batch_greedy`.
    pub act: Counter,
    /// Learning: `observe`, `observe_batch`.
    pub observe: Counter,
    /// Batched forward passes: `predict_batch`, `predict_batch_into`,
    /// `q_values`.
    pub predict: Counter,
    /// `end_episode` (target-network synchronisation).
    pub end_episode: Counter,
    /// `reset` (the trainer's reset rule).
    pub reset: Counter,
    /// When set, every `predict_batch_into` span is also logged here.
    pub predict_spans: Option<SpanLog>,
}

impl AgentProbe {
    /// Total busy time of every timed method.
    pub fn children_s(&self) -> f64 {
        self.act.busy_s()
            + self.observe.busy_s()
            + self.predict.busy_s()
            + self.end_episode.busy_s()
            + self.reset.busy_s()
    }
}

/// An [`Agent`] + [`BatchAgent`] that times every call into the wrapped
/// agent.
pub struct TimedAgent {
    inner: Box<dyn BatchAgent + Send>,
    probe: Arc<AgentProbe>,
}

impl TimedAgent {
    /// Wrap `inner`, charging its calls to `probe`.
    pub fn new(inner: Box<dyn BatchAgent + Send>, probe: Arc<AgentProbe>) -> Self {
        Self { inner, probe }
    }
}

impl Agent for TimedAgent {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn hidden_dim(&self) -> usize {
        self.inner.hidden_dim()
    }

    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let inner = &mut self.inner;
        self.probe.act.time(|| inner.act(state, rng))
    }

    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng) {
        let inner = &mut self.inner;
        self.probe.observe.time(|| inner.observe(obs, rng))
    }

    fn end_episode(&mut self, episode_index: usize) {
        let inner = &mut self.inner;
        self.probe
            .end_episode
            .time(|| inner.end_episode(episode_index))
    }

    fn reset(&mut self, rng: &mut SmallRng) {
        let inner = &mut self.inner;
        self.probe.reset.time(|| inner.reset(rng))
    }

    fn op_counts(&self) -> &OpCounts {
        self.inner.op_counts()
    }

    fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        let inner = &mut self.inner;
        self.probe.predict.time(|| inner.q_values(state))
    }

    fn memory_footprint_bytes(&self) -> usize {
        self.inner.memory_footprint_bytes()
    }

    fn snapshot(&self) -> Option<AgentSnapshot> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        self.inner.restore(snapshot)
    }
}

impl BatchAgent for TimedAgent {
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        let inner = &mut self.inner;
        self.probe.predict.time(|| inner.predict_batch(states))
    }

    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        let start = Instant::now();
        self.inner.predict_batch_into(states, out);
        let end = Instant::now();
        self.probe.predict.add(end - start);
        if let Some(log) = &self.probe.predict_spans {
            log.record(start, end);
        }
    }

    fn act_batch_greedy(&mut self, states: &Matrix<f64>) -> Vec<usize> {
        let inner = &mut self.inner;
        self.probe.act.time(|| inner.act_batch_greedy(states))
    }

    fn act_row(&mut self, state_row: &Matrix<f64>, rng: &mut SmallRng) -> usize {
        let inner = &mut self.inner;
        self.probe.act.time(|| inner.act_row(state_row, rng))
    }

    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        let inner = &mut self.inner;
        self.probe.observe.time(|| inner.observe_batch(batch, rng))
    }
}

/// Counters of the environment layer.
#[derive(Debug, Default)]
pub struct EnvProbe {
    /// `step` calls.
    pub step: Counter,
    /// `reset` calls.
    pub reset: Counter,
}

/// An [`Environment`] that times `step` and `reset` of the wrapped one.
pub struct TimedEnv {
    inner: Box<dyn Environment>,
    probe: Arc<EnvProbe>,
}

impl TimedEnv {
    /// Wrap `inner`, charging its calls to `probe`.
    pub fn new(inner: Box<dyn Environment>, probe: Arc<EnvProbe>) -> Self {
        Self { inner, probe }
    }
}

impl Environment for TimedEnv {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observation_space(&self) -> ObservationSpace {
        self.inner.observation_space()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn observation_dim(&self) -> usize {
        self.inner.observation_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn max_episode_steps(&self) -> usize {
        self.inner.max_episode_steps()
    }

    fn reset(&mut self, rng: &mut SmallRng) -> Vec<f64> {
        let inner = &mut self.inner;
        self.probe.reset.time(|| inner.reset(rng))
    }

    fn step(&mut self, action: usize, rng: &mut SmallRng) -> StepOutcome {
        let inner = &mut self.inner;
        self.probe.step.time(|| inner.step(action, rng))
    }

    fn solved_threshold(&self) -> Option<f64> {
        self.inner.solved_threshold()
    }

    fn save_state(&self) -> Option<Vec<f64>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut spans = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut spans, 0, 25), 3 + 7 + 5);
        assert_eq!(union_within(&mut spans, 9, 11), 2);
    }
}
