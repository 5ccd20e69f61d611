//! The repository benchmark: three workloads that drive the public entry
//! points of `harness`, `population` and `serve` the way a user does, and a
//! traced mode that times the calls into each layer from this package's own
//! wrappers ([`probe::TimedAgent`], [`probe::TimedEnv`]).
//!
//! * `fig5-h64` — the paper's Figure 5 protocol ([`fig5`]).
//! * `population-h256` — the sharded multi-core training path
//!   ([`population`]).
//! * `serve-10k` — the serve engine under wall-clock time ([`serve`]).
//!
//! Program telemetry (`elmrl-telemetry`) stays off in every run. See
//! `README.md` beside this package for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod calib;
pub mod fig5;
pub mod host;
pub mod population;
pub mod probe;
pub mod serve;
pub mod stats;

use elmrl_core::batch::BatchAgent;
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
use elmrl_gym::EnvSpec;
use probe::{AgentProbe, EnvProbe};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["fig5-h64", "population-h256", "serve-10k"];

/// A design under test and the labels its metrics carry.
#[derive(Clone, Copy, Debug)]
pub struct Dut {
    /// The design.
    pub design: Design,
    /// Label of per-design metrics (`time_to_solve_s.<tag>`).
    pub tag: &'static str,
    /// Label of the datapath (`train_steps_per_s.<datapath>`).
    pub datapath: &'static str,
    /// Bytes per element of the RLS matrix `P` (0: no RLS).
    pub p_element_bytes: usize,
}

/// OS-ELM-L2-Lipschitz on the f64 datapath.
pub const OSELM: Dut = Dut {
    design: Design::OsElmL2Lipschitz,
    tag: "oselm",
    datapath: "f64",
    p_element_bytes: 8,
};

/// The FPGA design on the Q20 fixed-point datapath (`P` held as `i32`).
pub const FPGA: Dut = Dut {
    design: Design::Fpga,
    tag: "fpga",
    datapath: "q20",
    p_element_bytes: 4,
};

/// The DQN baseline.
pub const DQN: Dut = Dut {
    design: Design::Dqn,
    tag: "dqn",
    datapath: "dqn",
    p_element_bytes: 0,
};

/// Build an agent the way `harness::runner::run_trial`, the population
/// engine and `serve::build_workers` do: the FPGA design through
/// `elmrl-fpga`, every other design through [`Design::build_batch`], which
/// draws the same RNG stream as [`Design::build`].
pub fn build_agent(
    design: Design,
    spec: &EnvSpec,
    hidden_dim: usize,
    rng: &mut SmallRng,
) -> Box<dyn BatchAgent + Send> {
    match design {
        Design::Fpga => Box::new(FpgaAgent::new(
            FpgaAgentConfig::for_workload(spec, hidden_dim),
            rng,
        )),
        software => software.build_batch(&DesignConfig::for_workload(spec, hidden_dim), rng),
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarises.
    pub samples: u64,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted (trials, replicas or serve requests).
    pub attempted: u64,
    /// Operations whose output check failed, or requests left unanswered.
    pub failed: u64,
    /// Messages of failed checks (operation-level and run-level).
    pub errors: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Free-form lines printed above the metric table.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Record a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record a failed check. Only the first few messages are kept.
    pub fn error(&mut self, message: impl Into<String>) {
        if self.errors.len() < 20 {
            self.errors.push(message.into());
        }
    }

    /// Count one operation; `problems` are the messages of its failed
    /// checks (empty when its output is correct).
    pub fn operation(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.error(p);
            }
        }
    }

    /// Whether every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// End-to-end metric names and units, the same on every workload: each
/// workload maps them onto its own measurement (see `README.md`) and also
/// prints its per-design and per-quantile figures as detail lines.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("op_time_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, the same on every workload: each is a
/// total over every traced agent (and environment) of the run. Per-design
/// figures are printed as detail lines.
pub const PER_LAYER: [(&str, &str); 14] = [
    ("core.predict.busy_s", "s"),
    ("core.predict.calls", "count"),
    ("core.observe.busy_s", "s"),
    ("core.observe.calls", "count"),
    ("core.end_episode.busy_s", "s"),
    ("core.build_s", "s"),
    ("agent.state_bytes", "B"),
    ("gym.step.busy_s", "s"),
    ("gym.step.calls", "count"),
    ("gym.reset.calls", "count"),
    ("loop.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
];

/// The metrics a run's result line carries: [`PER_LAYER`] for a traced
/// run, [`END_TO_END`] otherwise.
pub fn result_metrics(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Totals of the traced layers of one run that the probes do not hold.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Wall seconds spent building the traced agents.
    pub build_s: f64,
    /// Largest `memory_footprint_bytes` of a traced agent.
    pub state_bytes: usize,
    /// Wall seconds of the driven loop outside every agent and environment
    /// span.
    pub self_s: f64,
}

/// Record the [`PER_LAYER`] totals (all but the `trace.*` ones) over every
/// traced agent probe and the run's environment probe. Predict counts every
/// Q-value computation (`act`, `act_row`, `act_batch_greedy`,
/// `predict_batch(_into)`, `q_values`).
pub fn report_layer_totals(
    report: &mut RunReport,
    agents: &[&AgentProbe],
    env: &EnvProbe,
    totals: LayerTotals,
) {
    let sum_s = |f: fn(&AgentProbe) -> f64| agents.iter().map(|p| f(p)).sum::<f64>();
    let sum_n = |f: fn(&AgentProbe) -> u64| agents.iter().map(|p| f(p)).sum::<u64>();
    let predict_n = sum_n(|p| p.act.calls() + p.predict.calls());
    let observe_n = sum_n(|p| p.observe.calls());
    let end_n = sum_n(|p| p.end_episode.calls());
    report.metric(
        "core.predict.busy_s",
        sum_s(|p| p.act.busy_s() + p.predict.busy_s()),
        "s",
        predict_n,
    );
    report.metric("core.predict.calls", predict_n as f64, "count", 1);
    report.metric(
        "core.observe.busy_s",
        sum_s(|p| p.observe.busy_s()),
        "s",
        observe_n,
    );
    report.metric("core.observe.calls", observe_n as f64, "count", 1);
    report.metric(
        "core.end_episode.busy_s",
        sum_s(|p| p.end_episode.busy_s()),
        "s",
        end_n,
    );
    report.metric("core.build_s", totals.build_s, "s", 1);
    report.metric("agent.state_bytes", totals.state_bytes as f64, "B", 1);
    report.metric("gym.step.busy_s", env.step.busy_s(), "s", env.step.calls());
    report.metric("gym.step.calls", env.step.calls() as f64, "count", 1);
    report.metric("gym.reset.calls", env.reset.calls() as f64, "count", 1);
    report.metric("loop.self_s", totals.self_s, "s", 1);
}

/// Record the traced agent-layer detail of one design: busy time and calls
/// of act, observe and end_episode, build time, the trainer's self time
/// (`wall_s` minus the agent's child spans and `env_s`), and the computed
/// RLS bytes per update at width `hidden`. Adds a note with each layer's
/// share of `wall_s`, the wall time of the traced `what`. Returns the
/// trainer's self time.
pub fn report_agent_layers(
    report: &mut RunReport,
    dut: Dut,
    hidden: usize,
    p: &AgentProbe,
    (wall_s, build_s, env_s): (f64, f64, f64),
    what: &str,
) -> f64 {
    let d = dut.tag;
    let self_s = wall_s - p.children_s() - env_s;
    for (layer, c) in [("act", &p.act), ("observe", &p.observe)] {
        report.metric(
            format!("core.{layer}.busy_s.{d}"),
            c.busy_s(),
            "s",
            c.calls(),
        );
        report.metric(
            format!("core.{layer}.calls.{d}"),
            c.calls() as f64,
            "count",
            1,
        );
    }
    let end = &p.end_episode;
    report.metric(
        format!("core.end_episode.busy_s.{d}"),
        end.busy_s(),
        "s",
        end.calls(),
    );
    report.metric(format!("core.build_s.{d}"), build_s, "s", 1);
    report.metric(format!("core.trainer.self_s.{d}"), self_s, "s", 1);
    if dut.p_element_bytes > 0 {
        let bytes = 2 * hidden * hidden * dut.p_element_bytes;
        report.metric(
            format!("rls.computed_bytes_per_update.{d}"),
            bytes as f64,
            "B",
            1,
        );
    }
    let share = |s: f64| 100.0 * s / wall_s;
    report.notes.push(format!(
        "{d}: share of {what} wall: act {:.1}%, observe {:.1}%, end_episode {:.1}%, reset {:.1}%, env {:.1}%, trainer self {:.1}%",
        share(p.act.busy_s()),
        share(p.observe.busy_s()),
        share(end.busy_s()),
        share(p.reset.busy_s()),
        share(env_s),
        share(self_s),
    ));
    self_s
}

/// Run `setup` `repeats` times and record `setup_s`, the median set-up time
/// at the reference host speed (see [`calib`]; calibrated by `cal`), with
/// the raw median and the slowdown as detail.
pub fn report_setups(
    report: &mut RunReport,
    repeats: usize,
    cal: calib::Calibrator,
    setup: impl FnMut() -> f64,
) {
    let (scaled, raw, slowdown) = calib::timed_setups(repeats, cal, setup);
    let n = repeats as u64;
    report.metric("setup_s", scaled, "s", n);
    report.metric("setup_raw_s", raw, "s", n);
    report.metric("host.setup_slowdown", slowdown, "ratio", n);
}

/// Record the slowdown `cal` measured over a run (`host.slowdown`) and
/// return it: raw times are divided by it and rates multiplied by it to
/// state them at the reference host speed.
pub fn report_slowdown(report: &mut RunReport, cal: &calib::Calibrator) -> f64 {
    let k = cal.slowdown().expect("the run ticked the calibrator");
    report.metric("host.slowdown", k, "ratio", cal.ticks());
    k
}

/// Share of the traced wall time that no span accounts for, above which a
/// traced run fails its reconciliation check.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Reconcile a traced phase: `accounted_s` (layer spans plus the
/// benchmark's own loop spans) against the phase's `wall_s`. Records
/// `trace.wall_s` and `trace.unattributed_share` and fails the run when the
/// gap exceeds [`RECONCILE_TOLERANCE`] either way.
pub fn reconcile(report: &mut RunReport, wall_s: f64, accounted_s: f64, spans: u64) {
    let share = (wall_s - accounted_s) / wall_s;
    report.metric("trace.wall_s", wall_s, "s", 1);
    report.metric("trace.unattributed_share", share, "fraction", spans);
    report.notes.push(format!(
        "reconcile: wall {wall_s:.6} s, spans {accounted_s:.6} s, unattributed {:.3}% (tolerance {:.0}%)",
        share * 100.0,
        RECONCILE_TOLERANCE * 100.0
    ));
    if share.is_nan() || share.abs() > RECONCILE_TOLERANCE {
        report.error(format!(
            "trace reconciliation: {:.2}% of the traced wall time is unattributed",
            share * 100.0
        ));
    }
}

/// Format the final result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`, the last holding exactly the
/// metrics `names` in that order. A metric the run did not measure, or
/// measured as a non-finite number, makes the run incorrect.
pub fn result_json(report: &RunReport, names: &[(&str, &str)]) -> String {
    let mut parts = Vec::new();
    let mut complete = true;
    for &(name, unit) in names {
        let value = match report.metrics.get(name) {
            Some(m) if m.value.is_finite() => m.value,
            _ => {
                complete = false;
                continue;
            }
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct() && complete,
        report.attempted,
        report.failed,
        parts.join(", ")
    )
}
