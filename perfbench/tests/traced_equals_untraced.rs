//! The traced run must compute exactly what the untraced run computes: for
//! every design, a trial traced through `TimedAgent` / `TimedEnv` equals
//! `run_trial`, replayed population replicas equal the report of
//! `PopulationRunner::run`, and a serve engine over traced workers produces
//! the response digest of `run_serve` on the virtual clock at 1 and 2
//! workers. Also pins `BENCHMARK.json` to the metric names the program
//! prints.

use elmrl_gym::Workload;
use elmrl_harness::runner::{run_trial, TrialSpec};
use elmrl_perfbench::fig5::{traced_trial, TrialFingerprint};
use elmrl_perfbench::population::{pass_config, replay_matches, replay_replica};
use elmrl_perfbench::probe::{AgentProbe, EnvProbe, SpanLog};
use elmrl_perfbench::serve::{fold_digest, traced_workers, Rig, DESIGN, DIGEST_BASIS, HIDDEN};
use elmrl_perfbench::{DQN, END_TO_END, FPGA, OSELM, PER_LAYER};
use elmrl_population::PopulationRunner;
use elmrl_serve::{run_serve, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

#[test]
fn traced_trials_equal_run_trial_for_every_design() {
    for dut in [OSELM, FPGA, DQN] {
        for seed in [3, 17] {
            let spec = TrialSpec::new(dut.design, 16, seed).with_max_episodes(12);
            let reference = run_trial(&spec);
            let agent_probe = Arc::new(AgentProbe::default());
            let env_probe = Arc::new(EnvProbe::default());
            let traced = traced_trial(&spec, &agent_probe, &env_probe);
            let training = &traced.training;
            assert_eq!(
                TrialFingerprint::of(training, traced.modeled_seconds),
                TrialFingerprint::of(&reference.training, reference.modeled.total_seconds),
                "{} seed {seed}",
                dut.tag
            );
            // Every step went through the wrappers.
            assert_eq!(agent_probe.act.calls(), training.total_steps as u64);
            assert_eq!(agent_probe.observe.calls(), training.total_steps as u64);
            assert_eq!(env_probe.step.calls(), training.total_steps as u64);
            assert_eq!(env_probe.reset.calls(), training.episodes_run as u64);
        }
    }
}

#[test]
fn replayed_replicas_equal_the_population_report() {
    for dut in [OSELM, FPGA] {
        let mut config = pass_config(dut, 5);
        config.hidden_dim = 16;
        config.population = 3;
        config.train_envs = 4;
        config.max_episodes = 8;
        config.eval_episodes = 1;
        let report = PopulationRunner::new(config.clone()).run();
        let agent_probe = Arc::new(AgentProbe::default());
        let env_probe = Arc::new(EnvProbe::default());
        for outcome in &report.replicas {
            let bare = replay_replica(&config, outcome.replica, None);
            let traced = replay_replica(&config, outcome.replica, Some((&agent_probe, &env_probe)));
            assert!(replay_matches(outcome, &bare.training), "{} bare", dut.tag);
            assert!(
                replay_matches(outcome, &traced.training),
                "{} traced",
                dut.tag
            );
        }
        // The batched entry points were taken, not the per-sample fallbacks
        // behind `Agent::act` / `Agent::observe`.
        let steps: u64 = report.replicas.iter().map(|r| r.total_steps as u64).sum();
        assert_eq!(agent_probe.act.calls(), steps, "one act_row per slot step");
        assert!(
            agent_probe.observe.calls() < steps,
            "observe_batch per tick"
        );
    }
}

#[test]
fn traced_serve_workers_reproduce_the_virtual_clock_digest() {
    let spec = Workload::CartPole.spec();
    for workers in [1, 2] {
        let mut config = ServeConfig::new(&spec, DESIGN, HIDDEN);
        config.sessions = 40;
        config.workers = workers;
        config.max_batch = 16;
        config.duration_ticks = 25;
        config.seed = 9;
        config.virtual_clock = true;
        config.warmup_episodes = 3;
        let reference = run_serve(&spec, &config, true);

        let agent_probe = Arc::new(AgentProbe {
            predict_spans: Some(SpanLog::new(Instant::now())),
            ..AgentProbe::default()
        });
        let env_probe = Arc::new(EnvProbe::default());
        let traced = traced_workers(
            &spec,
            workers,
            config.max_batch,
            config.seed,
            config.warmup_episodes,
            &agent_probe,
            &env_probe,
        );
        let mut rig = Rig::new(
            &spec,
            config.sessions,
            config.seed,
            traced.workers,
            config.max_batch,
            true,
        );
        let mut digest = DIGEST_BASIS;
        for _ in 0..config.duration_ticks {
            rig.round(true, |responses| {
                for r in responses {
                    fold_digest(&mut digest, r);
                }
            });
        }
        assert_eq!(digest, reference.response_digest, "{workers} workers");
        let spans = agent_probe.predict_spans.as_ref().expect("logged").drain();
        assert_eq!(spans.len() as u64, agent_probe.predict.calls());
        assert_eq!(spans.len() as u64, reference.engine_stats.batches);
    }
}

#[test]
fn benchmark_json_names_the_metrics_the_program_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(serde::Value::Seq(list)) = json.get_field(key) else {
            panic!("{key} is not a list");
        };
        list.iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get_field(f)
                        .and_then(|v| v.as_str())
                        .expect(f)
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}
