//! # elmrl-bench
//!
//! Criterion benchmark harness: one benchmark group per table/figure of the
//! paper, kernel microbenchmarks, a cross-environment group (`cross_env`)
//! tracking the generic pipeline's per-trial and per-step cost on every
//! registered workload, and a population-serving group
//! (`population_throughput`) comparing batched Q inference against the
//! per-sample loop at B ∈ {1, 8, 32, 128}. The benches use reduced trial counts and episode
//! budgets so that `cargo bench --workspace` completes in minutes; the full
//! paper protocol is driven by the `elmrl-harness` binaries instead, and
//! speed is measured end to end by the repository benchmark in `perfbench/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
