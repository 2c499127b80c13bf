//! `gw2v-benchmark`: the lap-based benchmark behind `BENCHMARK.json`.
//!
//! A run is one warm-up lap plus identical laps for a fixed window; every
//! timing is recorded per lap and reported as the mean of its fastest
//! quarter. See README.md for the workloads, the estimator and the
//! layer → metric → workload table.

pub mod compare;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod workloads;
