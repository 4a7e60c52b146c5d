//! End-to-end AutoMon benchmark: Algorithm 1 driven in a closed loop
//! over the reactor transport, with a layer-timed traced run.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload; the last line of standard output
//! is a JSON object with the metrics. See `WORKLOADS.md`.

pub mod bench;
pub mod link;
pub mod probe;
pub mod run;
pub mod stats;
pub mod workload;
