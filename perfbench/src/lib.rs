//! The repository's benchmark: the live collection chain and a paced
//! `perspectrond` fleet, each measured end to end with tracing off and,
//! in a separate traced run, layer by layer from spans recorded around
//! every call into a layer.
//!
//! Run one workload with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <live|fleet_paced> --seed <n> --seconds <s> --trace <0|1>`
//! from the repository root.

pub mod digest;
pub mod fleet;
pub mod live;
pub mod openloop;
pub mod report;
pub mod setup;
pub mod spans;
pub mod stats;
