//! The repository benchmark: the `campaign` and `refresh` workloads,
//! each with a serving phase, driven from outside through the public
//! functions of the AReST crates, with a separate traced run for the
//! per-layer breakdown. See `README.md` beside this crate for what each workload
//! and metric is for.

#![forbid(unsafe_code)]

pub mod host;
pub mod http;
pub mod layers;
pub mod lifecycle;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
