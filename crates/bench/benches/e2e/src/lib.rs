//! The repository's end-to-end benchmark: three workloads (cold scan,
//! journaled fabric, continuous churn) on the generated `paper_default`
//! world, timed from outside the program, with per-layer metrics from
//! spans around calls into each crate's public API. See `README.md`.

#![forbid(unsafe_code)]

pub mod checks;
pub mod host;
pub mod json;
pub mod replay;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;
