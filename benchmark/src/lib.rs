//! The repo benchmark: the real `minshare serve` daemon driven over
//! loopback TCP by an in-process load generator at the paper's 1024-bit
//! group, plus per-layer replays and a CPU budget. See `README.md` in
//! this directory and `BENCHMARK.json` at the repo root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod gen;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod tracefile;
