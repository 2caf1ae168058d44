//! # telegraphos-suite
//!
//! Workspace umbrella for the Telegraphos reproduction. This crate carries
//! the repository-level integration tests (`tests/`) and runnable examples
//! (`examples/`); the actual functionality lives in the member crates and is
//! re-exported here for convenience.

pub mod cli;
pub mod harness;

pub use telegraphos as core;
pub use tg_analyze as analyze;
pub use tg_hib as hib;
pub use tg_hw as hw;
pub use tg_kv as kv;
pub use tg_mem as mem;
pub use tg_net as net;
pub use tg_proto as proto;
pub use tg_sim as sim;
pub use tg_wire as wire;
pub use tg_workloads as workloads;
