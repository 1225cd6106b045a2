//! Library half of the `omq-perfbench` benchmark: workload generation,
//! the correctness oracle, the live-server client, percentiles, and the
//! in-process layer tracer. `src/main.rs` drives them.

pub mod calib;
pub mod check;
pub mod gen;
pub mod stats;
pub mod trace;
pub mod wire;
