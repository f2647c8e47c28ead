//! The benchmark harness: one module per figure of the paper's evaluation.
//!
//! Each `run()` boots fresh systems, performs the measurements in simulated
//! cycles, and returns a printable table whose rows correspond to the
//! paper's bars/series. Absolute cycle counts are calibrated against the
//! paper's published component costs; the *shape* of every figure (who
//! wins, by what factor, where curves flatten) is asserted by the tests in
//! each module and recorded in `EXPERIMENTS.md`.
//!
//! [`registry::FIGURES`] names every figure once; the `figure` and `perf`
//! binaries, the `figures` bench and the worker-invariance suite iterate it,
//! and [`cli`] is the one command-line parser behind the binaries.

pub mod ablation;
pub mod arch;
pub mod cli;
pub mod exec;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod measure;
pub mod pdes_bench;
pub mod registry;
pub mod report;

pub use report::{Bar, Figure, Group, Series};
