//! The m3-serve tier: a request-serving workload with tail-latency
//! measurement.
//!
//! The paper's evaluation (§5) is batch workloads — pipelines, file reads,
//! one sqlite run. Serving workloads stress a different axis: many clients,
//! short requests, and the question "how much load fits under a latency
//! SLO?" This crate adds that scenario on both sides of the comparison:
//!
//! - a **key-value service** built on the `m3_apps::sqlwork` row-store page
//!   format, persisting to a database file. On M3 it runs as a §4.5.3
//!   service on its own PE (sessions via the kernel, a request channel via
//!   an obtained send gate, storage through m3fs); on the baseline it runs
//!   as an `m3-lx` process reached through pipes.
//! - a **deterministic load generator** ([`load`]): seeded per-client
//!   request streams with think times, closed- or open-loop arrivals, and
//!   **coordinated-omission-corrected latency** — every request's latency
//!   is measured from its *scheduled* arrival time, so queueing delay
//!   counts against the service instead of silently stretching the
//!   arrival process.
//!
//! Latency distributions go through `m3_sim::Metrics::observe` into the
//! registry's HDR-style [`m3_sim::Histogram`], which is what makes
//! the p99/p999 numbers of the fig9 capacity sweep trustworthy. Everything
//! is deterministic: same plan, same seed, same cycle counts, bit for bit.

pub mod costs;
pub mod load;
pub mod lxserve;
pub mod proto;
pub mod scenario;
pub mod server;

pub use load::{Arrivals, ClientSet, LoadPlan, Pending};
pub use proto::{initial_db, KvOp, KvReply, DB_PATH, KEYS, PAGES};
pub use scenario::{run_lx, run_m3, run_m3_traced, ServeOutput, ServePlan, ServeRun};
pub use server::{run_kv_server, SERVICE};
