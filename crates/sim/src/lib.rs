//! A deterministic discrete-event simulation engine.
//!
//! The paper evaluates M3 on a cycle-accurate SystemC simulator of the
//! Tomahawk MPSoC. This crate is the Rust substitute: simulated components
//! (PE programs, DTUs, the kernel, services) are ordinary `async fn`s that
//! suspend on simulated time ([`Sim::sleep`]) or on events ([`Notify`]), and a
//! single-threaded executor advances a global cycle clock in
//! (time, scheduling-sequence) order. Every run is bit-for-bit deterministic,
//! which is what makes simulated cycle counts usable as measurements.
//!
//! # Examples
//!
//! ```
//! use m3_base::cycles::Cycles;
//! use m3_sim::Sim;
//!
//! let sim = Sim::new();
//! let handle = sim.spawn("worker", {
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(Cycles::new(100)).await;
//!         sim.now()
//!     }
//! });
//! sim.run();
//! assert_eq!(handle.try_take().unwrap(), Cycles::new(100));
//! ```

mod channel;
mod deadline;
mod executor;
pub mod gauges;
mod name;
mod notify;
pub mod pdes;
mod stats;

pub use channel::{channel, Receiver, Sender};
pub use deadline::with_deadline;
pub use executor::{JoinHandle, Sim, SimState};
pub use m3_trace::{
    keys, Component, Event, EventKind, Histogram, LatencyHistogram, MetricHandle, Metrics, Recorder,
};
pub use name::TaskName;
pub use notify::Notify;
pub use stats::Stats;
