//! The evaluation workloads of the paper's §5, run on both operating
//! systems.
//!
//! The paper implements cat+tr by hand for both systems and replays one
//! strace recording of BusyBox tar/untar/find and sqlite on M3 and on
//! Linux (§5.6). Here the *pure logic* (tar byte format, FFT math, SQL
//! engine, tree generation) lives in its own modules, and:
//!
//! - [`os::OsApi`] is the POSIX-like call set, implemented once for libm3
//!   and once for the Linux model;
//! - [`fsapps`] holds tar, untar, find and sqlite, one generic body each;
//! - [`m3app`] and [`lxapp`] re-export those bodies and hold the two
//!   workloads that spawn a child with a pipe (cat+tr, the FFT pipeline),
//!   which stay split: M3 starts a VPE, Linux forks.
//!
//! A syscall-trace [`trace`] replayer, generic over [`os::OsApi`], mirrors
//! the paper's methodology as an alternative path.

pub mod fft;
pub mod fsapps;
pub mod lxapp;
pub mod m3app;
pub mod os;
pub mod sqlwork;
pub mod tarfmt;
pub mod timer_dev;
pub mod trace;
pub mod workload;
