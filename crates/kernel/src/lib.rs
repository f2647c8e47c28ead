//! The M3 microkernel.
//!
//! M3 ("microkernel-based system for heterogeneous manycores", §4.5) runs
//! its kernel on a *dedicated PE*; applications run bare-metal on their own
//! PEs and talk to the kernel exclusively through DTU messages. The kernel's
//! main responsibility matches a traditional kernel's — "making the final
//! decision of whether an operation is allowed or not" (§3) — but privilege
//! is defined by the DTU, not a processor mode: the kernel keeps its DTU
//! privileged and downgrades every application PE during boot.
//!
//! This crate provides:
//!
//! - [`protocol`] — the wire format of system calls and of the
//!   kernel-service protocol (both are DTU messages),
//! - [`cap`] — capabilities, per-VPE capability tables, and the delegation
//!   tree used for recursive revoke (§4.5.3),
//! - [`mem`] — the kernel's DRAM allocator (§4.5.4: "the kernel is
//!   responsible for managing the memories in the system"),
//! - [`pemng`] — PE allocation by type (§4.5.5),
//! - [`ktk`] — the kernel-to-kernel protocol of the sharded multikernel
//!   (§7: multiple kernel instances as the scalability path),
//! - [`Kernel`] — boot, the syscall dispatch loop, and service forwarding.

pub mod cap;
pub mod costs;
mod kernel;
pub mod ktk;
pub mod mem;
pub mod pemng;
pub mod protocol;
pub mod service;
pub mod vpe;

pub use kernel::{Kernel, KernelConfig, ShardCtx, VpeBootInfo, PAGE_SIZE, RINGBUF_SPM_BUDGET};
