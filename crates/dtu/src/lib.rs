//! The data transfer unit (DTU) — the paper's core hardware contribution.
//!
//! Each processing element (PE) carries one DTU; it is the PE's *only*
//! interface to other PEs and to PE-external memory (paper §3.1). The DTU
//! serves two purposes:
//!
//! 1. **Message passing**: send endpoints target receive endpoints; received
//!    messages land in a ring buffer in the receiver's local memory without
//!    any software on the receiving core; a credit system bounds the number
//!    of in-flight messages per sender; replies reuse information the DTU
//!    stored in the message header (§4.4).
//! 2. **Remote memory access**: memory endpoints name a region of another
//!    node's memory (usually DRAM) plus permissions, and the DTU moves data
//!    at 8 bytes/cycle like a DMA engine (§5.4).
//!
//! **NoC-level isolation** comes from the register split: the configuration
//! registers of every endpoint are writable only by *privileged* DTUs — at
//! boot all DTUs are privileged, and the kernel downgrades the application
//! PEs (§3). In this model, configuration APIs take effect only when invoked
//! through a DTU whose privilege bit is still set; applications hold the same
//! [`Dtu`] handle but any configuration attempt fails with `NoPerm`.
//!
//! # Examples
//!
//! See [`Dtu`] for a complete send/receive/reply round trip.

mod dtu;
mod endpoint;
mod memory;
mod message;
mod ringbuf;
pub mod timing;
pub mod wire;

pub use dtu::{Dtu, DtuSystem, KernelToken, MemKind, NO_CTX};
pub use endpoint::EpConfig;
pub use memory::{Memory, PAGE_SIZE};
pub use message::{Header, Message, Payload, ReplyInfo};
pub use ringbuf::RingBuf;
