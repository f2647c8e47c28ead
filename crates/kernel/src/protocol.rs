//! Wire format of system calls and the kernel-service protocol.
//!
//! A system call on M3 is a DTU message to the kernel PE plus the kernel's
//! reply (§5.3). Everything here is encoded with the `m3-base` marshalling
//! streams, so message lengths — and therefore transfer times — reflect what
//! actually crosses the NoC.

use m3_base::error::{Code, Error, Result};
use m3_base::ids::Label;
use m3_base::marshal::{IStream, OStream};
use m3_base::{EpId, Perm, SelId};
use m3_platform::PeType;

/// Standard endpoint assignment on every application PE.
///
/// EPs 0 and 1 are reserved for the syscall channel; the remaining EPs are
/// managed by libos' endpoint multiplexer (§4.5.4: 8 EPs per DTU, gates are
/// multiplexed onto them).
pub mod std_eps {
    use m3_base::EpId;

    /// Send endpoint for system calls (application -> kernel).
    pub const SYSC_SEND: EpId = EpId::new(0);
    /// Receive endpoint for system-call replies.
    pub const SYSC_REPLY: EpId = EpId::new(1);
    /// First endpoint available to the gate multiplexer.
    pub const FIRST_FREE: u32 = 2;
}

/// Maximum number of capabilities in one session exchange.
pub const MAX_EXCHANGE_CAPS: usize = 4;

/// Maximum payload bytes of a syscall message.
pub const SYSC_MSG_SIZE: usize = 256;

/// Slot count of the kernel's syscall receive buffer.
pub const SYSC_SLOTS: usize = 64;

/// The PE type an application may request for a new VPE (§4.5.5).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PeRequest {
    /// Any general-purpose PE.
    Any,
    /// A PE of this exact type (e.g. the FFT accelerator).
    Type(PeType),
    /// A PE of the same type as the caller's (used by `VPE::run`).
    Same,
}

impl PeRequest {
    pub(crate) fn encode(&self, os: &mut OStream) {
        match self {
            PeRequest::Any => {
                os.push_u8(0);
            }
            PeRequest::Type(ty) => {
                os.push_u8(1);
                os.push_u8(pe_type_to_u8(*ty));
            }
            PeRequest::Same => {
                os.push_u8(2);
            }
        }
    }

    pub(crate) fn decode(is: &mut IStream<'_>) -> Result<PeRequest> {
        match is.pop_u8()? {
            0 => Ok(PeRequest::Any),
            1 => Ok(PeRequest::Type(pe_type_from_u8(is.pop_u8()?)?)),
            2 => Ok(PeRequest::Same),
            _ => Err(Error::new(Code::BadMessage).with_msg("bad PeRequest tag")),
        }
    }
}

fn pe_type_to_u8(ty: PeType) -> u8 {
    match ty {
        PeType::Xtensa => 0,
        PeType::Arm => 1,
        PeType::FftAccel => 2,
    }
}

fn pe_type_from_u8(raw: u8) -> Result<PeType> {
    match raw {
        0 => Ok(PeType::Xtensa),
        1 => Ok(PeType::Arm),
        2 => Ok(PeType::FftAccel),
        _ => Err(Error::new(Code::BadMessage).with_msg("bad PeType tag")),
    }
}

/// A system call, as carried in the DTU message payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Syscall {
    /// Empty-body call used by the §5.3 micro-benchmark.
    Noop,
    /// Creates a receive gate (not yet bound to an endpoint).
    CreateRGate {
        /// Selector the new capability is placed at.
        dst: SelId,
        /// Ring-buffer slots.
        slots: u32,
        /// Slot size in bytes (maximum message size incl. header).
        slot_size: u32,
    },
    /// Creates a send gate to a receive gate the caller holds.
    CreateSGate {
        /// Selector for the new capability.
        dst: SelId,
        /// The receive gate the new gate sends to.
        rgate: SelId,
        /// Label stamped into messages (receiver-chosen).
        label: Label,
        /// Credit budget; `0` encodes unlimited.
        credits: u32,
    },
    /// Allocates a DRAM region and returns it as a memory capability
    /// (§4.5.4: "applications can request a region of the DRAM via a system
    /// call").
    AllocMem {
        /// Selector for the new capability.
        dst: SelId,
        /// Region size in bytes.
        size: u64,
        /// Access permissions.
        perm: Perm,
    },
    /// Creates a sub-range capability of a memory capability.
    DeriveMem {
        /// Selector for the new capability.
        dst: SelId,
        /// The capability to derive from.
        src: SelId,
        /// Offset of the sub-range within the source region.
        offset: u64,
        /// Size of the sub-range.
        size: u64,
        /// Permissions (must be a subset of the source's).
        perm: Perm,
    },
    /// Creates a VPE on a free PE (§4.5.5).
    CreateVpe {
        /// Selector for the VPE capability.
        dst: SelId,
        /// Selector for the memory gate to the VPE's local memory.
        mem_dst: SelId,
        /// Requested PE type.
        pe: PeRequest,
        /// Human-readable VPE name.
        name: String,
    },
    /// Starts a previously created VPE.
    VpeStart {
        /// The VPE capability.
        vpe: SelId,
    },
    /// Waits for a VPE to exit; the reply carries its exit code.
    VpeWait {
        /// The VPE capability.
        vpe: SelId,
    },
    /// Binds a gate capability to an endpoint. Only the kernel can configure
    /// endpoints (§4.5.4), so this is a system call. The endpoint usually
    /// belongs to the caller (`vpe` = selector 0, the self-VPE capability),
    /// but a parent may also pre-configure endpoints of a VPE it holds a
    /// capability for — this is how gates are handed to a child before it
    /// starts.
    Activate {
        /// The VPE whose endpoint is configured (selector 0 = the caller).
        vpe: SelId,
        /// The endpoint to configure.
        ep: EpId,
        /// The gate capability (send, receive, or memory).
        gate: SelId,
    },
    /// Registers a service by name (§4.5.3: the kernel-service channel is
    /// created at service registration).
    CreateSrv {
        /// Selector for the service capability.
        dst: SelId,
        /// The receive gate the service handles requests on.
        rgate: SelId,
        /// Global service name (e.g. `"m3fs"`).
        name: String,
    },
    /// Opens a session with a named service.
    OpenSess {
        /// Selector for the session capability.
        dst: SelId,
        /// Service name.
        name: String,
        /// Service-specific argument.
        arg: u64,
    },
    /// Exchanges capabilities over a session (§4.5.3, second option): the
    /// kernel forwards to the service, which may deny or attach caps.
    ExchangeSess {
        /// The session capability.
        sess: SelId,
        /// `true` = obtain (service -> caller), `false` = delegate.
        obtain: bool,
        /// Caller-side selectors (destinations for obtain, sources for
        /// delegate). At most [`MAX_EXCHANGE_CAPS`].
        caps: Vec<SelId>,
        /// Service-specific request bytes.
        args: Vec<u8>,
    },
    /// Exchanges capabilities directly with another VPE the caller holds a
    /// capability for (§4.5.3, first option).
    Exchange {
        /// The peer VPE capability.
        vpe: SelId,
        /// Caller-side selector.
        own: SelId,
        /// Peer-side selector.
        other: SelId,
        /// `true` = obtain from peer, `false` = delegate to peer.
        obtain: bool,
    },
    /// Revokes a capability and, recursively, everything delegated from it.
    Revoke {
        /// The capability to revoke.
        sel: SelId,
    },
    /// Terminates the calling VPE.
    Exit {
        /// Exit code reported to waiters.
        code: i64,
    },
    /// Reports a page fault at `virt` to the kernel, which resolves it to
    /// a frame capability: allocating a zeroed frame on first touch, or
    /// paging the data back in from the VPE's swap region when the page
    /// was evicted. Page tables live in the kernel and are managed
    /// "similarly to managing the DTU endpoints remotely" (§7); the fault
    /// travels as an ordinary typed message and the mapping comes back in
    /// the reply.
    PageFault {
        /// Selector the frame capability is placed at.
        dst: SelId,
        /// The faulting virtual address (any address within the page).
        virt: u64,
        /// The access that faulted. A write fault marks the page dirty in
        /// the kernel's table; a read fault hands out a read-only view so
        /// a later write must fault again (that second fault is what sets
        /// the dirty bit).
        access: Perm,
    },
    /// Removes a page mapping and frees its frame.
    Unmap {
        /// Any virtual address within the page.
        virt: u64,
    },
}

mod op {
    pub const NOOP: u32 = 0;
    pub const CREATE_RGATE: u32 = 1;
    pub const CREATE_SGATE: u32 = 2;
    pub const ALLOC_MEM: u32 = 3;
    pub const DERIVE_MEM: u32 = 4;
    pub const CREATE_VPE: u32 = 5;
    pub const VPE_START: u32 = 6;
    pub const VPE_WAIT: u32 = 7;
    pub const ACTIVATE: u32 = 8;
    pub const CREATE_SRV: u32 = 9;
    pub const OPEN_SESS: u32 = 10;
    pub const EXCHANGE_SESS: u32 = 11;
    pub const EXCHANGE: u32 = 12;
    pub const REVOKE: u32 = 13;
    pub const EXIT: u32 = 14;
    pub const PAGE_FAULT: u32 = 15;
    pub const UNMAP: u32 = 16;
}

impl Syscall {
    /// The opcode name, for tracing and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Noop => "Noop",
            Syscall::CreateRGate { .. } => "CreateRGate",
            Syscall::CreateSGate { .. } => "CreateSGate",
            Syscall::AllocMem { .. } => "AllocMem",
            Syscall::DeriveMem { .. } => "DeriveMem",
            Syscall::CreateVpe { .. } => "CreateVpe",
            Syscall::VpeStart { .. } => "VpeStart",
            Syscall::VpeWait { .. } => "VpeWait",
            Syscall::Activate { .. } => "Activate",
            Syscall::CreateSrv { .. } => "CreateSrv",
            Syscall::OpenSess { .. } => "OpenSess",
            Syscall::ExchangeSess { .. } => "ExchangeSess",
            Syscall::Exchange { .. } => "Exchange",
            Syscall::Revoke { .. } => "Revoke",
            Syscall::Exit { .. } => "Exit",
            Syscall::PageFault { .. } => "PageFault",
            Syscall::Unmap { .. } => "Unmap",
        }
    }

    /// Marshals the call into message payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut os = OStream::with_capacity(64);
        match self {
            Syscall::Noop => {
                os.push_u32(op::NOOP);
            }
            Syscall::CreateRGate {
                dst,
                slots,
                slot_size,
            } => {
                os.push_u32(op::CREATE_RGATE);
                os.push_u32(dst.raw()).push_u32(*slots).push_u32(*slot_size);
            }
            Syscall::CreateSGate {
                dst,
                rgate,
                label,
                credits,
            } => {
                os.push_u32(op::CREATE_SGATE);
                os.push_u32(dst.raw())
                    .push_u32(rgate.raw())
                    .push_u64(*label)
                    .push_u32(*credits);
            }
            Syscall::AllocMem { dst, size, perm } => {
                os.push_u32(op::ALLOC_MEM);
                os.push_u32(dst.raw()).push_u64(*size).push_u8(perm.bits());
            }
            Syscall::DeriveMem {
                dst,
                src,
                offset,
                size,
                perm,
            } => {
                os.push_u32(op::DERIVE_MEM);
                os.push_u32(dst.raw())
                    .push_u32(src.raw())
                    .push_u64(*offset)
                    .push_u64(*size)
                    .push_u8(perm.bits());
            }
            Syscall::CreateVpe {
                dst,
                mem_dst,
                pe,
                name,
            } => {
                os.push_u32(op::CREATE_VPE);
                os.push_u32(dst.raw()).push_u32(mem_dst.raw());
                pe.encode(&mut os);
                os.push_str(name);
            }
            Syscall::VpeStart { vpe } => {
                os.push_u32(op::VPE_START);
                os.push_u32(vpe.raw());
            }
            Syscall::VpeWait { vpe } => {
                os.push_u32(op::VPE_WAIT);
                os.push_u32(vpe.raw());
            }
            Syscall::Activate { vpe, ep, gate } => {
                os.push_u32(op::ACTIVATE);
                os.push_u32(vpe.raw())
                    .push_u32(ep.raw())
                    .push_u32(gate.raw());
            }
            Syscall::CreateSrv { dst, rgate, name } => {
                os.push_u32(op::CREATE_SRV);
                os.push_u32(dst.raw()).push_u32(rgate.raw()).push_str(name);
            }
            Syscall::OpenSess { dst, name, arg } => {
                os.push_u32(op::OPEN_SESS);
                os.push_u32(dst.raw()).push_str(name).push_u64(*arg);
            }
            Syscall::ExchangeSess {
                sess,
                obtain,
                caps,
                args,
            } => {
                os.push_u32(op::EXCHANGE_SESS);
                os.push_u32(sess.raw()).push_bool(*obtain);
                os.push_u32(caps.len() as u32);
                for c in caps {
                    os.push_u32(c.raw());
                }
                os.push_bytes(args);
            }
            Syscall::Exchange {
                vpe,
                own,
                other,
                obtain,
            } => {
                os.push_u32(op::EXCHANGE);
                os.push_u32(vpe.raw())
                    .push_u32(own.raw())
                    .push_u32(other.raw())
                    .push_bool(*obtain);
            }
            Syscall::Revoke { sel } => {
                os.push_u32(op::REVOKE);
                os.push_u32(sel.raw());
            }
            Syscall::Exit { code } => {
                os.push_u32(op::EXIT);
                os.push_i64(*code);
            }
            Syscall::PageFault { dst, virt, access } => {
                os.push_u32(op::PAGE_FAULT);
                os.push_u32(dst.raw())
                    .push_u64(*virt)
                    .push_u8(access.bits());
            }
            Syscall::Unmap { virt } => {
                os.push_u32(op::UNMAP);
                os.push_u64(*virt);
            }
        }
        os.into_bytes()
    }

    /// Unmarshals a call from message payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] on truncated or malformed payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Syscall> {
        let mut is = IStream::new(bytes);
        let opcode = is.pop_u32()?;
        let call = match opcode {
            op::NOOP => Syscall::Noop,
            op::CREATE_RGATE => Syscall::CreateRGate {
                dst: SelId::new(is.pop_u32()?),
                slots: is.pop_u32()?,
                slot_size: is.pop_u32()?,
            },
            op::CREATE_SGATE => Syscall::CreateSGate {
                dst: SelId::new(is.pop_u32()?),
                rgate: SelId::new(is.pop_u32()?),
                label: is.pop_u64()?,
                credits: is.pop_u32()?,
            },
            op::ALLOC_MEM => Syscall::AllocMem {
                dst: SelId::new(is.pop_u32()?),
                size: is.pop_u64()?,
                perm: Perm::from_bits(is.pop_u8()?),
            },
            op::DERIVE_MEM => Syscall::DeriveMem {
                dst: SelId::new(is.pop_u32()?),
                src: SelId::new(is.pop_u32()?),
                offset: is.pop_u64()?,
                size: is.pop_u64()?,
                perm: Perm::from_bits(is.pop_u8()?),
            },
            op::CREATE_VPE => Syscall::CreateVpe {
                dst: SelId::new(is.pop_u32()?),
                mem_dst: SelId::new(is.pop_u32()?),
                pe: PeRequest::decode(&mut is)?,
                name: is.pop_str()?,
            },
            op::VPE_START => Syscall::VpeStart {
                vpe: SelId::new(is.pop_u32()?),
            },
            op::VPE_WAIT => Syscall::VpeWait {
                vpe: SelId::new(is.pop_u32()?),
            },
            op::ACTIVATE => Syscall::Activate {
                vpe: SelId::new(is.pop_u32()?),
                ep: EpId::new(is.pop_u32()?),
                gate: SelId::new(is.pop_u32()?),
            },
            op::CREATE_SRV => Syscall::CreateSrv {
                dst: SelId::new(is.pop_u32()?),
                rgate: SelId::new(is.pop_u32()?),
                name: is.pop_str()?,
            },
            op::OPEN_SESS => Syscall::OpenSess {
                dst: SelId::new(is.pop_u32()?),
                name: is.pop_str()?,
                arg: is.pop_u64()?,
            },
            op::EXCHANGE_SESS => {
                let sess = SelId::new(is.pop_u32()?);
                let obtain = is.pop_bool()?;
                let n = is.pop_u32()? as usize;
                if n > MAX_EXCHANGE_CAPS {
                    return Err(Error::new(Code::BadMessage).with_msg("too many caps"));
                }
                let mut caps = Vec::with_capacity(n);
                for _ in 0..n {
                    caps.push(SelId::new(is.pop_u32()?));
                }
                let args = is.pop_bytes()?.to_vec();
                Syscall::ExchangeSess {
                    sess,
                    obtain,
                    caps,
                    args,
                }
            }
            op::EXCHANGE => Syscall::Exchange {
                vpe: SelId::new(is.pop_u32()?),
                own: SelId::new(is.pop_u32()?),
                other: SelId::new(is.pop_u32()?),
                obtain: is.pop_bool()?,
            },
            op::REVOKE => Syscall::Revoke {
                sel: SelId::new(is.pop_u32()?),
            },
            op::EXIT => Syscall::Exit {
                code: is.pop_i64()?,
            },
            op::PAGE_FAULT => Syscall::PageFault {
                dst: SelId::new(is.pop_u32()?),
                virt: is.pop_u64()?,
                access: Perm::from_bits(is.pop_u8()?),
            },
            op::UNMAP => Syscall::Unmap {
                virt: is.pop_u64()?,
            },
            _ => return Err(Error::new(Code::BadMessage).with_msg("unknown syscall opcode")),
        };
        Ok(call)
    }
}

/// A system-call reply: an error code plus call-specific return bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallReply {
    /// `None` means success.
    pub error: Option<Code>,
    /// Call-specific return payload (e.g. the exit code for `VpeWait`).
    pub data: Vec<u8>,
}

impl SyscallReply {
    /// A success reply with no payload.
    pub fn ok() -> SyscallReply {
        SyscallReply {
            error: None,
            data: Vec::new(),
        }
    }

    /// A success reply with payload.
    pub fn ok_with(data: Vec<u8>) -> SyscallReply {
        SyscallReply { error: None, data }
    }

    /// An error reply.
    pub fn err(code: Code) -> SyscallReply {
        SyscallReply {
            error: Some(code),
            data: Vec::new(),
        }
    }

    /// Marshals the reply.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut os = OStream::with_capacity(16);
        os.push_u32(self.error.map_or(0, |c| c.as_raw()));
        os.push_bytes(&self.data);
        os.into_bytes()
    }

    /// Unmarshals a reply.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<SyscallReply> {
        let mut is = IStream::new(bytes);
        let raw = is.pop_u32()?;
        let error = if raw == 0 {
            None
        } else {
            Some(Code::from_raw(raw))
        };
        let data = is.pop_bytes()?.to_vec();
        Ok(SyscallReply { error, data })
    }

    /// Converts the reply into a `Result` over its payload.
    ///
    /// # Errors
    ///
    /// Returns the carried error code, if any.
    pub fn into_result(self) -> Result<Vec<u8>> {
        match self.error {
            None => Ok(self.data),
            Some(code) => Err(Error::new(code)),
        }
    }
}

/// A request the kernel forwards to a service (§4.5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceRequest {
    /// A client wants to open a session; `arg` is client-chosen.
    Open {
        /// Client-provided argument (e.g. flags).
        arg: u64,
    },
    /// A capability exchange over an existing session.
    Exchange {
        /// The service-chosen session identifier (returned from `Open`).
        ident: u64,
        /// `true` = obtain, `false` = delegate.
        obtain: bool,
        /// Number of capabilities the client offers/requests.
        cap_count: u32,
        /// Service-specific bytes from the client.
        args: Vec<u8>,
    },
    /// The session's VPE exited; the service should drop session state.
    Close {
        /// The session identifier.
        ident: u64,
    },
}

impl ServiceRequest {
    /// Marshals the request.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut os = OStream::with_capacity(32);
        match self {
            ServiceRequest::Open { arg } => {
                os.push_u32(0).push_u64(*arg);
            }
            ServiceRequest::Exchange {
                ident,
                obtain,
                cap_count,
                args,
            } => {
                os.push_u32(1)
                    .push_u64(*ident)
                    .push_bool(*obtain)
                    .push_u32(*cap_count)
                    .push_bytes(args);
            }
            ServiceRequest::Close { ident } => {
                os.push_u32(2).push_u64(*ident);
            }
        }
        os.into_bytes()
    }

    /// Unmarshals a request.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServiceRequest> {
        let mut is = IStream::new(bytes);
        match is.pop_u32()? {
            0 => Ok(ServiceRequest::Open { arg: is.pop_u64()? }),
            1 => Ok(ServiceRequest::Exchange {
                ident: is.pop_u64()?,
                obtain: is.pop_bool()?,
                cap_count: is.pop_u32()?,
                args: is.pop_bytes()?.to_vec(),
            }),
            2 => Ok(ServiceRequest::Close {
                ident: is.pop_u64()?,
            }),
            _ => Err(Error::new(Code::BadMessage).with_msg("unknown service request")),
        }
    }
}

/// A service's reply to a [`ServiceRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceReply {
    /// `None` means the service accepted the request.
    pub error: Option<Code>,
    /// For `Open`: the service-chosen session identifier.
    pub ident: u64,
    /// For `Exchange`: the *service-side* selectors of the capabilities to
    /// exchange (the kernel maps them into the client's table).
    pub caps: Vec<SelId>,
    /// Service-specific reply bytes.
    pub args: Vec<u8>,
}

impl ServiceReply {
    /// An acceptance reply.
    pub fn ok() -> ServiceReply {
        ServiceReply {
            error: None,
            ident: 0,
            caps: Vec::new(),
            args: Vec::new(),
        }
    }

    /// A denial (§4.5.3: the service may deny the capability exchange).
    pub fn err(code: Code) -> ServiceReply {
        ServiceReply {
            error: Some(code),
            ident: 0,
            caps: Vec::new(),
            args: Vec::new(),
        }
    }

    /// Converts a denial into its error code.
    ///
    /// # Errors
    ///
    /// Returns the carried error code, if any.
    pub fn into_result(self) -> Result<ServiceReply> {
        match self.error {
            None => Ok(self),
            Some(code) => Err(Error::new(code)),
        }
    }

    /// Marshals the reply.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut os = OStream::with_capacity(32);
        os.push_u32(self.error.map_or(0, |c| c.as_raw()));
        os.push_u64(self.ident);
        os.push_u32(self.caps.len() as u32);
        for c in &self.caps {
            os.push_u32(c.raw());
        }
        os.push_bytes(&self.args);
        os.into_bytes()
    }

    /// Unmarshals a reply.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServiceReply> {
        let mut is = IStream::new(bytes);
        let raw = is.pop_u32()?;
        let error = if raw == 0 {
            None
        } else {
            Some(Code::from_raw(raw))
        };
        let ident = is.pop_u64()?;
        let n = is.pop_u32()? as usize;
        if n > MAX_EXCHANGE_CAPS {
            return Err(Error::new(Code::BadMessage).with_msg("too many caps"));
        }
        let mut caps = Vec::with_capacity(n);
        for _ in 0..n {
            caps.push(SelId::new(is.pop_u32()?));
        }
        let args = is.pop_bytes()?.to_vec();
        Ok(ServiceReply {
            error,
            ident,
            caps,
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(call: Syscall) {
        let bytes = call.to_bytes();
        assert!(bytes.len() <= SYSC_MSG_SIZE, "syscall too large: {call:?}");
        assert_eq!(Syscall::from_bytes(&bytes).unwrap(), call);
    }

    #[test]
    fn all_syscalls_roundtrip() {
        roundtrip(Syscall::Noop);
        roundtrip(Syscall::CreateRGate {
            dst: SelId::new(3),
            slots: 8,
            slot_size: 512,
        });
        roundtrip(Syscall::CreateSGate {
            dst: SelId::new(4),
            rgate: SelId::new(3),
            label: 0xdead,
            credits: 2,
        });
        roundtrip(Syscall::AllocMem {
            dst: SelId::new(5),
            size: 1 << 20,
            perm: Perm::RW,
        });
        roundtrip(Syscall::DeriveMem {
            dst: SelId::new(6),
            src: SelId::new(5),
            offset: 4096,
            size: 8192,
            perm: Perm::R,
        });
        roundtrip(Syscall::CreateVpe {
            dst: SelId::new(7),
            mem_dst: SelId::new(8),
            pe: PeRequest::Type(PeType::FftAccel),
            name: "fft".to_string(),
        });
        roundtrip(Syscall::CreateVpe {
            dst: SelId::new(7),
            mem_dst: SelId::new(8),
            pe: PeRequest::Same,
            name: "clone".to_string(),
        });
        roundtrip(Syscall::VpeStart { vpe: SelId::new(7) });
        roundtrip(Syscall::VpeWait { vpe: SelId::new(7) });
        roundtrip(Syscall::Activate {
            vpe: SelId::new(0),
            ep: EpId::new(3),
            gate: SelId::new(4),
        });
        roundtrip(Syscall::CreateSrv {
            dst: SelId::new(9),
            rgate: SelId::new(3),
            name: "m3fs".to_string(),
        });
        roundtrip(Syscall::OpenSess {
            dst: SelId::new(10),
            name: "m3fs".to_string(),
            arg: 1,
        });
        roundtrip(Syscall::ExchangeSess {
            sess: SelId::new(10),
            obtain: true,
            caps: vec![SelId::new(11), SelId::new(12)],
            args: vec![1, 2, 3],
        });
        roundtrip(Syscall::Exchange {
            vpe: SelId::new(7),
            own: SelId::new(4),
            other: SelId::new(2),
            obtain: false,
        });
        roundtrip(Syscall::Revoke { sel: SelId::new(4) });
        roundtrip(Syscall::Exit { code: -1 });
        roundtrip(Syscall::PageFault {
            dst: SelId::new(20),
            virt: 0x1000_2034,
            access: Perm::RW,
        });
        roundtrip(Syscall::PageFault {
            dst: SelId::new(21),
            virt: 0x7fff_f000,
            access: Perm::R,
        });
        roundtrip(Syscall::Unmap { virt: 0x1000_2000 });
    }

    #[test]
    fn truncated_syscall_is_bad_message() {
        let bytes = Syscall::OpenSess {
            dst: SelId::new(1),
            name: "m3fs".to_string(),
            arg: 0,
        }
        .to_bytes();
        let err = Syscall::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.code(), Code::BadMessage);
    }

    #[test]
    fn unknown_opcode_is_bad_message() {
        let mut os = OStream::new();
        os.push_u32(0xffff);
        assert_eq!(
            Syscall::from_bytes(os.as_bytes()).unwrap_err().code(),
            Code::BadMessage
        );
    }

    #[test]
    fn too_many_caps_rejected() {
        let call = Syscall::ExchangeSess {
            sess: SelId::new(1),
            obtain: true,
            caps: (0..5).map(SelId::new).collect(),
            args: vec![],
        };
        let bytes = call.to_bytes();
        assert_eq!(
            Syscall::from_bytes(&bytes).unwrap_err().code(),
            Code::BadMessage
        );
    }

    #[test]
    fn reply_roundtrip() {
        let ok = SyscallReply::ok_with(vec![1, 2]);
        assert_eq!(SyscallReply::from_bytes(&ok.to_bytes()).unwrap(), ok);
        let err = SyscallReply::err(Code::NoPerm);
        let parsed = SyscallReply::from_bytes(&err.to_bytes()).unwrap();
        assert_eq!(parsed.error, Some(Code::NoPerm));
        assert_eq!(parsed.into_result().unwrap_err().code(), Code::NoPerm);
        assert_eq!(
            SyscallReply::ok_with(vec![9]).into_result().unwrap(),
            vec![9]
        );
    }

    #[test]
    fn service_request_roundtrip() {
        for req in [
            ServiceRequest::Open { arg: 42 },
            ServiceRequest::Exchange {
                ident: 7,
                obtain: true,
                cap_count: 2,
                args: vec![5, 6],
            },
            ServiceRequest::Close { ident: 7 },
        ] {
            assert_eq!(ServiceRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        }
    }

    #[test]
    fn service_reply_roundtrip() {
        let reply = ServiceReply {
            error: None,
            ident: 99,
            caps: vec![SelId::new(1)],
            args: vec![4, 2],
        };
        assert_eq!(ServiceReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        let denied = ServiceReply::err(Code::NoPerm);
        assert_eq!(
            ServiceReply::from_bytes(&denied.to_bytes()).unwrap().error,
            Some(Code::NoPerm)
        );
    }
}
