//! Wire format of system calls and the kernel-service protocol.
//!
//! A system call on M3 is a DTU message to the kernel PE plus the kernel's
//! reply (§5.3). Every layout here is declared once with `m3_base::wire!`,
//! so message lengths — and therefore transfer times — reflect what
//! actually crosses the NoC.

use m3_base::error::{Code, Error, Result};
use m3_base::ids::Label;
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

m3_base::wire! {
    #[wire(part)]
    /// The PE type an application may request for a new VPE (§4.5.5).
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum PeRequest: u8 {
        /// Any general-purpose PE.
        0 => Any,
        /// A PE of this exact type (e.g. the FFT accelerator).
        1 => Type(ty: PeType),
        /// A PE of the same type as the caller's (used by `VPE::run`).
        2 => Same,
    }
}

m3_base::wire! {
    /// A system call, as carried in the DTU message payload.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Syscall: u32 {
        /// Empty-body call used by the §5.3 micro-benchmark.
        0 => Noop,
        /// Creates a receive gate (not yet bound to an endpoint).
        1 => CreateRGate {
            /// Selector the new capability is placed at.
            dst: SelId,
            /// Ring-buffer slots.
            slots: u32,
            /// Slot size in bytes (maximum message size incl. header).
            slot_size: u32,
        },
        /// Creates a send gate to a receive gate the caller holds.
        2 => CreateSGate {
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
        /// (§4.5.4: "applications can request a region of the DRAM via a
        /// system call").
        3 => AllocMem {
            /// Selector for the new capability.
            dst: SelId,
            /// Region size in bytes.
            size: u64,
            /// Access permissions.
            perm: Perm,
        },
        /// Creates a sub-range capability of a memory capability.
        4 => DeriveMem {
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
        5 => CreateVpe {
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
        6 => VpeStart {
            /// The VPE capability.
            vpe: SelId,
        },
        /// Waits for a VPE to exit; the reply carries its exit code.
        7 => VpeWait {
            /// The VPE capability.
            vpe: SelId,
        },
        /// Binds a gate capability to an endpoint. Only the kernel can
        /// configure endpoints (§4.5.4), so this is a system call. The
        /// endpoint usually belongs to the caller (`vpe` = selector 0, the
        /// self-VPE capability), but a parent may also pre-configure
        /// endpoints of a VPE it holds a capability for — this is how
        /// gates are handed to a child before it starts.
        8 => Activate {
            /// The VPE whose endpoint is configured (selector 0 = the caller).
            vpe: SelId,
            /// The endpoint to configure.
            ep: EpId,
            /// The gate capability (send, receive, or memory).
            gate: SelId,
        },
        /// Registers a service by name (§4.5.3: the kernel-service channel
        /// is created at service registration).
        9 => CreateSrv {
            /// Selector for the service capability.
            dst: SelId,
            /// The receive gate the service handles requests on.
            rgate: SelId,
            /// Global service name (e.g. `"m3fs"`).
            name: String,
        },
        /// Opens a session with a named service.
        10 => OpenSess {
            /// Selector for the session capability.
            dst: SelId,
            /// Service name.
            name: String,
            /// Service-specific argument.
            arg: u64,
        },
        /// Exchanges capabilities over a session (§4.5.3, second option):
        /// the kernel forwards to the service, which may deny or attach
        /// caps.
        11 => ExchangeSess {
            /// The session capability.
            sess: SelId,
            /// `true` = obtain (service -> caller), `false` = delegate.
            obtain: bool,
            /// Caller-side selectors (destinations for obtain, sources for
            /// delegate). At most [`MAX_EXCHANGE_CAPS`].
            caps: Vec<SelId> [max MAX_EXCHANGE_CAPS],
            /// Service-specific request bytes.
            args: Vec<u8>,
        },
        /// Exchanges capabilities directly with another VPE the caller
        /// holds a capability for (§4.5.3, first option).
        12 => Exchange {
            /// The peer VPE capability.
            vpe: SelId,
            /// Caller-side selector.
            own: SelId,
            /// Peer-side selector.
            other: SelId,
            /// `true` = obtain from peer, `false` = delegate to peer.
            obtain: bool,
        },
        /// Revokes a capability and, recursively, everything delegated
        /// from it.
        13 => Revoke {
            /// The capability to revoke.
            sel: SelId,
        },
        /// Terminates the calling VPE.
        14 => Exit {
            /// Exit code reported to waiters.
            code: i64,
        },
        /// Reports a page fault at `virt` to the kernel, which resolves it
        /// to a frame capability: allocating a zeroed frame on first touch,
        /// or paging the data back in from the VPE's swap region when the
        /// page was evicted. Page tables live in the kernel and are managed
        /// "similarly to managing the DTU endpoints remotely" (§7); the
        /// fault travels as an ordinary typed message and the mapping comes
        /// back in the reply.
        15 => PageFault {
            /// Selector the frame capability is placed at.
            dst: SelId,
            /// The faulting virtual address (any address within the page).
            virt: u64,
            /// The access that faulted. A write fault marks the page dirty
            /// in the kernel's table; a read fault hands out a read-only
            /// view so a later write must fault again (that second fault is
            /// what sets the dirty bit).
            access: Perm,
        },
        /// Removes a page mapping and frees its frame.
        16 => Unmap {
            /// Any virtual address within the page.
            virt: u64,
        },
    }
}

m3_base::wire! {
    /// A reply carrying an error code and return bytes: the kernel's reply
    /// to a system call, and m3fs's reply to a meta request.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SyscallReply {
        /// `None` means success.
        pub error: Option<Code>,
        /// Call-specific return payload (e.g. the exit code for `VpeWait`).
        pub data: Vec<u8>,
    }
}

impl SyscallReply {
    /// A success reply with no payload.
    pub fn ok() -> SyscallReply {
        SyscallReply::ok_with(Vec::new())
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

m3_base::wire! {
    /// A request the kernel forwards to a service (§4.5.3).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ServiceRequest: u32 {
        /// A client wants to open a session; `arg` is client-chosen.
        0 => Open {
            /// Client-provided argument (e.g. flags).
            arg: u64,
        },
        /// A capability exchange over an existing session.
        1 => Exchange {
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
        2 => Close {
            /// The session identifier.
            ident: u64,
        },
    }
}

m3_base::wire! {
    /// A service's reply to a [`ServiceRequest`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ServiceReply {
        /// `None` means the service accepted the request.
        pub error: Option<Code>,
        /// For `Open`: the service-chosen session identifier.
        pub ident: u64,
        /// For `Exchange`: the *service-side* selectors of the capabilities
        /// to exchange (the kernel maps them into the client's table).
        pub caps: Vec<SelId> [max MAX_EXCHANGE_CAPS],
        /// Service-specific reply bytes.
        pub args: Vec<u8>,
    }
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
            ..ServiceReply::ok()
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
