//! The kernel-to-kernel (ktk) protocol of the sharded multikernel.
//!
//! The paper names "multiple kernel instances" as M3's scalability path
//! (§7). This module defines the wire format the shards speak to each
//! other: a shard whose admission hits `NoFreePe` forwards the request to
//! the least-loaded peer, and the peer's reply carries *capability
//! descriptors* — self-contained descriptions of the hardware resource a
//! capability names — that the requesting kernel installs into its own
//! tables. Only capabilities whose hardware address is fully resolved can
//! cross a shard boundary: memory regions and activated send gates.
//! Receive gates stay with their shard, exactly like they cannot be
//! delegated between VPEs (§4.5.4): messages may arrive at any time, so
//! the backing ring buffer cannot move.
//!
//! Every message starts with a fixed header `(src_shard, free_pes)`: the
//! sender piggybacks its current free-PE count on every message, so each
//! kernel maintains a passively refreshed load view of its peers and
//! placement needs no extra round trip.
//!
//! The transport is deliberately abstract (`ShardCtx` carries a send
//! closure): inside one `Sim` the bytes ride the NoC between the kernel
//! PEs; across PDES islands they ride the island boundary ports. Either
//! way the messages are plain timestamped bytes, so determinism is
//! preserved for any worker count.

use m3_base::error::{Code, Error, Result};
use m3_base::marshal::{IStream, OStream, Wire};
use m3_base::Perm;

use crate::protocol::{PeRequest, MAX_EXCHANGE_CAPS};

m3_base::wire! {
    #[wire(part)]
    /// A self-contained description of a capability that may cross a shard
    /// boundary. The receiving kernel re-wraps the descriptor into a kernel
    /// object of its own; the hardware address (PE, offset / endpoint) stays
    /// authoritative, so access goes straight over the NoC without involving
    /// the owning shard again.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum CapDesc: u8 {
        /// A memory region on some node (DRAM module or a PE's SPM). Never
        /// marked owned on the receiving side: the region's allocator lives
        /// with the origin shard.
        0 => Mem {
            /// The node whose memory this names.
            pe: u32,
            /// Start offset within that node's memory.
            offset: u64,
            /// Region size in bytes.
            size: u64,
            /// Access permissions.
            perm: Perm,
        },
        /// An *activated* send gate: the receive gate it targets is pinned
        /// to `(pe, ep)`, so a foreign VPE can be given a send endpoint to
        /// it without the origin shard mediating each message.
        1 => SGate {
            /// PE of the activated receive gate.
            pe: u32,
            /// Endpoint of the activated receive gate.
            ep: u32,
            /// Label stamped into every message.
            label: u64,
            /// Credit budget; `0` encodes unlimited.
            credits: u32,
            /// Maximum payload bytes per message.
            max_payload: u32,
        },
    }
}

m3_base::wire! {
    #[wire(part)]
    /// A peer's reply to a ktk request. `a`/`b` carry the two scalar
    /// results a request can produce (e.g. VPE id + PE id for `PlaceVpe`,
    /// the exit code for `WaitVpe`, the session ident for `OpenSess`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct KtkReply {
        /// `None` means the peer accepted the request.
        pub code: Option<Code>,
        /// First scalar result.
        pub a: u64,
        /// Second scalar result.
        pub b: u64,
        /// Capability descriptors handed back (obtain direction).
        pub caps: Vec<CapDesc> [max MAX_EXCHANGE_CAPS],
        /// Service-specific reply bytes (session exchanges).
        pub args: Vec<u8>,
    }
}

impl KtkReply {
    /// A success reply with two scalar results.
    pub fn ok(a: u64, b: u64) -> KtkReply {
        KtkReply {
            code: None,
            a,
            b,
            caps: Vec::new(),
            args: Vec::new(),
        }
    }

    /// An error reply.
    pub fn err(code: Code) -> KtkReply {
        KtkReply {
            code: Some(code),
            ..KtkReply::ok(0, 0)
        }
    }

    /// Converts the reply into a `Result` over itself.
    ///
    /// # Errors
    ///
    /// Returns the carried error code, if any.
    pub fn into_result(self) -> Result<KtkReply> {
        match self.code {
            None => Ok(self),
            Some(code) => Err(Error::new(code)),
        }
    }
}

m3_base::wire! {
    #[wire(part)]
    /// A kernel-to-kernel message. Requests carry a sender-chosen `req_id`;
    /// the peer answers with a [`KtkMsg::Reply`] echoing it. `RevokeVpe` and
    /// `RevokeCap` are fire-and-forget: revocation is idempotent and the
    /// sender holds no state that depends on the answer.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum KtkMsg: u32 {
        /// Load announcement; the header's free-PE count is the payload.
        0 => Hello "hello",
        /// Place a VPE on one of the receiver's PEs (cross-shard `CreateVpe`
        /// spill-over). The sender resolves `Same` to a concrete type before
        /// forwarding — the receiver cannot know the caller's PE.
        1 => PlaceVpe "place_vpe" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// Requested PE type.
            want: PeRequest,
            /// Human-readable VPE name.
            name: String,
        },
        /// Start a VPE previously placed via `PlaceVpe`.
        2 => StartVpe "start_vpe" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// The receiver-side VPE id.
            vpe: u32,
        },
        /// Wait for a remotely placed VPE to exit; the reply's `a` carries
        /// the exit code as `i64` bits.
        3 => WaitVpe "wait_vpe" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// The receiver-side VPE id.
            vpe: u32,
        },
        /// Destroy a remotely placed VPE (fire-and-forget; the cross-shard
        /// mirror of revoking a VPE capability, §4.5.5).
        4 => RevokeVpe "revoke_vpe" {
            /// The receiver-side VPE id.
            vpe: u32,
        },
        /// Install a capability descriptor into a remotely placed VPE's
        /// table (cross-shard delegation, §4.5.3 first option).
        5 => DelegateCap "delegate_cap" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// The receiver-side VPE id.
            vpe: u32,
            /// Receiver-side selector to fill.
            sel: u32,
            /// What to install.
            desc: CapDesc,
        },
        /// Remove a previously delegated capability (fire-and-forget leg of
        /// a cross-shard recursive revoke, §4.5.3).
        6 => RevokeCap "revoke_cap" {
            /// The receiver-side VPE id.
            vpe: u32,
            /// Receiver-side selector to revoke.
            sel: u32,
        },
        /// Open a session with a service registered at the receiver (remote
        /// mount path). The reply's `a` carries the session ident.
        7 => OpenSess "open_sess" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// Global service name (e.g. `"m3fs"`).
            name: String,
            /// Client-provided argument.
            arg: u64,
        },
        /// A capability exchange over a remotely opened session: the
        /// receiver forwards to its local service and descriptor-izes the
        /// result.
        8 => ExchangeSess "exchange_sess" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// Service name (sessions are stateless on the origin side).
            serv: String,
            /// The service-chosen session identifier.
            ident: u64,
            /// `true` = obtain (service -> caller), `false` = delegate.
            obtain: bool,
            /// Number of capabilities the client offers/requests.
            cap_count: u32,
            /// Descriptors of the caller's capabilities (delegate direction).
            descs: Vec<CapDesc> [max MAX_EXCHANGE_CAPS],
            /// Service-specific request bytes.
            args: Vec<u8>,
        },
        /// The answer to a request, echoing its `req_id`.
        9 => Reply "reply" {
            /// The request this answers.
            req_id: u64,
            /// The outcome.
            reply: KtkReply,
        },
    }
}

impl KtkMsg {
    /// Marshals the message with its shard header: the sending shard's id
    /// and its current free-PE count (the passive load feed).
    pub fn to_bytes(&self, src_shard: u32, free_pes: u32) -> Vec<u8> {
        let mut os = OStream::with_capacity(64);
        os.push_u32(src_shard).push_u32(free_pes);
        self.put(&mut os);
        os.into_bytes()
    }

    /// Unmarshals a message, returning `(src_shard, free_pes, msg)`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] on truncated or malformed payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<(u32, u32, KtkMsg)> {
        let mut is = IStream::new(bytes);
        Ok((is.pop_u32()?, is.pop_u32()?, KtkMsg::take(&mut is)?))
    }
}

/// Picks the spill-over target among peer shards: the one with the most
/// free PEs, ties going to the earliest candidate (callers pass ascending
/// shard ids, so ties resolve to the lowest id). Implemented on the shared
/// `m3-sched` least-loaded policy by treating occupancy as the complement
/// of the advertised free count, so both levels of placement — VPEs onto
/// PEs and requests onto shards — follow one rule.
pub fn choose_peer(candidates: impl IntoIterator<Item = (u32, usize)>) -> Option<u32> {
    m3_sched::least_loaded(
        candidates
            .into_iter()
            .map(|(shard, free)| (shard, usize::MAX - free)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_platform::PeType;

    fn roundtrip(msg: KtkMsg) {
        let bytes = msg.to_bytes(3, 17);
        let (src, free, parsed) = KtkMsg::from_bytes(&bytes).unwrap();
        assert_eq!(src, 3);
        assert_eq!(free, 17);
        assert_eq!(parsed, msg);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(KtkMsg::Hello);
        roundtrip(KtkMsg::PlaceVpe {
            req_id: 7,
            name: "worker".to_string(),
            want: PeRequest::Any,
        });
        roundtrip(KtkMsg::PlaceVpe {
            req_id: 8,
            name: "fft".to_string(),
            want: PeRequest::Type(PeType::FftAccel),
        });
        roundtrip(KtkMsg::StartVpe { req_id: 9, vpe: 4 });
        roundtrip(KtkMsg::WaitVpe { req_id: 10, vpe: 4 });
        roundtrip(KtkMsg::RevokeVpe { vpe: 4 });
        roundtrip(KtkMsg::DelegateCap {
            req_id: 11,
            vpe: 4,
            sel: 16,
            desc: CapDesc::Mem {
                pe: 9,
                offset: 0x4000,
                size: 8192,
                perm: Perm::RW,
            },
        });
        roundtrip(KtkMsg::DelegateCap {
            req_id: 12,
            vpe: 4,
            sel: 17,
            desc: CapDesc::SGate {
                pe: 2,
                ep: 3,
                label: 0xfeed,
                credits: 0,
                max_payload: 488,
            },
        });
        roundtrip(KtkMsg::RevokeCap { vpe: 4, sel: 16 });
        roundtrip(KtkMsg::OpenSess {
            req_id: 13,
            name: "m3fs".to_string(),
            arg: 1,
        });
        roundtrip(KtkMsg::ExchangeSess {
            req_id: 14,
            serv: "m3fs".to_string(),
            ident: 42,
            obtain: true,
            cap_count: 1,
            descs: vec![CapDesc::Mem {
                pe: 1,
                offset: 0,
                size: 4096,
                perm: Perm::R,
            }],
            args: vec![1, 2, 3],
        });
        roundtrip(KtkMsg::Reply {
            req_id: 14,
            reply: KtkReply {
                code: None,
                a: 5,
                b: 6,
                caps: vec![CapDesc::SGate {
                    pe: 1,
                    ep: 4,
                    label: 1,
                    credits: 8,
                    max_payload: 232,
                }],
                args: vec![9],
            },
        });
        roundtrip(KtkMsg::Reply {
            req_id: 15,
            reply: KtkReply::err(Code::NoFreePe),
        });
    }

    #[test]
    fn too_many_descriptors_rejected() {
        let msg = KtkMsg::ExchangeSess {
            req_id: 1,
            serv: "s".to_string(),
            ident: 0,
            obtain: false,
            cap_count: 5,
            descs: (0..5)
                .map(|i| CapDesc::Mem {
                    pe: i,
                    offset: 0,
                    size: 1,
                    perm: Perm::R,
                })
                .collect(),
            args: vec![],
        };
        assert_eq!(
            KtkMsg::from_bytes(&msg.to_bytes(0, 0)).unwrap_err().code(),
            Code::BadMessage
        );
    }

    #[test]
    fn reply_into_result() {
        assert!(KtkMsg::Hello.name() == "hello");
        assert_eq!(KtkReply::ok(1, 2).into_result().unwrap().a, 1);
        assert_eq!(
            KtkReply::err(Code::VpeGone)
                .into_result()
                .unwrap_err()
                .code(),
            Code::VpeGone
        );
    }

    #[test]
    fn choose_peer_prefers_most_free_then_lowest_id() {
        assert_eq!(choose_peer(Vec::new()), None);
        assert_eq!(choose_peer([(1u32, 0usize)]), Some(1));
        assert_eq!(choose_peer([(1, 2), (2, 5), (3, 4)]), Some(2));
        // Ties go to the earliest candidate (lowest shard id).
        assert_eq!(choose_peer([(1, 3), (2, 3)]), Some(1));
        assert_eq!(choose_peer([(4, 0), (9, 0)]), Some(4));
    }
}
