//! `Send`-able wire encoding of DTU messages for island-boundary handoff.
//!
//! Inside one simulation a [`Message`] is shared by `Rc` and never copied.
//! A conservative-PDES run (see `m3_sim::pdes`) splits the platform into
//! islands on separate worker threads, and a message crossing an island
//! boundary must travel as plain bytes: `Rc` is `!Send`, and sharing an
//! allocation across executors would also break the per-island determinism
//! argument. This module defines that boundary format — a fixed-layout
//! little-endian header followed by the payload, byte-for-byte identical
//! for identical messages so inter-island event streams can be compared
//! and merged deterministically.

use m3_base::marshal::{IStream, OStream};
use m3_base::{EpId, PeId};

use crate::message::{Header, Message, ReplyInfo};

/// `flags` bit: the header carries a [`ReplyInfo`].
const FLAG_REPLY: u8 = 1;

/// Fixed prefix: label u64, sender_pe u32, sender_ep u32, flags u8.
const PREFIX: usize = 8 + 4 + 4 + 1;
/// Optional reply block: pe u32, ep u32, label u64, credit_ep u32, ctx u64.
const REPLY_BLOCK: usize = 4 + 4 + 8 + 4 + 8;

/// Encodes a message into the boundary wire format.
///
/// The payload length is implied by the buffer length, mirroring how
/// `Header::len` always matches the payload in a well-formed message.
///
/// # Examples
///
/// ```
/// use m3_base::{EpId, PeId};
/// use m3_dtu::{wire, Header, Message};
///
/// let msg = Message {
///     header: Header {
///         label: 7,
///         len: 4,
///         sender_pe: PeId::new(1),
///         sender_ep: EpId::new(2),
///         reply: None,
///     },
///     payload: (b"ping").into(),
/// };
/// let bytes = wire::encode(&msg);
/// assert_eq!(bytes, b"\x07\0\0\0\0\0\0\0\x01\0\0\0\x02\0\0\0\0ping");
/// assert_eq!(wire::decode(&bytes), Some(msg));
/// ```
pub fn encode(msg: &Message) -> Vec<u8> {
    let h = &msg.header;
    let reply_len = if h.reply.is_some() { REPLY_BLOCK } else { 0 };
    let mut os = OStream::with_capacity(PREFIX + reply_len + msg.payload.len());
    os.push_u64(h.label)
        .push_u32(h.sender_pe.raw())
        .push_u32(h.sender_ep.raw())
        .push_u8(if h.reply.is_some() { FLAG_REPLY } else { 0 });
    if let Some(r) = &h.reply {
        os.push_u32(r.pe.raw())
            .push_u32(r.ep.raw())
            .push_u64(r.label)
            .push_u32(r.credit_ep.raw())
            .push_u64(r.ctx);
    }
    let mut out = os.into_bytes();
    out.extend_from_slice(&msg.payload);
    out
}

/// Decodes a boundary-format buffer back into a message.
///
/// Returns `None` when the buffer is truncated or carries unknown flags —
/// boundary buffers are machine-written, so any mismatch is a bug in the
/// handoff, not input to be repaired.
pub fn decode(bytes: &[u8]) -> Option<Message> {
    let mut is = IStream::new(bytes);
    let label = is.pop_u64().ok()?;
    let sender_pe = PeId::new(is.pop_u32().ok()?);
    let sender_ep = EpId::new(is.pop_u32().ok()?);
    let flags = is.pop_u8().ok()?;
    if flags & !FLAG_REPLY != 0 {
        return None;
    }
    let reply = if flags & FLAG_REPLY != 0 {
        Some(ReplyInfo {
            pe: PeId::new(is.pop_u32().ok()?),
            ep: EpId::new(is.pop_u32().ok()?),
            label: is.pop_u64().ok()?,
            credit_ep: EpId::new(is.pop_u32().ok()?),
            ctx: is.pop_u64().ok()?,
        })
    } else {
        None
    };
    let payload = &bytes[bytes.len() - is.remaining()..];
    Some(Message {
        header: Header {
            label,
            len: payload.len() as u32,
            sender_pe,
            sender_ep,
            reply,
        },
        payload: payload.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(reply: Option<ReplyInfo>, payload: &[u8]) -> Message {
        Message {
            header: Header {
                label: 0xdead_beef_cafe,
                len: payload.len() as u32,
                sender_pe: PeId::new(3),
                sender_ep: EpId::new(5),
                reply,
            },
            payload: payload.into(),
        }
    }

    fn reply() -> ReplyInfo {
        ReplyInfo {
            pe: PeId::new(1),
            ep: EpId::new(2),
            label: 42,
            credit_ep: EpId::new(4),
            ctx: 9,
        }
    }

    #[test]
    fn roundtrip_without_reply() {
        let m = msg(None, b"hello");
        assert_eq!(decode(&encode(&m)), Some(m));
    }

    #[test]
    fn roundtrip_with_reply() {
        let m = msg(Some(reply()), b"");
        assert_eq!(decode(&encode(&m)), Some(m));
    }

    #[test]
    fn identical_messages_encode_identically() {
        let a = msg(Some(reply()), b"payload");
        let b = msg(Some(reply()), b"payload");
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let bytes = encode(&msg(Some(reply()), b"xy"));
        for cut in 0..PREFIX + REPLY_BLOCK {
            assert_eq!(decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // Cutting into the payload still decodes (length is implied)...
        let short = decode(&bytes[..bytes.len() - 1]).unwrap();
        // ...but yields the shorter payload, with len tracking it.
        assert_eq!(short.payload, b"x");
        assert_eq!(short.header.len, 1);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut bytes = encode(&msg(None, b""));
        bytes[PREFIX - 1] |= 0x80;
        assert_eq!(decode(&bytes), None);
    }
}
