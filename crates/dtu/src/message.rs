//! Messages and the header the DTU prepends to every payload.

use m3_base::ids::Label;
pub use m3_base::payload::Payload;
use m3_base::{EpId, PeId};

/// Information the DTU stores in the header so the receiver can reply
/// without a dedicated back-channel (paper §4.4.4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReplyInfo {
    /// PE of the original sender, where the reply is delivered.
    pub pe: PeId,
    /// Receive endpoint at the sender that accepts the reply.
    pub ep: EpId,
    /// Label the reply message will carry (chosen by the sender).
    pub label: Label,
    /// Send endpoint at the sender whose credits the reply refills.
    pub credit_ep: EpId,
    /// Context id the sender's DTU ran under when the message left. The
    /// reply (and its credit refill) follows the *context*, not the PE: if
    /// the kernel has switched the sender out in the meantime, the DTU
    /// routes the reply into that context's save area instead of the live
    /// endpoint registers of whoever occupies the PE now.
    pub ctx: u64,
}

/// The header the DTU prepends to every message (paper §4.4.2).
///
/// The `label` is chosen by the *receiver* when the kernel creates the
/// channel and is unforgeable by the sender; receivers typically set it to
/// the address of the object representing the sender so no lookup is needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// The receiver-chosen label identifying the sender.
    pub label: Label,
    /// Payload length in bytes.
    pub len: u32,
    /// PE the message came from.
    pub sender_pe: PeId,
    /// Send endpoint the message came from.
    pub sender_ep: EpId,
    /// Reply destination, if the sender permitted a reply.
    pub reply: Option<ReplyInfo>,
}

/// A received message: header plus payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// The DTU-generated header.
    pub header: Header,
    /// The payload as sent (shared, not copied, between hops).
    pub payload: Payload,
}

impl Message {
    /// Total size the message occupies on the wire and in a ring-buffer
    /// slot: header plus payload.
    pub fn wire_size(&self) -> usize {
        m3_base::cfg::MSG_HEADER_SIZE + self.payload.len()
    }

    /// The label identifying the sender (shorthand for `header.label`).
    pub fn label(&self) -> Label {
        self.header.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: usize) -> Message {
        Message {
            header: Header {
                label: 7,
                len: payload as u32,
                sender_pe: PeId::new(1),
                sender_ep: EpId::new(2),
                reply: None,
            },
            payload: vec![0; payload].into(),
        }
    }

    #[test]
    fn wire_size_includes_header() {
        assert_eq!(msg(8).wire_size(), m3_base::cfg::MSG_HEADER_SIZE + 8);
        assert_eq!(msg(0).wire_size(), m3_base::cfg::MSG_HEADER_SIZE);
    }

    #[test]
    fn label_shorthand() {
        assert_eq!(msg(1).label(), 7);
    }

    #[test]
    fn payload_shares_one_allocation_across_clones() {
        let p: Payload = vec![1u8, 2, 3].into();
        let q = p.clone();
        assert!(std::ptr::eq(p.as_slice(), q.as_slice()));
        assert_eq!(p, q);
    }

    #[test]
    fn payload_compares_like_bytes() {
        let p: Payload = (b"ping").into();
        assert_eq!(p, b"ping");
        assert_eq!(p, *b"ping");
        assert_eq!(p, b"ping"[..]);
        assert_eq!(p, &b"ping"[..]);
        assert_eq!(p, b"ping".to_vec());
        assert_eq!(b"ping".to_vec(), p);
        assert_ne!(p, b"pong");
        assert_eq!(Payload::empty().len(), 0);
        assert_eq!(&p[1..3], b"in");
    }
}
