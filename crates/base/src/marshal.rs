//! Message (un)marshalling streams.
//!
//! libm3 overloads the C++ shift operators to marshal objects into DTU
//! messages (paper §4.5.6, following the L4 marshalling frameworks). The Rust
//! equivalent here is a pair of byte-oriented streams with typed push/pop
//! methods. Every DTU-message protocol in this workspace — kernel syscalls,
//! the m3fs protocol, the pipe protocol — is encoded with these streams, so a
//! message's cost model (its length) matches what actually goes over the NoC.
//!
//! All integers are little-endian. Strings are a `u32` length followed by the
//! UTF-8 bytes. Byte slices are encoded the same way.
//!
//! Message types declare their layout once, with [`wire!`](crate::wire):
//! each variant's tag, trace name and fields in wire order. The macro
//! derives the type, its [`Wire`] codec and its `name()` from that one
//! declaration.

use std::cell::Cell;

use crate::error::{Code, Error, Result};
use crate::ids::{EpId, SelId};
use crate::payload::Payload;
use crate::perm::Perm;

/// An output stream that marshals values into a byte buffer.
///
/// # Examples
///
/// ```
/// use m3_base::marshal::OStream;
///
/// let mut os = OStream::new();
/// os.push_u32(7).push_str("path");
/// assert_eq!(os.len(), 4 + 4 + 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OStream {
    buf: Vec<u8>,
}

impl OStream {
    /// Creates an empty stream.
    pub fn new() -> OStream {
        OStream { buf: Vec::new() }
    }

    /// Creates an empty stream with space for `cap` bytes.
    pub fn with_capacity(cap: usize) -> OStream {
        OStream {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn push_u8(&mut self, v: u8) -> &mut OStream {
        self.buf.push(v);
        self
    }

    /// Appends a `u32` (little-endian).
    pub fn push_u32(&mut self, v: u32) -> &mut OStream {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` (little-endian).
    pub fn push_u64(&mut self, v: u64) -> &mut OStream {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `i64` (little-endian).
    pub fn push_i64(&mut self, v: i64) -> &mut OStream {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `bool` as one byte.
    pub fn push_bool(&mut self, v: bool) -> &mut OStream {
        self.push_u8(v as u8)
    }

    /// Appends a length-prefixed string.
    pub fn push_str(&mut self, v: &str) -> &mut OStream {
        self.push_bytes(v.as_bytes())
    }

    /// Appends a length-prefixed byte slice.
    pub fn push_bytes(&mut self, v: &[u8]) -> &mut OStream {
        self.push_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Number of bytes marshalled so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been marshalled yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the stream and returns the marshalled bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the marshalled bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// An input stream that unmarshals values from a byte buffer.
///
/// All pop methods return [`Code::BadMessage`] if the buffer is exhausted or
/// malformed, so a corrupted or truncated message never panics the receiver.
///
/// # Examples
///
/// ```
/// use m3_base::marshal::{IStream, OStream};
///
/// let mut os = OStream::new();
/// os.push_bool(true).push_u64(9);
/// let bytes = os.into_bytes();
/// let mut is = IStream::new(&bytes);
/// assert!(is.pop_bool().unwrap());
/// assert_eq!(is.pop_u64().unwrap(), 9);
/// assert!(is.pop_u8().is_err()); // exhausted
/// ```
#[derive(Clone, Debug)]
pub struct IStream<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> IStream<'a> {
    /// Creates a stream over `buf`.
    pub fn new(buf: &'a [u8]) -> IStream<'a> {
        IStream { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::new(Code::BadMessage).with_msg("truncated message"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_i64(&mut self) -> Result<i64> {
        let s = self.take(8)?;
        Ok(i64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_bool(&mut self) -> Result<bool> {
        Ok(self.pop_u8()? != 0)
    }

    /// Reads a length-prefixed string.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted or the bytes
    /// are not valid UTF-8.
    pub fn pop_str(&mut self) -> Result<String> {
        let bytes = self.pop_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::new(Code::BadMessage).with_msg("invalid utf-8"))
    }

    /// Reads a length-prefixed byte slice (borrowed from the message).
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.pop_u32()? as usize;
        self.take(len)
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A value with a fixed wire layout: a field of a [`wire!`](crate::wire)
/// message, or such a message itself.
pub trait Wire: Sized {
    /// Appends the value's encoding.
    fn put(&self, os: &mut OStream);

    /// Reads a value.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the bytes are truncated or malformed.
    fn take(is: &mut IStream<'_>) -> Result<Self>;
}

macro_rules! wire_via {
    ($($ty:ty: $push:ident($to:expr), $pop:ident($from:expr);)*) => {
        $(impl Wire for $ty {
            fn put(&self, os: &mut OStream) {
                os.$push($to(self));
            }

            fn take(is: &mut IStream<'_>) -> Result<Self> {
                is.$pop().map($from)
            }
        })*
    };
}

wire_via! {
    u8: push_u8(|v: &u8| *v), pop_u8(|v| v);
    u32: push_u32(|v: &u32| *v), pop_u32(|v| v);
    u64: push_u64(|v: &u64| *v), pop_u64(|v| v);
    i64: push_i64(|v: &i64| *v), pop_i64(|v| v);
    bool: push_bool(|v: &bool| *v), pop_bool(|v| v);
    String: push_str(String::as_str), pop_str(|v| v);
    Vec<u8>: push_bytes(Vec::as_slice), pop_bytes(<[u8]>::to_vec);
    SelId: push_u32(|v: &SelId| v.raw()), pop_u32(SelId::new);
    EpId: push_u32(|v: &EpId| v.raw()), pop_u32(EpId::new);
    Perm: push_u8(|v: &Perm| v.bits()), pop_u8(Perm::from_bits);
}

/// The error code of a reply: `0` for success, otherwise the code's raw
/// value.
impl Wire for Option<Code> {
    fn put(&self, os: &mut OStream) {
        os.push_u32(self.map_or(0, Code::as_raw));
    }

    fn take(is: &mut IStream<'_>) -> Result<Self> {
        Ok(match is.pop_u32()? {
            0 => None,
            raw => Some(Code::from_raw(raw)),
        })
    }
}

/// Appends a `u32` count followed by each item: the layout of a
/// `[max N]` field of a [`wire!`](crate::wire) message.
pub fn put_list<T: Wire>(os: &mut OStream, items: &[T]) {
    os.push_u32(items.len() as u32);
    for item in items {
        item.put(os);
    }
}

/// Reads a list written by [`put_list`].
///
/// # Errors
///
/// Returns [`Code::BadMessage`] if the count exceeds `max` or an item is
/// truncated or malformed.
pub fn take_list<T: Wire>(is: &mut IStream<'_>, max: usize) -> Result<Vec<T>> {
    let n = is.pop_u32()? as usize;
    if n > max {
        return Err(Error::new(Code::BadMessage).with_msg("list too long"));
    }
    (0..n).map(|_| T::take(is)).collect()
}

thread_local! {
    /// The buffer [`encode`] marshals into, reused by every call.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Encodes `value` into a payload: one allocation of exactly its length.
/// The bytes are marshalled into a reused buffer first, since their length
/// is known only once they are.
pub fn encode<T: Wire>(value: &T) -> Payload {
    // Taken out, not borrowed: a `put` that encodes a message of its own
    // gets an empty buffer rather than a borrow error.
    let mut os = OStream {
        buf: SCRATCH.take(),
    };
    os.buf.clear();
    value.put(&mut os);
    let payload = Payload::from(os.as_bytes());
    SCRATCH.set(os.buf);
    payload
}

/// Decodes a `T` from the start of `bytes`.
///
/// # Errors
///
/// Returns [`Code::BadMessage`] if the bytes are truncated or malformed.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T> {
    T::take(&mut IStream::new(bytes))
}

/// Declares a message type and its wire layout in one place.
///
/// An enum lists each variant once, as `tag => Variant`, optionally
/// followed by a trace name (the variant's identifier otherwise), then its
/// fields in wire order. The encoding is the tag (of the type named after
/// the enum's colon), then each field's [`Wire`] encoding. A field marked
/// `[max N]` is a `Vec` encoded as a `u32` count and its items; a count
/// above `N` decodes to [`Code::BadMessage`], as does an unknown tag. A
/// variant with one unnamed field names it for the codec:
/// `1 => Type(ty: PeType)`.
///
/// A struct is its fields in order, without a tag.
///
/// The macro generates the type, its [`Wire`] impl and, for enums,
/// `name()`. It also generates inherent `to_bytes` and `from_bytes`,
/// unless the declaration starts with `#[wire(part)]`: a part travels
/// inside other messages, or behind a prefix its own code writes.
///
/// # Examples
///
/// ```
/// use m3_base::marshal::{self, Wire};
///
/// m3_base::wire! {
///     #[derive(Debug, PartialEq)]
///     pub enum Req: u8 {
///         0 => Ping,
///         1 => Read "read" { off: u64, tags: Vec<u32> [max 4] },
///     }
/// }
///
/// let req = Req::Read { off: 9, tags: vec![7] };
/// assert_eq!(req.name(), "read");
/// let bytes = req.to_bytes();
/// assert_eq!(bytes.len(), 1 + 8 + 4 + 4);
/// assert_eq!(Req::from_bytes(&bytes).unwrap(), req);
/// assert_eq!(Req::Ping.name(), "Ping");
/// assert!(Req::from_bytes(&[2]).is_err());
/// ```
#[macro_export]
macro_rules! wire {
    (@item [$($bytes:ident)?]
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident: $Tag:ty {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $Variant:ident $($tname:literal)?
                    $(($tf:ident: $tty:ty))?
                    $({
                        $($(#[$fmeta:meta])* $f:ident: $fty:ty $([max $max:expr])?),* $(,)?
                    })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $Variant $(($tty))? $({ $($(#[$fmeta])* $f: $fty),* })?,
            )*
        }

        impl $Name {
            /// The message name, for tracing and diagnostics.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$Variant { .. } => $crate::wire!(@name $Variant $($tname)?),)*
                }
            }
        }

        impl $crate::marshal::Wire for $Name {
            fn put(&self, os: &mut $crate::marshal::OStream) {
                match self {
                    $(Self::$Variant { $(0: $tf)? $($($f),*)? } => {
                        <$Tag as $crate::marshal::Wire>::put(&$tag, os);
                        $($crate::marshal::Wire::put($tf, os);)?
                        $($($crate::wire!(@put os $f $(, $max)?);)*)?
                    })*
                }
            }

            fn take(is: &mut $crate::marshal::IStream<'_>) -> $crate::error::Result<Self> {
                Ok(match <$Tag as $crate::marshal::Wire>::take(is)? {
                    $($tag => Self::$Variant {
                        $(0: <$tty as $crate::marshal::Wire>::take(is)?)?
                        $($($f: $crate::wire!(@take is $fty $(, $max)?)),*)?
                    },)*
                    _ => {
                        return Err($crate::error::Error::new($crate::error::Code::BadMessage)
                            .with_msg(concat!("unknown ", stringify!($Name), " tag")))
                    }
                })
            }
        }

        $crate::wire!(@bytes [$($bytes)?] $Name);
    };
    (@item [$($bytes:ident)?]
        $(#[$meta:meta])*
        $vis:vis struct $Name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident: $fty:ty $([max $max:expr])?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Name {
            $($(#[$fmeta])* $fvis $f: $fty),*
        }

        impl $crate::marshal::Wire for $Name {
            fn put(&self, os: &mut $crate::marshal::OStream) {
                $($crate::wire!(@put os (&self.$f) $(, $max)?);)*
            }

            fn take(is: &mut $crate::marshal::IStream<'_>) -> $crate::error::Result<Self> {
                Ok(Self {
                    $($f: $crate::wire!(@take is $fty $(, $max)?)),*
                })
            }
        }

        $crate::wire!(@bytes [$($bytes)?] $Name);
    };
    (@name $Variant:ident) => { stringify!($Variant) };
    (@name $Variant:ident $tname:literal) => { $tname };
    (@put $os:ident $v:expr) => { $crate::marshal::Wire::put($v, $os) };
    (@put $os:ident $v:expr, $max:expr) => { $crate::marshal::put_list($os, $v) };
    (@take $is:ident $ty:ty) => { <$ty as $crate::marshal::Wire>::take($is)? };
    (@take $is:ident $ty:ty, $max:expr) => { $crate::marshal::take_list($is, $max)? };
    (@bytes [] $Name:ident) => {};
    (@bytes [bytes] $Name:ident) => {
        impl $Name {
            /// Marshals the message into payload bytes.
            pub fn to_bytes(&self) -> $crate::payload::Payload {
                $crate::marshal::encode(self)
            }

            /// Unmarshals a message from payload bytes.
            ///
            /// # Errors
            ///
            /// Returns `BadMessage` if the bytes are truncated or malformed.
            pub fn from_bytes(bytes: &[u8]) -> $crate::error::Result<Self> {
                $crate::marshal::decode(bytes)
            }
        }
    };
    (#[wire(part)] $($item:tt)*) => { $crate::wire!(@item [] $($item)*); };
    ($($item:tt)*) => { $crate::wire!(@item [bytes] $($item)*); };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut os = OStream::new();
        os.push_u8(0xab)
            .push_u32(0xdead_beef)
            .push_u64(u64::MAX)
            .push_i64(-42)
            .push_bool(true)
            .push_str("m3fs")
            .push_bytes(&[1, 2, 3]);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_u8().unwrap(), 0xab);
        assert_eq!(is.pop_u32().unwrap(), 0xdead_beef);
        assert_eq!(is.pop_u64().unwrap(), u64::MAX);
        assert_eq!(is.pop_i64().unwrap(), -42);
        assert!(is.pop_bool().unwrap());
        assert_eq!(is.pop_str().unwrap(), "m3fs");
        assert_eq!(is.pop_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(is.remaining(), 0);
    }

    #[test]
    fn truncated_message_is_an_error_not_a_panic() {
        let mut os = OStream::new();
        os.push_u64(7);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes[..5]);
        assert_eq!(is.pop_u64().unwrap_err().code(), Code::BadMessage);
    }

    #[test]
    fn bogus_string_length_is_an_error() {
        let mut os = OStream::new();
        os.push_u32(1000); // claims 1000 bytes follow
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_str().unwrap_err().code(), Code::BadMessage);
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut os = OStream::new();
        os.push_bytes(&[0xff, 0xfe]);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_str().unwrap_err().code(), Code::BadMessage);
    }

    #[test]
    fn empty_stream() {
        let os = OStream::new();
        assert!(os.is_empty());
        assert_eq!(os.len(), 0);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert!(is.pop_u8().is_err());
    }
}
