//! Shared, immutable message payloads.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Shared, immutable payload bytes.
///
/// Backed by an `Rc<[u8]>` so the send→ring-buffer→receive path shares one
/// allocation: depositing, fetching, and cloning a message copies a pointer,
/// not the bytes. A message encoded with [`crate::marshal::encode`] is one
/// such allocation from the start. Derefs to `[u8]`, so anything taking
/// `&[u8]` works unchanged, and it compares against byte
/// slices/arrays/vectors directly.
#[derive(Clone, Eq)]
pub struct Payload(Rc<[u8]>);

impl Payload {
    /// An empty payload (no allocation of note).
    pub fn empty() -> Payload {
        Payload(Rc::from(&[][..]))
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload(Rc::from(v))
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(v: &Vec<u8>) -> Payload {
        Payload(Rc::from(&v[..]))
    }
}

impl From<&Payload> for Payload {
    fn from(p: &Payload) -> Payload {
        p.clone()
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload(Rc::from(v))
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload(Rc::from(&v[..]))
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.0 == other.0
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        *self.0 == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        *self.0 == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self[..] == *other.0
    }
}
