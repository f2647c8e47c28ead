//! The m3fs wire protocol: meta-channel requests and locate arguments.
//!
//! Meta operations travel over a send gate the client obtains from the
//! session; data *locations* are exchanged as memory capabilities through
//! session obtains (§4.5.8).

use m3_base::marshal::{OStream, Wire};

/// Tag of a session obtain that requests the meta-channel send gate.
pub const OBTAIN_META_GATE: u8 = 0;

/// Tag of a session obtain that requests a file-fragment capability.
pub const OBTAIN_LOCATE: u8 = 1;

/// Sentinel for "close without truncating".
pub const NO_TRUNCATE: u64 = u64::MAX;

m3_base::wire! {
    /// A metadata request to m3fs.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum MetaRequest: u8 {
        /// Open (and possibly create/truncate) a file.
        0 => Open {
            /// Absolute path within the filesystem.
            path: String,
            /// `m3_libos::vfs::OpenFlags` bits.
            flags: u32,
        },
        /// Close an open file, truncating it to `size` bytes (§4.5.8)
        /// unless `size` is [`NO_TRUNCATE`].
        1 => Close {
            /// The open-file handle.
            fd: u64,
            /// Final file size.
            size: u64,
        },
        /// Stat a path.
        2 => Stat {
            /// Absolute path.
            path: String,
        },
        /// Create a directory.
        3 => Mkdir {
            /// Absolute path.
            path: String,
        },
        /// Remove an empty directory.
        4 => Rmdir {
            /// Absolute path.
            path: String,
        },
        /// Remove a file name.
        5 => Unlink {
            /// Absolute path.
            path: String,
        },
        /// Create a hard link.
        6 => Link {
            /// Existing file.
            old: String,
            /// New name.
            new: String,
        },
        /// List a directory, starting at entry index `start` (paged).
        7 => ReadDir {
            /// Absolute path.
            path: String,
            /// First entry index to return.
            start: u32,
        },
        /// Run a consistency check; the reply carries (errors, inodes,
        /// used blocks).
        8 => Fsck,
    }
}

/// A metadata reply: error code plus request-specific payload bytes, in
/// the system-call reply's format.
pub use m3_kernel::protocol::SyscallReply as MetaReply;

m3_base::wire! {
    #[wire(part)]
    /// Arguments of a locate obtain: which fragment of which file.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct LocateArgs {
        /// The open-file handle.
        pub fd: u64,
        /// Byte offset the caller wants to access.
        pub offset: u64,
        /// Whether the access is a write (may extend the file).
        pub write: bool,
        /// For writes at EOF: how many blocks to allocate at once (0 = the
        /// filesystem default of 256, §5.5).
        pub want_blocks: u64,
    }
}

impl LocateArgs {
    /// Marshals the arguments (prefixed with [`OBTAIN_LOCATE`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut os = OStream::with_capacity(32);
        os.push_u8(OBTAIN_LOCATE);
        self.put(&mut os);
        os.into_bytes()
    }
}

m3_base::wire! {
    /// Reply payload of a locate obtain.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct LocateReply {
        /// File offset the granted fragment starts at.
        pub ext_file_off: u64,
        /// Length of the granted fragment in bytes.
        pub ext_bytes: u64,
    }
}

#[cfg(test)]
mod tests {
    use m3_base::error::Code;
    use m3_base::marshal::IStream;

    use super::*;

    #[test]
    fn meta_requests_roundtrip() {
        for req in [
            MetaRequest::Open {
                path: "/a/b".into(),
                flags: 3,
            },
            MetaRequest::Close { fd: 7, size: 4096 },
            MetaRequest::Stat { path: "/x".into() },
            MetaRequest::Mkdir { path: "/d".into() },
            MetaRequest::Rmdir { path: "/d".into() },
            MetaRequest::Unlink { path: "/f".into() },
            MetaRequest::Link {
                old: "/f".into(),
                new: "/g".into(),
            },
            MetaRequest::ReadDir {
                path: "/d".into(),
                start: 16,
            },
            MetaRequest::Fsck,
        ] {
            assert_eq!(MetaRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        }
    }

    #[test]
    fn meta_reply_roundtrip() {
        assert_eq!(
            MetaReply::from_bytes(&MetaReply::ok_with(vec![1, 2]).to_bytes())
                .unwrap()
                .into_result()
                .unwrap(),
            vec![1, 2]
        );
        assert_eq!(
            MetaReply::from_bytes(&MetaReply::err(Code::NoSuchFile).to_bytes())
                .unwrap()
                .into_result()
                .unwrap_err()
                .code(),
            Code::NoSuchFile
        );
    }

    #[test]
    fn locate_roundtrip() {
        let args = LocateArgs {
            fd: 3,
            offset: 1 << 20,
            write: true,
            want_blocks: 256,
        };
        let bytes = args.to_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_u8().unwrap(), OBTAIN_LOCATE);
        assert_eq!(LocateArgs::take(&mut is).unwrap(), args);

        let reply = LocateReply {
            ext_file_off: 0,
            ext_bytes: 256 * 1024,
        };
        assert_eq!(LocateReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(
            MetaRequest::from_bytes(&[99]).unwrap_err().code(),
            Code::BadMessage
        );
    }
}
