//! The virtual filesystem (§4.5.8).
//!
//! "To support multiple filesystems, libm3 offers a virtual filesystem
//! (VFS) that allows to mount filesystems at specific paths." The POSIX-like
//! abstractions (`open`, `read`, `write`, `seek`, `close`) relieve
//! applications from obtaining memory capabilities and tracking extents
//! themselves.

use std::fmt;
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};

use crate::env::Env;
use crate::gate::MemGate;
use crate::pagecache::PageCache;
use crate::BoxFuture;

/// Open flags.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Open for reading.
    pub const R: OpenFlags = OpenFlags(0b0001);
    /// Open for writing.
    pub const W: OpenFlags = OpenFlags(0b0010);
    /// Open for reading and writing.
    pub const RW: OpenFlags = OpenFlags(0b0011);
    /// Create the file if it does not exist (implies writing).
    pub const CREATE: OpenFlags = OpenFlags(0b0110);
    /// Truncate to zero length on open (implies writing).
    pub const TRUNC: OpenFlags = OpenFlags(0b1010);

    /// Union of two flag sets.
    pub fn or(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | other.0)
    }

    /// The flags' wire encoding: bit 0 read, 1 write, 2 create, 3 truncate.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The flags a [`OpenFlags::bits`] value encodes.
    pub fn from_bits(bits: u32) -> OpenFlags {
        OpenFlags(bits)
    }

    /// Whether reads are permitted.
    pub fn readable(self) -> bool {
        self.0 & 0b0001 != 0
    }

    /// Whether writes are permitted.
    pub fn writable(self) -> bool {
        self.0 & 0b0010 != 0
    }

    /// Whether the file should be created if missing.
    pub fn create(self) -> bool {
        self.0 & 0b0100 != 0
    }

    /// Whether the file should be truncated on open.
    pub fn trunc(self) -> bool {
        self.0 & 0b1000 != 0
    }
}

/// Metadata of a file or directory.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct FileInfo {
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// Number of extents the file consists of (fragmentation, §5.5).
    pub extents: u32,
    /// Link count.
    pub links: u32,
}

/// One directory entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no path components).
    pub name: String,
    /// Whether the entry is a directory.
    pub is_dir: bool,
}

/// Origin of a seek.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SeekMode {
    /// From the start of the file.
    Set,
    /// From the current position.
    Cur,
    /// From the end of the file.
    End,
}

/// A contiguous extent of a mapped file: `len` bytes of file content
/// starting at file offset `file_off`, backed directly by a memory
/// capability — the M3 way of mmap: instead of copying file data through
/// `read`, the application obtains the extents' memory capabilities once
/// and accesses the bytes through the DTU (§4.5.8).
#[derive(Debug)]
pub struct MapExtent {
    /// File offset the extent starts at.
    pub file_off: u64,
    /// Extent length in bytes.
    pub len: u64,
    /// The extent's memory capability.
    pub mem: MemGate,
}

/// An open file (or pipe end, through the pipe filesystem).
pub trait File {
    /// Reads into `buf`; returns the number of bytes read (0 at EOF).
    fn read<'a>(&'a mut self, buf: &'a mut [u8]) -> BoxFuture<'a, Result<usize>>;

    /// Writes `data`; returns the number of bytes written.
    fn write<'a>(&'a mut self, data: &'a [u8]) -> BoxFuture<'a, Result<usize>>;

    /// Moves the file position; returns the new absolute position.
    fn seek<'a>(&'a mut self, offset: i64, whence: SeekMode) -> BoxFuture<'a, Result<u64>>;

    /// Flushes and closes the file.
    fn close<'a>(&'a mut self) -> BoxFuture<'a, Result<()>>;

    /// Maps the whole file: returns its extents as memory capabilities for
    /// direct DTU access (the mmap-style path; see [`MappedFile`]).
    /// Supported by filesystems whose files live in capability-addressable
    /// memory (m3fs regular files); pipes and friends return
    /// [`Code::NotSup`].
    fn map<'a>(&'a mut self) -> BoxFuture<'a, Result<Vec<MapExtent>>> {
        Box::pin(async { Err(Error::new(Code::NotSup).with_msg("file is not mappable")) })
    }
}

/// A file mapped for demand-paged reads: each extent's memory capability
/// sits behind a [`PageCache`], so bytes are faulted in page-wise through
/// the DTU on first access and re-reads stay local (§7: DTU-fed caches).
pub struct MappedFile {
    /// `(file_off, len, cache)` per extent, sorted by file offset.
    extents: Vec<(u64, u64, PageCache)>,
    size: u64,
}

impl fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MappedFile({} extents, {} bytes)",
            self.extents.len(),
            self.size
        )
    }
}

impl MappedFile {
    /// Maps `file` with a page cache of `cache_pages` pages per extent.
    ///
    /// # Errors
    ///
    /// Propagates [`File::map`] errors ([`Code::NotSup`] for unmappable
    /// files).
    pub async fn map(file: &mut dyn File, cache_pages: usize) -> Result<MappedFile> {
        let mut extents: Vec<(u64, u64, PageCache)> = file
            .map()
            .await?
            .into_iter()
            .map(|e| {
                let cache = PageCache::new(e.mem, cache_pages).bounded(e.len);
                (e.file_off, e.len, cache)
            })
            .collect();
        extents.sort_by_key(|&(off, _, _)| off);
        let size = extents.last().map_or(0, |&(off, len, _)| off + len);
        Ok(MappedFile { extents, size })
    }

    /// The mapped file's size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Pages faulted in so far, across all extents.
    pub fn fills(&self) -> u64 {
        self.extents.iter().map(|(_, _, c)| c.fills()).sum()
    }

    /// Reads up to `buf.len()` bytes at file offset `off` through the page
    /// caches; returns the number of bytes read (0 at EOF). Position-based
    /// like `pread` — a mapping has no cursor.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors (e.g. a revoked extent capability).
    pub async fn read(&mut self, off: u64, buf: &mut [u8]) -> Result<usize> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let addr = off + pos as u64;
            let Some(ext) = self
                .extents
                .iter_mut()
                .find(|&&mut (eoff, elen, _)| addr >= eoff && addr < eoff + elen)
            else {
                break; // EOF or hole
            };
            let (eoff, elen, cache) = ext;
            let rel = addr - *eoff;
            let n = ((*elen - rel) as usize).min(buf.len() - pos);
            cache.read(rel, &mut buf[pos..pos + n]).await?;
            pos += n;
        }
        Ok(pos)
    }
}

/// A mounted filesystem implementation.
pub trait FileSystem {
    /// Opens `path` relative to the mount point.
    fn open<'a>(
        &'a self,
        env: &'a Env,
        path: &'a str,
        flags: OpenFlags,
    ) -> BoxFuture<'a, Result<Box<dyn File>>>;

    /// Stats `path`.
    fn stat<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<FileInfo>>;

    /// Creates a directory.
    fn mkdir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>>;

    /// Removes an empty directory.
    fn rmdir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>>;

    /// Creates a hard link `new` to `old`.
    fn link<'a>(&'a self, env: &'a Env, old: &'a str, new: &'a str) -> BoxFuture<'a, Result<()>>;

    /// Removes a file.
    fn unlink<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>>;

    /// Lists a directory.
    fn read_dir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<Vec<DirEntry>>>;
}

/// The per-VPE mount table.
#[derive(Default)]
pub struct Vfs {
    mounts: Vec<(String, Rc<dyn FileSystem>)>,
}

impl fmt::Debug for Vfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let paths: Vec<&str> = self.mounts.iter().map(|(p, _)| p.as_str()).collect();
        write!(f, "Vfs(mounts: {paths:?})")
    }
}

impl Vfs {
    /// Creates an empty mount table.
    pub fn new() -> Vfs {
        Vfs::default()
    }

    /// Mounts `fs` at `prefix` (e.g. `"/"`).
    pub fn mount(&mut self, prefix: &str, fs: Rc<dyn FileSystem>) {
        let mut prefix = prefix.to_string();
        if !prefix.ends_with('/') {
            prefix.push('/');
        }
        self.mounts.push((prefix, fs));
        // Longest prefix first.
        self.mounts
            .sort_by_key(|(prefix, _)| std::cmp::Reverse(prefix.len()));
    }

    /// Resolves `path` to (filesystem, path relative to the mount point).
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoSuchFile`] if no mount covers the path.
    pub fn resolve(&self, path: &str) -> Result<(Rc<dyn FileSystem>, String)> {
        for (prefix, fs) in &self.mounts {
            if let Some(rest) = path.strip_prefix(prefix.trim_end_matches('/')) {
                let rel = rest.trim_start_matches('/');
                return Ok((fs.clone(), format!("/{rel}")));
            }
        }
        Err(Error::new(Code::NoSuchFile).with_msg(format!("no filesystem for {path}")))
    }

    /// Number of mounts.
    pub fn mount_count(&self) -> usize {
        self.mounts.len()
    }
}

/// Opens `path` through the environment's mount table.
///
/// # Errors
///
/// Propagates resolution and filesystem errors.
pub async fn open(env: &Env, path: &str, flags: OpenFlags) -> Result<Box<dyn File>> {
    let (fs, rel) = env.vfs().borrow().resolve(path)?;
    fs.open(env, &rel, flags).await
}

/// Stats `path`.
///
/// # Errors
///
/// Propagates resolution and filesystem errors.
pub async fn stat(env: &Env, path: &str) -> Result<FileInfo> {
    let (fs, rel) = env.vfs().borrow().resolve(path)?;
    fs.stat(env, &rel).await
}

/// Creates a directory at `path`.
///
/// # Errors
///
/// Propagates resolution and filesystem errors.
pub async fn mkdir(env: &Env, path: &str) -> Result<()> {
    let (fs, rel) = env.vfs().borrow().resolve(path)?;
    fs.mkdir(env, &rel).await
}

/// Removes the empty directory at `path`.
///
/// # Errors
///
/// Propagates resolution and filesystem errors.
pub async fn rmdir(env: &Env, path: &str) -> Result<()> {
    let (fs, rel) = env.vfs().borrow().resolve(path)?;
    fs.rmdir(env, &rel).await
}

/// Creates a hard link (both paths must live on the same mount).
///
/// # Errors
///
/// Returns [`Code::NotSup`] for cross-mount links.
pub async fn link(env: &Env, old: &str, new: &str) -> Result<()> {
    let (fs_old, rel_old) = env.vfs().borrow().resolve(old)?;
    let (fs_new, rel_new) = env.vfs().borrow().resolve(new)?;
    if !Rc::ptr_eq(&fs_old, &fs_new) {
        return Err(Error::new(Code::NotSup).with_msg("cross-mount link"));
    }
    fs_old.link(env, &rel_old, &rel_new).await
}

/// Removes the file at `path`.
///
/// # Errors
///
/// Propagates resolution and filesystem errors.
pub async fn unlink(env: &Env, path: &str) -> Result<()> {
    let (fs, rel) = env.vfs().borrow().resolve(path)?;
    fs.unlink(env, &rel).await
}

/// Lists the directory at `path`.
///
/// # Errors
///
/// Propagates resolution and filesystem errors.
pub async fn read_dir(env: &Env, path: &str) -> Result<Vec<DirEntry>> {
    let (fs, rel) = env.vfs().borrow().resolve(path)?;
    fs.read_dir(env, &rel).await
}

/// Reads a whole file into memory (convenience for tests and tools).
///
/// # Errors
///
/// Propagates open/read errors.
pub async fn read_to_vec(env: &Env, path: &str) -> Result<Vec<u8>> {
    let mut file = open(env, path, OpenFlags::R).await?;
    let mut out = Vec::new();
    let mut buf = vec![0u8; m3_base::cfg::BENCH_BUF_SIZE];
    loop {
        let n = file.read(&mut buf).await?;
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    file.close().await?;
    Ok(out)
}

/// Writes a whole buffer to a (created/truncated) file.
///
/// # Errors
///
/// Propagates open/write errors.
pub async fn write_all(env: &Env, path: &str, data: &[u8]) -> Result<()> {
    let mut file = open(env, path, OpenFlags::CREATE.or(OpenFlags::TRUNC)).await?;
    let mut pos = 0;
    while pos < data.len() {
        let n = file.write(&data[pos..]).await?;
        if n == 0 {
            return Err(Error::new(Code::NoSpace));
        }
        pos += n;
    }
    file.close().await
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DummyFs(&'static str);

    impl FileSystem for DummyFs {
        fn open<'a>(
            &'a self,
            _env: &'a Env,
            _path: &'a str,
            _flags: OpenFlags,
        ) -> BoxFuture<'a, Result<Box<dyn File>>> {
            Box::pin(async { Err(Error::new(Code::NotSup).with_msg(self.0)) })
        }
        fn stat<'a>(&'a self, _env: &'a Env, _path: &'a str) -> BoxFuture<'a, Result<FileInfo>> {
            Box::pin(async { Ok(FileInfo::default()) })
        }
        fn mkdir<'a>(&'a self, _env: &'a Env, _path: &'a str) -> BoxFuture<'a, Result<()>> {
            Box::pin(async { Ok(()) })
        }
        fn rmdir<'a>(&'a self, _env: &'a Env, _path: &'a str) -> BoxFuture<'a, Result<()>> {
            Box::pin(async { Ok(()) })
        }
        fn link<'a>(
            &'a self,
            _env: &'a Env,
            _old: &'a str,
            _new: &'a str,
        ) -> BoxFuture<'a, Result<()>> {
            Box::pin(async { Ok(()) })
        }
        fn unlink<'a>(&'a self, _env: &'a Env, _path: &'a str) -> BoxFuture<'a, Result<()>> {
            Box::pin(async { Ok(()) })
        }
        fn read_dir<'a>(
            &'a self,
            _env: &'a Env,
            _path: &'a str,
        ) -> BoxFuture<'a, Result<Vec<DirEntry>>> {
            Box::pin(async { Ok(Vec::new()) })
        }
    }

    #[test]
    fn resolve_prefers_longest_prefix() {
        let mut vfs = Vfs::new();
        let root: Rc<dyn FileSystem> = Rc::new(DummyFs("root"));
        let pipes: Rc<dyn FileSystem> = Rc::new(DummyFs("pipes"));
        vfs.mount("/", root.clone());
        vfs.mount("/pipes", pipes.clone());

        let (fs, rel) = vfs.resolve("/pipes/p0").unwrap();
        assert!(Rc::ptr_eq(&fs, &pipes));
        assert_eq!(rel, "/p0");

        let (fs, rel) = vfs.resolve("/data/file.txt").unwrap();
        assert!(Rc::ptr_eq(&fs, &root));
        assert_eq!(rel, "/data/file.txt");
    }

    #[test]
    fn resolve_without_mount_fails() {
        let vfs = Vfs::new();
        let err = vfs.resolve("/x").map(|_| ()).unwrap_err();
        assert_eq!(err.code(), Code::NoSuchFile);
    }

    #[test]
    fn flags() {
        assert!(OpenFlags::R.readable());
        assert!(!OpenFlags::R.writable());
        assert!(OpenFlags::CREATE.writable() && OpenFlags::CREATE.create());
        assert!(OpenFlags::TRUNC.trunc());
        let rw = OpenFlags::R.or(OpenFlags::W);
        assert!(rw.readable() && rw.writable());
    }

    #[test]
    fn flag_bits_are_the_wire_encoding() {
        let created = OpenFlags::CREATE.or(OpenFlags::TRUNC);
        assert_eq!(OpenFlags::R.bits(), 0b0001);
        assert_eq!(OpenFlags::RW.bits(), 0b0011);
        assert_eq!(created.bits(), 0b1110);
        let back = OpenFlags::from_bits(created.bits());
        assert_eq!(back, created);
        assert!(!back.readable() && back.writable() && back.create() && back.trunc());
    }
}
