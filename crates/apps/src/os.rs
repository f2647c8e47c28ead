//! [`OsApi`]: the POSIX-like calls the §5.6 workloads make, implemented
//! once for libm3 ([`Env`]) and once for the Linux model ([`LxProc`]).
//!
//! The paper replays one BusyBox recording on both systems (§5.6). Here a
//! workload body is written once against this trait, so both systems
//! issue the same operation sequence by construction.

use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, Perm};
use m3_libos::vfs::{self, DirEntry, File, FileInfo, OpenFlags, SeekMode};
use m3_libos::Env;
use m3_lx::{LxFile, LxProc};

/// The file-system and compute calls of one process. Every call charges
/// exactly what the underlying system charges for it.
// The simulator is single-threaded, so the futures need no `Send` bound.
#[allow(async_fn_in_trait)]
pub trait OsApi {
    /// An open file.
    type File;

    /// Opens `path`.
    async fn open(&self, path: &str, flags: OpenFlags) -> Result<Self::File>;

    /// Reads up to `buf.len()` bytes at the file position; 0 means EOF.
    async fn read(&self, file: &mut Self::File, buf: &mut [u8]) -> Result<usize>;

    /// Writes all of `data` at the file position.
    async fn write_all(&self, file: &mut Self::File, data: &[u8]) -> Result<()>;

    /// Moves the file position; returns the new one.
    async fn seek(&self, file: &mut Self::File, off: i64, whence: SeekMode) -> Result<u64>;

    /// Closes `file`.
    async fn close(&self, file: Self::File) -> Result<()>;

    /// Stats `path`.
    async fn stat(&self, path: &str) -> Result<FileInfo>;

    /// Lists the directory at `path`.
    async fn read_dir(&self, path: &str) -> Result<Vec<DirEntry>>;

    /// Creates a directory.
    async fn mkdir(&self, path: &str) -> Result<()>;

    /// Removes a file name.
    async fn unlink(&self, path: &str) -> Result<()>;

    /// Application computation (the "App" share of Figure 5).
    async fn compute(&self, cycles: Cycles);

    /// Marks the start of a workload in the trace; records nothing by
    /// default, so Lx traces stay free of app marks.
    fn mark(&self, _what: &str) {}

    /// Copies from `src` to `dst` until `limit` bytes or EOF; returns the
    /// bytes copied. By default a read/`write_all` loop, which issues one
    /// more read to see EOF unless `limit` is reached first.
    async fn copy(&self, dst: &mut Self::File, src: &mut Self::File, limit: u64) -> Result<u64> {
        let mut buf = vec![0u8; BENCH_BUF_SIZE];
        let mut copied = 0u64;
        while copied < limit {
            let want = (limit - copied).min(buf.len() as u64) as usize;
            let n = self.read(src, &mut buf[..want]).await?;
            if n == 0 {
                break;
            }
            self.write_all(dst, &buf[..n]).await?;
            copied += n as u64;
        }
        Ok(copied)
    }
}

/// libm3 over the VPE's mount table. `compute` is application time.
impl OsApi for Env {
    type File = Box<dyn File>;

    async fn open(&self, path: &str, flags: OpenFlags) -> Result<Self::File> {
        vfs::open(self, path, flags).await
    }

    async fn read(&self, file: &mut Self::File, buf: &mut [u8]) -> Result<usize> {
        file.read(buf).await
    }

    async fn write_all(&self, file: &mut Self::File, data: &[u8]) -> Result<()> {
        // m3fs writes stop at the end of an extent.
        let mut written = 0;
        while written < data.len() {
            match file.write(&data[written..]).await? {
                0 => return Err(Error::new(Code::NoSpace)),
                n => written += n,
            }
        }
        Ok(())
    }

    async fn seek(&self, file: &mut Self::File, off: i64, whence: SeekMode) -> Result<u64> {
        file.seek(off, whence).await
    }

    async fn close(&self, mut file: Self::File) -> Result<()> {
        file.close().await
    }

    async fn stat(&self, path: &str) -> Result<FileInfo> {
        vfs::stat(self, path).await
    }

    async fn read_dir(&self, path: &str) -> Result<Vec<DirEntry>> {
        vfs::read_dir(self, path).await
    }

    async fn mkdir(&self, path: &str) -> Result<()> {
        vfs::mkdir(self, path).await
    }

    async fn unlink(&self, path: &str) -> Result<()> {
        vfs::unlink(self, path).await
    }

    async fn compute(&self, cycles: Cycles) {
        self.compute_app(cycles).await;
    }

    fn mark(&self, what: &str) {
        self.trace_mark(what);
    }
}

/// The Linux model. `copy` is `sendfile`, as BusyBox tar uses it (§5.6).
impl OsApi for LxProc {
    type File = LxFile;

    async fn open(&self, path: &str, flags: OpenFlags) -> Result<LxFile> {
        let read = if flags.readable() {
            Perm::R
        } else {
            Perm::NONE
        };
        let write = if flags.writable() {
            Perm::W
        } else {
            Perm::NONE
        };
        LxProc::open(self, path, read | write, flags.create(), flags.trunc()).await
    }

    async fn read(&self, file: &mut LxFile, buf: &mut [u8]) -> Result<usize> {
        let data = file.read(buf.len()).await?;
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }

    async fn write_all(&self, file: &mut LxFile, data: &[u8]) -> Result<()> {
        file.write(data).await.map(|_| ())
    }

    async fn seek(&self, file: &mut LxFile, off: i64, whence: SeekMode) -> Result<u64> {
        let base = match whence {
            SeekMode::Set => 0,
            SeekMode::Cur => file.pos(),
            SeekMode::End => file.size(),
        };
        let pos = base
            .checked_add_signed(off)
            .ok_or_else(|| Error::new(Code::InvOffset).with_msg("negative position"))?;
        Ok(file.seek(pos).await)
    }

    async fn close(&self, file: LxFile) -> Result<()> {
        file.close().await;
        Ok(())
    }

    async fn stat(&self, path: &str) -> Result<FileInfo> {
        let st = LxProc::stat(self, path).await?;
        Ok(FileInfo {
            size: st.size,
            is_dir: st.is_dir,
            extents: 0,
            links: st.links,
        })
    }

    async fn read_dir(&self, path: &str) -> Result<Vec<DirEntry>> {
        let entries = LxProc::read_dir(self, path).await?.into_iter();
        Ok(entries
            .map(|(name, is_dir)| DirEntry { name, is_dir })
            .collect())
    }

    async fn mkdir(&self, path: &str) -> Result<()> {
        LxProc::mkdir(self, path).await
    }

    async fn unlink(&self, path: &str) -> Result<()> {
        LxProc::unlink(self, path).await
    }

    async fn compute(&self, cycles: Cycles) {
        LxProc::compute(self, cycles).await;
    }

    async fn copy(&self, dst: &mut LxFile, src: &mut LxFile, limit: u64) -> Result<u64> {
        self.sendfile(dst, src, limit).await
    }
}
