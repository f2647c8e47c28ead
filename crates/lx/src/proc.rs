//! Processes and system calls of the Linux model.

use std::future::Future;

use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, Perm};

use crate::costs;
use crate::machine::{Charge, LxMachine};
use crate::pipe::{lx_pipe, LxPipeReader, LxPipeWriter};
use crate::tmpfs::{Ino, Tmpfs};

/// File metadata returned by `stat`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LxStat {
    /// Size in bytes.
    pub size: u64,
    /// Whether the path is a directory.
    pub is_dir: bool,
    /// Link count.
    pub links: u32,
}

/// A process on the Linux machine. All methods charge calibrated cycle
/// costs; the process must be the one currently scheduled (which the
/// cooperative model guarantees).
#[derive(Clone, Debug)]
pub struct LxProc {
    m: LxMachine,
    pid: u32,
}

impl LxProc {
    pub(crate) fn new(m: LxMachine, pid: u32) -> LxProc {
        LxProc { m, pid }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The machine this process runs on.
    pub fn machine(&self) -> &LxMachine {
        &self.m
    }

    fn user_buf(&self) -> u64 {
        costs::USER_MEM_BASE + self.pid as u64 * costs::USER_MEM_STRIDE
    }

    fn file_addr(ino: Ino, off: u64) -> u64 {
        costs::FILE_MEM_BASE + ino * costs::FILE_MEM_STRIDE + off
    }

    /// Application computation.
    pub async fn compute(&self, cycles: Cycles) {
        self.m.charge(cycles, Charge::App).await;
    }

    /// A null system call (§5.3's micro-benchmark): mode switch + dispatch.
    /// Uses the core model's total (410 cycles on Xtensa, 320 on ARM, §5.2).
    pub async fn syscall_null(&self) {
        let total = self.m.config().core.lx_syscall_total;
        self.m.charge(total, Charge::Os).await;
    }

    async fn syscall_entry(&self) {
        self.m.charge(costs::SYSCALL_ENTRY_EXIT, Charge::Os).await;
    }

    async fn lookup(&self, path: &str) {
        let depth = Tmpfs::depth(path).max(1);
        self.m
            .charge(costs::PATH_LOOKUP_PER_COMP * depth, Charge::Os)
            .await;
    }

    /// Opens a file for the accesses in `access` ([`Perm::R`] and/or
    /// [`Perm::W`]).
    ///
    /// # Errors
    ///
    /// Standard filesystem errors; `create` creates missing files, `trunc`
    /// empties existing ones.
    pub async fn open(
        &self,
        path: &str,
        access: Perm,
        create: bool,
        trunc: bool,
    ) -> Result<LxFile> {
        self.syscall_entry().await;
        self.lookup(path).await;
        self.m.charge(costs::FD_LOOKUP, Charge::Os).await;
        let ino = {
            let mut fs = self.m.inner.fs.borrow_mut();
            match fs.resolve(path) {
                Ok(ino) => {
                    if fs.is_dir(ino) {
                        return Err(Error::new(Code::IsDir).with_msg(path.to_string()));
                    }
                    if trunc && access.contains(Perm::W) {
                        fs.truncate(ino, 0)?;
                    }
                    ino
                }
                Err(e) if e.code() == Code::NoSuchFile && create => fs.create(path)?,
                Err(e) => return Err(e),
            }
        };
        Ok(LxFile {
            proc: self.clone(),
            ino,
            pos: 0,
            access,
        })
    }

    /// `stat` — "well optimized on Linux" (§5.6).
    ///
    /// # Errors
    ///
    /// [`Code::NoSuchFile`] for missing paths.
    pub async fn stat(&self, path: &str) -> Result<LxStat> {
        self.syscall_entry().await;
        self.m.charge(costs::SYSCALL_DISPATCH, Charge::Os).await;
        self.lookup(path).await;
        self.m.charge(costs::STAT_FILL, Charge::Os).await;
        let fs = self.m.inner.fs.borrow();
        let ino = fs.resolve(path)?;
        Ok(LxStat {
            size: fs.size(ino),
            is_dir: fs.is_dir(ino),
            links: fs.links(ino),
        })
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// Standard filesystem errors.
    pub async fn mkdir(&self, path: &str) -> Result<()> {
        self.syscall_entry().await;
        self.lookup(path).await;
        self.m.charge(costs::INODE_MUT, Charge::Os).await;
        self.m.inner.fs.borrow_mut().mkdir(path).map(|_| ())
    }

    /// Removes a file name.
    ///
    /// # Errors
    ///
    /// Standard filesystem errors.
    pub async fn unlink(&self, path: &str) -> Result<()> {
        self.syscall_entry().await;
        self.lookup(path).await;
        self.m.charge(costs::INODE_MUT, Charge::Os).await;
        self.m.inner.fs.borrow_mut().unlink(path)
    }

    /// Creates a hard link.
    ///
    /// # Errors
    ///
    /// Standard filesystem errors.
    pub async fn link(&self, old: &str, new: &str) -> Result<()> {
        self.syscall_entry().await;
        self.lookup(old).await;
        self.lookup(new).await;
        self.m.charge(costs::INODE_MUT, Charge::Os).await;
        self.m.inner.fs.borrow_mut().link(old, new)
    }

    /// Lists a directory (`getdents`).
    ///
    /// # Errors
    ///
    /// Standard filesystem errors.
    pub async fn read_dir(&self, path: &str) -> Result<Vec<(String, bool)>> {
        self.syscall_entry().await;
        self.lookup(path).await;
        let entries = self.m.inner.fs.borrow().read_dir(path)?;
        self.m
            .charge(costs::DENTS_PER_ENTRY * entries.len() as u64, Charge::Os)
            .await;
        Ok(entries)
    }

    /// Creates a pipe (64 KiB in-kernel buffer).
    pub async fn pipe(&self) -> (LxPipeReader, LxPipeWriter) {
        self.syscall_entry().await;
        lx_pipe(&self.m)
    }

    /// `fork`: duplicates the process; the child runs `f`. Returns the
    /// child pid (wait for it with [`LxProc::waitpid`]).
    pub async fn fork<F, Fut>(&self, name: &str, f: F) -> u32
    where
        F: FnOnce(LxProc) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        self.m.charge(costs::FORK, Charge::Os).await;
        let (pid, _handle) = self.m.spawn_proc(name, f);
        pid
    }

    /// The load-and-replace part of `exec`: charges image setup plus
    /// reading the executable from the filesystem.
    ///
    /// # Errors
    ///
    /// [`Code::NoSuchFile`] if the executable is missing.
    pub async fn exec_load(&self, path: &str) -> Result<()> {
        self.syscall_entry().await;
        self.lookup(path).await;
        let size = {
            let fs = self.m.inner.fs.borrow();
            let ino = fs.resolve(path)?;
            fs.size(ino).max(16 * 1024) // at least a minimal image
        };
        self.m.charge(costs::EXEC_BASE, Charge::Os).await;
        let misses = self.m.touch(self.user_buf(), size as usize);
        let load = self.m.memcpy_cycles(size, misses);
        self.m.charge(load, Charge::Xfer).await;
        Ok(())
    }

    /// Waits for a child to exit (releasing the CPU meanwhile).
    pub async fn waitpid(&self, pid: u32) -> i64 {
        self.syscall_entry().await;
        self.m.release_cpu();
        let code = self.m.wait_exit(pid).await;
        self.m.acquire_cpu(self.pid).await;
        code
    }

    /// Releases the CPU until `cond` holds again (used by blocking I/O).
    pub(crate) async fn block_on<C: Fn() -> bool>(&self, cond: C, notify: &m3_sim::Notify) {
        self.m.release_cpu();
        while !cond() {
            notify.wait().await;
        }
        self.m.acquire_cpu(self.pid).await;
    }

    /// `sendfile`: copies `len` bytes from `src` to `dst` inside the kernel
    /// (tar/untar use this to avoid user-space copies, §5.6).
    ///
    /// # Errors
    ///
    /// [`Code::NoAccess`] if `src` is not readable or `dst` not writable;
    /// filesystem errors otherwise.
    pub async fn sendfile(&self, dst: &mut LxFile, src: &mut LxFile, len: u64) -> Result<u64> {
        if !src.access.contains(Perm::R) || !dst.access.contains(Perm::W) {
            return Err(Error::new(Code::NoAccess));
        }
        self.syscall_entry().await;
        self.m.charge(costs::FD_LOOKUP * 2, Charge::Os).await;
        let mut moved = 0u64;
        while moved < len {
            let chunk = (len - moved).min(costs::PAGE_SIZE as u64) as usize;
            let data = self.m.inner.fs.borrow().read(src.ino, src.pos, chunk)?;
            if data.is_empty() {
                break;
            }
            self.m
                .charge(costs::SENDFILE_PER_PAGE + costs::PAGE_CACHE_OP, Charge::Os)
                .await;
            let new_pages = self
                .m
                .inner
                .fs
                .borrow_mut()
                .write(dst.ino, dst.pos, &data)?;
            // Zero freshly allocated pages (§5.4), then the actual copy.
            if new_pages > 0 {
                let zero_misses = self
                    .m
                    .touch(Self::file_addr(dst.ino, dst.pos), new_pages as usize * 4096);
                let zero = self.m.memcpy_cycles(new_pages * 4096, zero_misses);
                self.m.charge(zero, Charge::Xfer).await;
            }
            let misses = self.m.touch(Self::file_addr(src.ino, src.pos), data.len())
                + self.m.touch(Self::file_addr(dst.ino, dst.pos), data.len());
            let copy = self.m.memcpy_cycles(data.len() as u64, misses);
            self.m.charge(copy, Charge::Xfer).await;
            src.pos += data.len() as u64;
            dst.pos += data.len() as u64;
            moved += data.len() as u64;
        }
        Ok(moved)
    }
}

/// An open file of a Linux process.
#[derive(Debug)]
pub struct LxFile {
    proc: LxProc,
    ino: Ino,
    pos: u64,
    access: Perm,
}

impl LxFile {
    /// The current file position.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// The file's current size.
    pub fn size(&self) -> u64 {
        self.proc.m.inner.fs.borrow().size(self.ino)
    }

    /// Reads up to `len` bytes at the current position.
    ///
    /// Costs: syscall entry/exit + fd lookup + page-cache work per 4 KiB
    /// block + the `memcpy` from the page cache into the user buffer
    /// (§5.4).
    ///
    /// # Errors
    ///
    /// [`Code::NoAccess`] if not readable; filesystem errors otherwise.
    pub async fn read(&mut self, len: usize) -> Result<Vec<u8>> {
        if !self.access.contains(Perm::R) {
            return Err(Error::new(Code::NoAccess));
        }
        let m = &self.proc.m;
        m.charge(costs::SYSCALL_ENTRY_EXIT, Charge::Os).await;
        m.charge(costs::FD_LOOKUP, Charge::Os).await;
        let data = m.inner.fs.borrow().read(self.ino, self.pos, len)?;
        if data.is_empty() {
            return Ok(data);
        }
        let blocks = (data.len() as u64).div_ceil(costs::PAGE_SIZE as u64);
        m.charge(costs::PAGE_CACHE_OP * blocks, Charge::Os).await;
        let misses = m.touch(LxProc::file_addr(self.ino, self.pos), data.len())
            + m.touch(self.proc.user_buf(), data.len());
        let copy = m.memcpy_cycles(data.len() as u64, misses);
        m.charge(copy, Charge::Xfer).await;
        self.pos += data.len() as u64;
        Ok(data)
    }

    /// Writes `data` at the current position.
    ///
    /// Costs: like `read`, plus zeroing freshly allocated blocks before
    /// they are handed to the application (§5.4).
    ///
    /// # Errors
    ///
    /// [`Code::NoAccess`] if not writable; filesystem errors otherwise.
    pub async fn write(&mut self, data: &[u8]) -> Result<usize> {
        if !self.access.contains(Perm::W) {
            return Err(Error::new(Code::NoAccess));
        }
        let m = &self.proc.m;
        m.charge(costs::SYSCALL_ENTRY_EXIT, Charge::Os).await;
        m.charge(costs::FD_LOOKUP, Charge::Os).await;
        let blocks = (data.len() as u64).div_ceil(costs::PAGE_SIZE as u64);
        m.charge(costs::PAGE_CACHE_OP * blocks, Charge::Os).await;
        let new_pages = m.inner.fs.borrow_mut().write(self.ino, self.pos, data)?;
        if new_pages > 0 {
            let zero_misses = m.touch(
                LxProc::file_addr(self.ino, self.pos),
                new_pages as usize * 4096,
            );
            let zero = m.memcpy_cycles(new_pages * 4096, zero_misses);
            m.charge(zero, Charge::Xfer).await;
        }
        let misses = m.touch(self.proc.user_buf(), data.len())
            + m.touch(LxProc::file_addr(self.ino, self.pos), data.len());
        let copy = m.memcpy_cycles(data.len() as u64, misses);
        m.charge(copy, Charge::Xfer).await;
        self.pos += data.len() as u64;
        Ok(data.len())
    }

    /// Repositions the file offset (absolute).
    pub async fn seek(&mut self, pos: u64) -> u64 {
        self.proc
            .m
            .charge(
                costs::SYSCALL_ENTRY_EXIT + costs::SYSCALL_DISPATCH,
                Charge::Os,
            )
            .await;
        self.pos = pos;
        self.pos
    }

    /// Closes the file (one syscall).
    pub async fn close(self) {
        self.proc
            .m
            .charge(
                costs::SYSCALL_ENTRY_EXIT + costs::SYSCALL_DISPATCH,
                Charge::Os,
            )
            .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::LxConfig;
    use m3_sim::Sim;

    fn machine() -> (Sim, LxMachine) {
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa());
        (sim, m)
    }

    #[test]
    fn null_syscall_costs_410_cycles() {
        let (sim, m) = machine();
        let (_, h) = m.spawn_proc("p", |p| async move {
            let start = p.machine().sim().now();
            for _ in 0..10 {
                p.syscall_null().await;
            }
            ((p.machine().sim().now() - start).as_u64() / 10) as i64
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 410, "§5.3: 410 cycles on Xtensa");
    }

    #[test]
    fn file_write_read_roundtrip() {
        let (sim, m) = machine();
        let (_, h) = m.spawn_proc("p", |p| async move {
            let mut f = p.open("/data", Perm::RW, true, false).await.unwrap();
            f.write(b"hello tmpfs").await.unwrap();
            f.seek(0).await;
            let back = f.read(64).await.unwrap();
            assert_eq!(back, b"hello tmpfs");
            f.close().await;
            let st = p.stat("/data").await.unwrap();
            assert_eq!(st.size, 11);
            0
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn access_outside_the_open_mode_fails_before_charging() {
        let (sim, m) = machine();
        let (_, h) = m.spawn_proc("p", |p| async move {
            let mut w = p.open("/f", Perm::W, true, false).await.unwrap();
            w.write(b"data").await.unwrap();
            let mut r = p.open("/f", Perm::R, false, false).await.unwrap();
            let start = p.machine().sim().now();
            assert_eq!(w.read(4).await.unwrap_err().code(), Code::NoAccess);
            assert_eq!(r.write(b"x").await.unwrap_err().code(), Code::NoAccess);
            let err = p.sendfile(&mut r, &mut w, 4).await.unwrap_err();
            assert_eq!(err.code(), Code::NoAccess);
            assert_eq!(p.machine().sim().now(), start);
            assert_eq!(r.read(8).await.unwrap(), b"data");
            0
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn read_overhead_matches_paper_decomposition() {
        // One 4 KiB read with a warm cache should cost entry/exit + fd
        // lookup + one page-cache op + the raw copy loop.
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa_warm());
        let (_, h) = m.spawn_proc("p", |p| async move {
            let mut f = p.open("/f", Perm::RW, true, false).await.unwrap();
            f.write(&vec![7u8; 8192]).await.unwrap();
            f.seek(0).await;
            let start = p.machine().sim().now();
            f.read(4096).await.unwrap();
            (p.machine().sim().now() - start).as_u64() as i64
        });
        sim.run();
        let cycles = h.try_take().unwrap() as u64;
        let expect = 380 + 400 + 550 + 4096 / 2; // §5.4 + memcpy at 2 B/cycle
        assert_eq!(cycles, expect);
    }

    #[test]
    fn cold_cache_makes_reads_slower() {
        let run = |cfg: LxConfig| {
            let sim = Sim::new();
            let m = LxMachine::new(&sim, cfg);
            let (_, h) = m.spawn_proc("p", |p| async move {
                let mut f = p.open("/f", Perm::RW, true, false).await.unwrap();
                let big = vec![1u8; 256 * 1024];
                f.write(&big).await.unwrap();
                f.seek(0).await;
                let start = p.machine().sim().now();
                let mut total = 0;
                loop {
                    let d = f.read(4096).await.unwrap();
                    if d.is_empty() {
                        break;
                    }
                    total += d.len();
                }
                assert_eq!(total, 256 * 1024);
                (p.machine().sim().now() - start).as_u64() as i64
            });
            sim.run();
            h.try_take().unwrap()
        };
        let cold = run(LxConfig::xtensa());
        let warm = run(LxConfig::xtensa_warm());
        assert!(
            cold > warm * 3 / 2,
            "misses must cost: cold={cold} warm={warm}"
        );
    }

    #[test]
    fn fork_and_waitpid() {
        let (sim, m) = machine();
        let (_, h) = m.spawn_proc("parent", |p| async move {
            let child = p
                .fork("child", |c| async move {
                    c.compute(Cycles::new(1000)).await;
                    21
                })
                .await;
            p.waitpid(child).await * 2
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 42);
    }

    #[test]
    fn sendfile_copies_without_user_buffers() {
        let (sim, m) = machine();
        let (_, h) = m.spawn_proc("p", |p| async move {
            let mut src = p.open("/src", Perm::RW, true, false).await.unwrap();
            src.write(&vec![3u8; 10_000]).await.unwrap();
            src.seek(0).await;
            let mut dst = p.open("/dst", Perm::RW, true, false).await.unwrap();
            let n = p.sendfile(&mut dst, &mut src, 10_000).await.unwrap();
            assert_eq!(n, 10_000);
            dst.seek(0).await;
            let data = dst.read(10_000).await.unwrap();
            assert!(data.iter().all(|&b| b == 3));
            0
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn dir_ops() {
        let (sim, m) = machine();
        let (_, h) = m.spawn_proc("p", |p| async move {
            p.mkdir("/d").await.unwrap();
            let mut f = p.open("/d/f", Perm::RW, true, false).await.unwrap();
            f.write(b"x").await.unwrap();
            f.close().await;
            p.link("/d/f", "/d/g").await.unwrap();
            assert_eq!(p.stat("/d/g").await.unwrap().links, 2);
            let ls = p.read_dir("/d").await.unwrap();
            assert_eq!(ls.len(), 2);
            p.unlink("/d/f").await.unwrap();
            p.unlink("/d/g").await.unwrap();
            assert!(p.stat("/d/g").await.is_err());
            0
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }
}
