//! Syscall-trace replay — the paper's methodology for the application
//! benchmarks (§5.6).
//!
//! "The other four benchmarks were first run on Linux with BusyBox, once
//! running it with strace and again to record the execution times of the
//! performed syscalls. … On M3, we ran a program that replays the syscalls
//! from the data structure using the corresponding API on M3 or waits as
//! long as specified."
//!
//! This module provides that data structure, a generator for the common
//! patterns, and one replayer for both systems. (The workload bodies in
//! [`crate::fsapps`] are the primary path; replay is the faithful
//! alternative.)

use m3_base::error::Result;
use m3_base::Cycles;
use m3_libos::vfs::OpenFlags;

use crate::os::OsApi;

/// One recorded operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// `open` of a path; later Read/Write/Close apply to this file (one
    /// open file at a time, like the BusyBox tools).
    Open(String, OpenFlags),
    /// `read` of up to this many bytes from the open file.
    Read(usize),
    /// `write` of this many bytes to the open file.
    Write(usize),
    /// `close` of the open file.
    Close,
    /// `stat` of a path.
    Stat(String),
    /// `mkdir` of a path.
    Mkdir(String),
    /// `unlink` of a path.
    Unlink(String),
    /// `getdents` over a whole directory.
    ReadDir(String),
    /// Cycles of computation or of an unsupported syscall: "wait commands
    /// were inserted … we assume that computation and the unsupported
    /// syscalls require the same time on both systems" (§5.6).
    Wait(u64),
}

/// Generates the trace of sequentially reading a file of `size` bytes with
/// `buf` -byte reads (what `strace cat file` looks like).
pub fn file_read_trace(path: &str, size: u64, buf: usize) -> Vec<TraceOp> {
    let mut ops = vec![TraceOp::Open(path.to_string(), OpenFlags::R)];
    let mut left = size;
    while left > 0 {
        let n = left.min(buf as u64);
        ops.push(TraceOp::Read(n as usize));
        left -= n;
    }
    ops.push(TraceOp::Read(buf)); // the EOF-detecting read
    ops.push(TraceOp::Close);
    ops
}

/// Generates the trace of creating a file of `size` bytes with `buf`-byte
/// writes.
pub fn file_write_trace(path: &str, size: u64, buf: usize) -> Vec<TraceOp> {
    let flags = OpenFlags::CREATE.or(OpenFlags::TRUNC);
    let mut ops = vec![TraceOp::Open(path.to_string(), flags)];
    let mut left = size;
    while left > 0 {
        let n = left.min(buf as u64);
        ops.push(TraceOp::Write(n as usize));
        left -= n;
    }
    ops.push(TraceOp::Close);
    ops
}

/// Replays a trace on `os` (on M3 the filesystem must be mounted).
/// `Wait` is application time on both systems: on M3 it is charged with
/// `compute_app`, so it shows in the "App" share like Linux's.
///
/// # Errors
///
/// Propagates the first failing operation's error.
pub async fn replay<O: OsApi>(os: &O, ops: &[TraceOp]) -> Result<()> {
    let mut file = None;
    let mut buf = vec![0u8; 64 * 1024];
    for op in ops {
        match op {
            TraceOp::Open(path, flags) => file = Some(os.open(path, *flags).await?),
            TraceOp::Read(len) => {
                if let Some(f) = file.as_mut() {
                    let want = (*len).min(buf.len());
                    os.read(f, &mut buf[..want]).await?;
                }
            }
            TraceOp::Write(len) => {
                if let Some(f) = file.as_mut() {
                    os.write_all(f, &vec![b'x'; *len]).await?;
                }
            }
            TraceOp::Close => {
                if let Some(f) = file.take() {
                    os.close(f).await?;
                }
            }
            TraceOp::Stat(path) => {
                os.stat(path).await?;
            }
            TraceOp::Mkdir(path) => os.mkdir(path).await?,
            TraceOp::Unlink(path) => os.unlink(path).await?,
            TraceOp::ReadDir(path) => {
                os.read_dir(path).await?;
            }
            TraceOp::Wait(cycles) => os.compute(Cycles::new(*cycles)).await,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_trace_shape() {
        let ops = file_read_trace("/f", 10_000, 4096);
        // open + ceil(10000/4096)=3 reads + eof read + close
        assert_eq!(ops.len(), 1 + 3 + 1 + 1);
        assert!(matches!(ops[0], TraceOp::Open(..)));
        assert!(matches!(ops.last(), Some(TraceOp::Close)));
        assert_eq!(ops[3], TraceOp::Read(10_000 - 2 * 4096));
    }

    #[test]
    fn write_trace_shape() {
        let ops = file_write_trace("/f", 8192, 4096);
        assert_eq!(ops.len(), 1 + 2 + 1);
        let TraceOp::Open(_, flags) = ops[0] else {
            panic!("trace starts with {:?}", ops[0]);
        };
        assert!(flags.writable() && flags.create() && flags.trunc());
    }
}
