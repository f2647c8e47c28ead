//! Pipes on the Linux model: an in-kernel buffer, copies on both sides,
//! and blocking with context switches — the costs M3's direct PE-to-PE
//! pipes avoid (§4.5.7, Figure 3 "Pipe").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_sim::Notify;

use crate::costs;
use crate::machine::{Charge, LxMachine};
use crate::proc::LxProc;

/// Kernel pipe buffer capacity (64 KiB, as Linux's default).
pub const PIPE_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct PipeShared {
    id: u64,
    buf: VecDeque<u8>,
    writer_alive: bool,
    reader_alive: bool,
    data: Notify,
    space: Notify,
}

/// The reading end of a Linux pipe.
#[derive(Debug)]
pub struct LxPipeReader {
    m: LxMachine,
    shared: Rc<RefCell<PipeShared>>,
}

/// The writing end of a Linux pipe.
#[derive(Debug)]
pub struct LxPipeWriter {
    m: LxMachine,
    shared: Rc<RefCell<PipeShared>>,
}

pub(crate) fn lx_pipe(m: &LxMachine) -> (LxPipeReader, LxPipeWriter) {
    let id = m.inner.next_pipe.get();
    m.inner.next_pipe.set(id + 1);
    let shared = Rc::new(RefCell::new(PipeShared {
        id,
        buf: VecDeque::with_capacity(PIPE_CAPACITY),
        writer_alive: true,
        reader_alive: true,
        data: Notify::new(),
        space: Notify::new(),
    }));
    (
        LxPipeReader {
            m: m.clone(),
            shared: shared.clone(),
        },
        LxPipeWriter {
            m: m.clone(),
            shared,
        },
    )
}

fn pipe_addr(id: u64) -> u64 {
    costs::PIPE_MEM_BASE + id * costs::PIPE_MEM_STRIDE
}

impl LxPipeWriter {
    /// Writes all of `data`, blocking (and context-switching) when the
    /// kernel buffer is full.
    ///
    /// # Errors
    ///
    /// [`Code::EndOfStream`] when the reader is gone.
    pub async fn write(&mut self, proc: &LxProc, data: &[u8]) -> Result<usize> {
        let mut written = 0;
        while written < data.len() {
            self.m
                .charge(costs::SYSCALL_ENTRY_EXIT + costs::PIPE_OP, Charge::Os)
                .await;
            // Wait for space.
            {
                let shared = self.shared.clone();
                let data_notify = {
                    let s = shared.borrow();
                    if !s.reader_alive {
                        return Err(Error::new(Code::EndOfStream).with_msg("reader gone"));
                    }
                    s.space.clone()
                };
                proc.block_on(
                    || {
                        let s = shared.borrow();
                        s.buf.len() < PIPE_CAPACITY || !s.reader_alive
                    },
                    &data_notify,
                )
                .await;
            }
            let (n, id, off) = {
                let mut s = self.shared.borrow_mut();
                if !s.reader_alive {
                    return Err(Error::new(Code::EndOfStream).with_msg("reader gone"));
                }
                let space = PIPE_CAPACITY - s.buf.len();
                let n = space.min(data.len() - written);
                let off = s.buf.len();
                s.buf.extend(&data[written..written + n]);
                (n, s.id, off)
            };
            // Copy user buffer -> kernel pipe buffer.
            let misses = self.m.touch(pipe_addr(id) + off as u64, n);
            let copy = self.m.memcpy_cycles(n as u64, misses);
            self.m.charge(copy, Charge::Xfer).await;
            written += n;
            self.shared.borrow().data.notify_all();
        }
        Ok(written)
    }

    /// Closes the writing end; the reader sees EOF.
    pub fn close(self) {
        let mut s = self.shared.borrow_mut();
        s.writer_alive = false;
        s.data.notify_all();
    }
}

impl LxPipeReader {
    /// Reads up to `buf.len()` bytes into `buf`, blocking while the pipe
    /// is empty. Returns the number of bytes read, 0 at EOF.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond transport; kept fallible for parity
    /// with the file API.
    pub async fn read(&mut self, proc: &LxProc, buf: &mut [u8]) -> Result<usize> {
        self.m
            .charge(costs::SYSCALL_ENTRY_EXIT + costs::PIPE_OP, Charge::Os)
            .await;
        {
            let shared = self.shared.clone();
            let data_notify = shared.borrow().data.clone();
            proc.block_on(
                || {
                    let s = shared.borrow();
                    !s.buf.is_empty() || !s.writer_alive
                },
                &data_notify,
            )
            .await;
        }
        let (n, id) = {
            let mut s = self.shared.borrow_mut();
            let n = buf.len().min(s.buf.len());
            for (dst, src) in buf.iter_mut().zip(s.buf.drain(..n)) {
                *dst = src;
            }
            (n, s.id)
        };
        if n == 0 {
            return Ok(0); // EOF
        }
        // Copy kernel pipe buffer -> user buffer.
        let misses = self.m.touch(pipe_addr(id), n);
        let copy = self.m.memcpy_cycles(n as u64, misses);
        self.m.charge(copy, Charge::Xfer).await;
        self.shared.borrow().space.notify_all();
        Ok(n)
    }

    /// Closes the reading end; further writes fail.
    pub fn close(self) {
        let mut s = self.shared.borrow_mut();
        s.reader_alive = false;
        s.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::LxConfig;
    use m3_sim::Sim;

    #[test]
    fn pipe_between_forked_processes() {
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa());
        let (_, h) = m.spawn_proc("parent", |p| async move {
            let (mut rx, mut tx) = p.pipe().await;
            let child = p
                .fork("child", move |c| async move {
                    let payload = vec![0xabu8; 100_000]; // > pipe capacity
                    tx.write(&c, &payload).await.unwrap();
                    tx.close();
                    0
                })
                .await;
            let mut total = 0usize;
            let mut buf = [0u8; 4096];
            loop {
                let n = rx.read(&p, &mut buf).await.unwrap();
                if n == 0 {
                    break;
                }
                assert!(buf[..n].iter().all(|&b| b == 0xab));
                total += n;
            }
            rx.close();
            p.waitpid(child).await;
            total as i64
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 100_000);
    }

    #[test]
    fn write_to_closed_reader_fails() {
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa());
        let (_, h) = m.spawn_proc("p", |p| async move {
            let (rx, mut tx) = p.pipe().await;
            rx.close();
            tx.write(&p, b"x").await.unwrap_err().code() as i64
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap(),
            m3_base::error::Code::EndOfStream.as_raw() as i64
        );
    }

    #[test]
    fn blocking_forces_context_switches() {
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa());
        let stats = m.stats();
        let (_, h) = m.spawn_proc("parent", |p| async move {
            let (mut rx, mut tx) = p.pipe().await;
            let child = p
                .fork("child", move |c| async move {
                    tx.write(&c, &vec![1u8; 200_000]).await.unwrap();
                    tx.close();
                    0
                })
                .await;
            let mut buf = [0u8; 4096];
            while rx.read(&p, &mut buf).await.unwrap() > 0 {}
            rx.close();
            p.waitpid(child).await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
        assert!(
            stats.get("lx.ctx_switches") >= 4,
            "pipe blocking must bounce between the processes"
        );
    }
}
