//! Pipes (§4.5.7).
//!
//! A pipe is a unidirectional channel between exactly one writer and one
//! reader. The data travels through a software-managed ring buffer in DRAM
//! (large buffers maximize reader/writer parallelism); messages synchronize
//! the two sides: the writer notifies the reader after writing, the reader's
//! *reply* returns the space — and, through the DTU credit system, throttles
//! the writer. After setup, the kernel is not involved: reader and writer
//! PEs communicate directly.

use std::collections::VecDeque;

use m3_base::error::{Code, Error, Result};
use m3_base::marshal::{IStream, OStream};
use m3_base::{EpId, Perm, SelId};
use m3_dtu::Message;
use m3_kernel::protocol::Syscall;
use m3_sim::{Component, Event, EventKind};

use crate::costs;
use crate::env::Env;
use crate::gate::{MemGate, RecvGate, SendGate};
use crate::vpe::Vpe;

/// Default ring-buffer size in DRAM.
pub const DEF_BUF_SIZE: u64 = 64 * 1024;

/// Default number of in-flight chunks (notification slots/credits).
pub const DEF_SLOTS: u32 = 8;

/// Size of one notification message slot.
const NOTIFY_SLOT: u32 = 64;

/// The endpoint a parent pre-configures on the child for pipe
/// notifications when the child is the reader.
pub const CHILD_NOTIFY_EP: EpId = EpId::new(7);

/// Which end of the pipe the child VPE gets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PipeRole {
    /// The child reads from the pipe.
    Reader,
    /// The child writes into the pipe.
    Writer,
}

/// Plain-data descriptor the child uses to attach to its end of the pipe
/// (capturable by the `run` closure, like the capability exchange in
/// §4.5.5).
#[derive(Copy, Clone, Debug)]
pub struct PipeDesc {
    /// The role the child plays.
    pub role: PipeRole,
    /// Child-side selector of the ring-buffer memory capability.
    pub mem_sel: SelId,
    /// Child-side selector of the notification send gate (writer role).
    pub sgate_sel: Option<SelId>,
    /// Pre-configured notification endpoint (reader role).
    pub notify_ep: Option<EpId>,
    /// Ring-buffer size.
    pub buf_size: u64,
    /// Number of notification slots (= writer credits).
    pub slots: u32,
}

impl PipeDesc {
    /// Encodes the descriptor as a string, so it can travel in the argv of
    /// an `exec`ed program (the paper's FFT child "merely receives a
    /// different path to the executable", §5.8 — plus its channel).
    pub fn encode(&self) -> String {
        format!(
            "pipe:{},{},{},{},{},{}",
            match self.role {
                PipeRole::Reader => "r",
                PipeRole::Writer => "w",
            },
            self.mem_sel.raw(),
            self.sgate_sel.map_or(-1, |s| s.raw() as i64),
            self.notify_ep.map_or(-1, |e| e.raw() as i64),
            self.buf_size,
            self.slots,
        )
    }

    /// Decodes a descriptor produced by [`PipeDesc::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Code::InvArgs`] on malformed input.
    pub fn decode(s: &str) -> Result<PipeDesc> {
        let bad = || Error::new(Code::InvArgs).with_msg(format!("bad pipe descriptor: {s}"));
        let rest = s.strip_prefix("pipe:").ok_or_else(bad)?;
        let parts: Vec<&str> = rest.split(',').collect();
        let [role, mem_sel, sgate_sel, notify_ep, buf_size, slots] = parts[..] else {
            return Err(bad());
        };
        let role = match role {
            "r" => PipeRole::Reader,
            "w" => PipeRole::Writer,
            _ => return Err(bad()),
        };
        let raw = |p: &str| p.parse::<u32>().map_err(|_| bad());
        // `-1` is the one spelling of "none".
        let opt_raw = |p: &str| match p {
            "-1" => Ok(None),
            p => raw(p).map(Some),
        };
        Ok(PipeDesc {
            role,
            mem_sel: SelId::new(raw(mem_sel)?),
            sgate_sel: opt_raw(sgate_sel)?.map(SelId::new),
            notify_ep: opt_raw(notify_ep)?.map(EpId::new),
            buf_size: buf_size.parse::<u64>().map_err(|_| bad())?,
            slots: raw(slots)?,
        })
    }
}

/// One end of a created pipe, held by the parent.
#[derive(Debug)]
pub enum ParentEnd {
    /// The parent reads.
    Reader(PipeReader),
    /// The parent writes.
    Writer(PipeWriter),
}

/// Creates a pipe between the caller and `child`, giving the child the
/// `child_role` end. Returns the parent's end and the descriptor the child
/// attaches with.
///
/// # Errors
///
/// Propagates allocation, delegation, and activation errors.
pub async fn create(
    env: &Env,
    child: &Vpe,
    child_role: PipeRole,
    buf_size: u64,
) -> Result<(ParentEnd, PipeDesc)> {
    create_with(env, child, child_role, buf_size, DEF_SLOTS).await
}

/// Like [`create`], with an explicit number of notification slots (= the
/// writer's credit budget and thus the number of in-flight chunks). Used by
/// the credit-depth ablation bench.
///
/// # Errors
///
/// Propagates allocation, delegation, and activation errors.
pub async fn create_with(
    env: &Env,
    child: &Vpe,
    child_role: PipeRole,
    buf_size: u64,
    slots: u32,
) -> Result<(ParentEnd, PipeDesc)> {
    let mem = MemGate::alloc(env, buf_size, Perm::RW).await?;
    let mem_child_sel = child.delegate(mem.sel()).await?;

    match child_role {
        PipeRole::Writer => {
            // Parent is the reader: it owns the notification rgate locally
            // and hands the child a send gate to it.
            let rgate = RecvGate::new(env, slots, NOTIFY_SLOT).await?;
            let sgate = SendGate::new(env, &rgate, 0, slots).await?;
            let sgate_child_sel = child.delegate(sgate.sel()).await?;
            let desc = PipeDesc {
                role: PipeRole::Writer,
                mem_sel: mem_child_sel,
                sgate_sel: Some(sgate_child_sel),
                notify_ep: None,
                buf_size,
                slots,
            };
            let reader = PipeReader::from_parts(env.clone(), mem, ReaderSource::Own(rgate));
            Ok((ParentEnd::Reader(reader), desc))
        }
        PipeRole::Reader => {
            // Parent is the writer: it creates the rgate capability and
            // activates it on the *child's* notification endpoint before
            // the child starts; receiving needs no capability.
            let rgate_sel = env.alloc_sel();
            env.syscall(Syscall::CreateRGate {
                dst: rgate_sel,
                slots,
                slot_size: NOTIFY_SLOT,
            })
            .await?;
            child.activate_on(rgate_sel, CHILD_NOTIFY_EP).await?;
            let sgate_sel = env.alloc_sel();
            env.syscall(Syscall::CreateSGate {
                dst: sgate_sel,
                rgate: rgate_sel,
                label: 0,
                credits: slots,
            })
            .await?;
            let sgate = SendGate::bind(env, sgate_sel);
            let desc = PipeDesc {
                role: PipeRole::Reader,
                mem_sel: mem_child_sel,
                sgate_sel: None,
                notify_ep: Some(CHILD_NOTIFY_EP),
                buf_size,
                slots,
            };
            let writer = PipeWriter::from_parts(env, mem, sgate, buf_size, slots).await?;
            Ok((ParentEnd::Writer(writer), desc))
        }
    }
}

#[derive(Debug)]
enum ReaderSource {
    /// A receive gate this VPE created itself.
    Own(RecvGate),
    /// An endpoint a parent pre-configured.
    Ep(EpId),
}

/// The reading end of a pipe.
#[derive(Debug)]
pub struct PipeReader {
    env: Env,
    mem: MemGate,
    source: ReaderSource,
    /// Chunk currently being consumed: (message, ring offset, len, consumed).
    cur: Option<(Message, u64, u64, u64)>,
    eof: bool,
}

impl PipeReader {
    fn from_parts(env: Env, mem: MemGate, source: ReaderSource) -> PipeReader {
        PipeReader {
            env,
            mem,
            source,
            cur: None,
            eof: false,
        }
    }

    /// Attaches the child's reading end described by `desc`.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is not a reader-role descriptor.
    pub fn attach(env: &Env, desc: PipeDesc) -> PipeReader {
        assert_eq!(
            desc.role,
            PipeRole::Reader,
            "descriptor is not a reader end"
        );
        let ep = desc.notify_ep.expect("reader descriptor without EP");
        env.epmux().borrow_mut().pin_existing(ep);
        PipeReader::from_parts(
            env.clone(),
            MemGate::bind(env, desc.mem_sel),
            ReaderSource::Ep(ep),
        )
    }

    async fn next_msg(&mut self) -> Result<Message> {
        // With a recovery policy installed, a silent writer (crashed PE,
        // partitioned link) becomes a typed error instead of a hang.
        let deadline = self
            .env
            .recovery()
            .map(|p| self.env.sim().now() + p.timeout);
        let r = match (&self.source, deadline) {
            (ReaderSource::Own(rgate), None) => rgate.recv().await,
            (ReaderSource::Own(rgate), Some(d)) => rgate.recv_timeout(d).await,
            (ReaderSource::Ep(ep), deadline) => {
                let recvd = match deadline {
                    None => self.env.recv_on(*ep).await,
                    Some(d) => self.env.recv_timeout_on(*ep, d).await,
                };
                match recvd {
                    Ok(msg) => {
                        self.env.dtu().ack(*ep)?;
                        Ok(msg)
                    }
                    Err(e) => Err(e),
                }
            }
        };
        match r {
            Err(e) if e.code() == Code::Timeout && deadline.is_some() => {
                Err(Error::new(Code::Unreachable).with_msg("pipe writer went silent"))
            }
            other => other,
        }
    }

    /// Reads up to `buf.len()` bytes; returns 0 at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub async fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.env.compute(costs::PIPE_OP).await;
        if buf.is_empty() {
            return Ok(0);
        }
        if self.cur.is_none() {
            if self.eof {
                return Ok(0);
            }
            let msg = self.next_msg().await?;
            let mut is = IStream::new(&msg.payload);
            let pos = is.pop_u64()?;
            let len = is.pop_u64()?;
            if len == 0 {
                // EOF marker; acknowledge it so the writer can finish.
                self.eof = true;
                self.env.dtu().reply(&msg, &[]).await?;
                return Ok(0);
            }
            self.cur = Some((msg, pos, len, 0));
        }
        let (msg, pos, len, consumed) = self.cur.take().expect("chunk state");
        let n = (buf.len() as u64).min(len - consumed);
        self.mem
            .read_into(pos + consumed, &mut buf[..n as usize])
            .await?;
        let at = self.env.sim().now();
        self.env.sim().tracer().record_with(|| Event {
            at,
            dur: m3_base::Cycles::ZERO,
            pe: Some(self.env.pe()),
            comp: Component::Pipe,
            kind: EventKind::PipeXfer {
                write: false,
                bytes: n,
            },
        });
        let consumed = consumed + n;
        if consumed == len {
            // Chunk done: the reply returns the space and refills one
            // writer credit.
            self.env.dtu().reply(&msg, &[]).await?;
        } else {
            self.cur = Some((msg, pos, len, consumed));
        }
        Ok(n as usize)
    }

    /// Drains the pipe until EOF, discarding data; returns total bytes.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub async fn drain(&mut self) -> Result<u64> {
        let mut buf = vec![0u8; m3_base::cfg::BENCH_BUF_SIZE];
        let mut total = 0;
        loop {
            let n = self.read(&mut buf).await?;
            if n == 0 {
                return Ok(total);
            }
            total += n as u64;
        }
    }
}

/// The writing end of a pipe.
#[derive(Debug)]
pub struct PipeWriter {
    env: Env,
    mem: MemGate,
    sgate: SendGate,
    /// Replies from the reader arrive here.
    reply_gate: RecvGate,
    buf_size: u64,
    slots: u32,
    /// Absolute write position (ring offset = `wpos % buf_size`).
    wpos: u64,
    /// In-flight chunks: lengths in send order.
    outstanding: VecDeque<u64>,
    in_flight: u64,
    closed: bool,
}

impl PipeWriter {
    async fn from_parts(
        env: &Env,
        mem: MemGate,
        sgate: SendGate,
        buf_size: u64,
        slots: u32,
    ) -> Result<PipeWriter> {
        let reply_gate = RecvGate::new(env, slots, NOTIFY_SLOT).await?;
        Ok(PipeWriter {
            env: env.clone(),
            mem,
            sgate,
            reply_gate,
            buf_size,
            slots,
            wpos: 0,
            outstanding: VecDeque::new(),
            in_flight: 0,
            closed: false,
        })
    }

    /// Attaches the child's writing end described by `desc`.
    ///
    /// # Errors
    ///
    /// Propagates gate-creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is not a writer-role descriptor.
    pub async fn attach(env: &Env, desc: PipeDesc) -> Result<PipeWriter> {
        assert_eq!(
            desc.role,
            PipeRole::Writer,
            "descriptor is not a writer end"
        );
        let sgate_sel = desc.sgate_sel.expect("writer descriptor without sgate");
        PipeWriter::from_parts(
            env,
            MemGate::bind(env, desc.mem_sel),
            SendGate::bind(env, sgate_sel),
            desc.buf_size,
            desc.slots,
        )
        .await
    }

    fn pop_replies(&mut self) -> Result<()> {
        while let Some(_msg) = self.reply_gate.fetch()? {
            let len = self
                .outstanding
                .pop_front()
                .ok_or_else(|| Error::new(Code::Internal).with_msg("reply without chunk"))?;
            self.in_flight -= len;
        }
        Ok(())
    }

    async fn wait_reply(&mut self) -> Result<()> {
        // Bounded under a recovery policy: a reader that died holding our
        // buffer space surfaces as `Unreachable` instead of blocking the
        // writer forever.
        let _ = match self.env.recovery() {
            None => self.reply_gate.recv().await?,
            Some(p) => {
                let deadline = self.env.sim().now() + p.timeout;
                match self.reply_gate.recv_timeout(deadline).await {
                    Err(e) if e.code() == Code::Timeout => {
                        return Err(
                            Error::new(Code::Unreachable).with_msg("pipe reader went silent")
                        );
                    }
                    other => other?,
                }
            }
        };
        let len = self
            .outstanding
            .pop_front()
            .ok_or_else(|| Error::new(Code::Internal).with_msg("reply without chunk"))?;
        self.in_flight -= len;
        Ok(())
    }

    /// Writes all of `data` into the pipe, blocking on back-pressure.
    ///
    /// # Errors
    ///
    /// Returns [`Code::EndOfStream`] after [`PipeWriter::close`], and
    /// propagates transport errors.
    pub async fn write(&mut self, data: &[u8]) -> Result<usize> {
        if self.closed {
            return Err(Error::new(Code::EndOfStream).with_msg("pipe closed"));
        }
        self.env.compute(costs::PIPE_OP).await;
        let mut sent = 0;
        while sent < data.len() {
            self.pop_replies()?;
            // Respect both the notification credits and the ring space.
            while self.outstanding.len() as u32 >= self.slots || self.in_flight >= self.buf_size {
                self.wait_reply().await?;
            }
            let ring_off = self.wpos % self.buf_size;
            let space = self.buf_size - self.in_flight;
            let to_ring_end = self.buf_size - ring_off;
            let n = ((data.len() - sent) as u64).min(space).min(to_ring_end);
            self.mem
                .write(ring_off, &data[sent..sent + n as usize])
                .await?;
            let mut os = OStream::with_capacity(16);
            os.push_u64(ring_off).push_u64(n);
            self.sgate
                .send(os.as_bytes(), Some((&self.reply_gate, 0)))
                .await?;
            let at = self.env.sim().now();
            self.env.sim().tracer().record_with(|| Event {
                at,
                dur: m3_base::Cycles::ZERO,
                pe: Some(self.env.pe()),
                comp: Component::Pipe,
                kind: EventKind::PipeXfer {
                    write: true,
                    bytes: n,
                },
            });
            self.outstanding.push_back(n);
            self.in_flight += n;
            self.wpos += n;
            sent += n as usize;
        }
        Ok(sent)
    }

    /// Signals end-of-stream and waits until the reader saw every chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; closing twice is a no-op.
    pub async fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        self.pop_replies()?;
        while self.outstanding.len() as u32 >= self.slots {
            self.wait_reply().await?;
        }
        let mut os = OStream::with_capacity(16);
        os.push_u64(0).push_u64(0);
        self.sgate
            .send(os.as_bytes(), Some((&self.reply_gate, 0)))
            .await?;
        self.outstanding.push_back(0);
        // Drain every acknowledgement, including the EOF's.
        while !self.outstanding.is_empty() {
            self.wait_reply().await?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// VFS integration: pipes as files (§4.5.8: "a pipe filesystem to integrate
// pipes into the VFS, making it transparent for applications whether they
// access a pipe or a file in m3fs").
// ---------------------------------------------------------------------

impl crate::vfs::File for PipeReader {
    fn read<'a>(&'a mut self, buf: &'a mut [u8]) -> crate::BoxFuture<'a, Result<usize>> {
        Box::pin(PipeReader::read(self, buf))
    }

    fn write<'a>(&'a mut self, _data: &'a [u8]) -> crate::BoxFuture<'a, Result<usize>> {
        Box::pin(async { Err(Error::new(Code::NoAccess).with_msg("read end of a pipe")) })
    }

    fn seek<'a>(
        &'a mut self,
        _offset: i64,
        _whence: crate::vfs::SeekMode,
    ) -> crate::BoxFuture<'a, Result<u64>> {
        Box::pin(async { Err(Error::new(Code::NotSup).with_msg("pipes are not seekable")) })
    }

    fn close<'a>(&'a mut self) -> crate::BoxFuture<'a, Result<()>> {
        // Reading ends passively: the writer's EOF marker closes the stream.
        Box::pin(async { Ok(()) })
    }
}

impl crate::vfs::File for PipeWriter {
    fn read<'a>(&'a mut self, _buf: &'a mut [u8]) -> crate::BoxFuture<'a, Result<usize>> {
        Box::pin(async { Err(Error::new(Code::NoAccess).with_msg("write end of a pipe")) })
    }

    fn write<'a>(&'a mut self, data: &'a [u8]) -> crate::BoxFuture<'a, Result<usize>> {
        Box::pin(PipeWriter::write(self, data))
    }

    fn seek<'a>(
        &'a mut self,
        _offset: i64,
        _whence: crate::vfs::SeekMode,
    ) -> crate::BoxFuture<'a, Result<u64>> {
        Box::pin(async { Err(Error::new(Code::NotSup).with_msg("pipes are not seekable")) })
    }

    fn close<'a>(&'a mut self) -> crate::BoxFuture<'a, Result<()>> {
        Box::pin(PipeWriter::close(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{start_program, ProgramRegistry};
    use m3_base::PeId;
    use m3_kernel::protocol::PeRequest;
    use m3_kernel::Kernel;
    use m3_platform::{Platform, PlatformConfig};

    fn boot(pes: usize) -> (Platform, Kernel) {
        let platform = Platform::new(PlatformConfig::xtensa(pes));
        let kernel = Kernel::start(&platform, PeId::new(0));
        (platform, kernel)
    }

    #[test]
    fn desc_encode_decode_roundtrip() {
        let desc = PipeDesc {
            role: PipeRole::Reader,
            mem_sel: SelId::new(3),
            sgate_sel: None,
            notify_ep: Some(CHILD_NOTIFY_EP),
            buf_size: 4096,
            slots: 8,
        };
        let decoded = PipeDesc::decode(&desc.encode()).unwrap();
        assert_eq!(decoded.role, desc.role);
        assert_eq!(decoded.mem_sel, desc.mem_sel);
        assert_eq!(decoded.sgate_sel, desc.sgate_sel);
        assert_eq!(decoded.notify_ep, desc.notify_ep);
        assert_eq!(decoded.buf_size, desc.buf_size);
        assert_eq!(decoded.slots, desc.slots);

        let w = PipeDesc {
            role: PipeRole::Writer,
            mem_sel: SelId::new(5),
            sgate_sel: Some(SelId::new(6)),
            notify_ep: None,
            buf_size: 65536,
            slots: 4,
        };
        let decoded = PipeDesc::decode(&w.encode()).unwrap();
        assert_eq!(decoded.sgate_sel, Some(SelId::new(6)));
        assert_eq!(decoded.notify_ep, None);

        assert!(PipeDesc::decode("nonsense").is_err());
        assert!(PipeDesc::decode("pipe:r,1,2").is_err());

        let max = PipeDesc {
            role: PipeRole::Writer,
            mem_sel: SelId::new(u32::MAX),
            sgate_sel: Some(SelId::new(u32::MAX)),
            notify_ep: Some(EpId::new(u32::MAX)),
            buf_size: u64::MAX,
            slots: u32::MAX,
        };
        let decoded = PipeDesc::decode(&max.encode()).unwrap();
        assert_eq!(decoded.mem_sel, max.mem_sel);
        assert_eq!(decoded.sgate_sel, max.sgate_sel);
        assert_eq!(decoded.notify_ep, max.notify_ep);
        assert_eq!(decoded.buf_size, max.buf_size);
        assert_eq!(decoded.slots, max.slots);

        // Each field is its own unsigned type; only `-1` means "none", and
        // only in the two optional fields. Nothing wraps.
        for bad in [
            "pipe:r,-5,-1,-1,4096,4",
            "pipe:r,-1,-1,-1,4096,4",
            "pipe:r,4294967296,-1,-1,4096,4",
            "pipe:w,1,-2,-1,4096,4",
            "pipe:w,1,4294967296,-1,4096,4",
            "pipe:r,1,-1,-7,4096,4",
            "pipe:r,1,-1,-1,-4096,4",
            "pipe:r,1,-1,-1,18446744073709551616,4",
            "pipe:r,1,-1,-1,4096,-1",
            "pipe:r,1,-1,-1,4096,4294967300",
            "pipe:x,1,-1,-1,4096,4",
            "pipe:r,1,-1,-1,4096,4,5",
        ] {
            assert!(PipeDesc::decode(bad).is_err(), "{bad} must not decode");
        }
    }

    #[test]
    fn child_writes_parent_reads() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let child = Vpe::new(&env, "writer", PeRequest::Same).await.unwrap();
                let (end, desc) = create(&env, &child, PipeRole::Writer, 4096).await.unwrap();
                let ParentEnd::Reader(mut reader) = end else {
                    panic!("expected reader end")
                };
                child
                    .run(move |cenv| async move {
                        let mut w = PipeWriter::attach(&cenv, desc).await.unwrap();
                        for i in 0..16u8 {
                            let chunk = vec![i; 1024];
                            w.write(&chunk).await.unwrap();
                        }
                        w.close().await.unwrap();
                        0
                    })
                    .await
                    .unwrap();

                let mut total = Vec::new();
                let mut buf = vec![0u8; 512];
                loop {
                    let n = reader.read(&mut buf).await.unwrap();
                    if n == 0 {
                        break;
                    }
                    total.extend_from_slice(&buf[..n]);
                }
                child.wait().await.unwrap();
                assert_eq!(total.len(), 16 * 1024);
                for (i, chunk) in total.chunks(1024).enumerate() {
                    assert!(chunk.iter().all(|&b| b == i as u8), "chunk {i} corrupt");
                }
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn parent_writes_child_reads() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let child = Vpe::new(&env, "reader", PeRequest::Same).await.unwrap();
                let (end, desc) = create(&env, &child, PipeRole::Reader, 4096).await.unwrap();
                let ParentEnd::Writer(mut writer) = end else {
                    panic!("expected writer end")
                };
                child
                    .run(move |cenv| async move {
                        let mut r = PipeReader::attach(&cenv, desc);
                        r.drain().await.unwrap() as i64
                    })
                    .await
                    .unwrap();

                // Write more than the ring size to exercise back-pressure.
                let data = vec![0x5a; 10 * 1024];
                writer.write(&data).await.unwrap();
                writer.close().await.unwrap();
                child.wait().await.unwrap()
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 10 * 1024);
    }

    #[test]
    fn write_after_close_fails() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let child = Vpe::new(&env, "reader", PeRequest::Same).await.unwrap();
                let (end, desc) = create(&env, &child, PipeRole::Reader, 1024).await.unwrap();
                let ParentEnd::Writer(mut writer) = end else {
                    panic!("expected writer end")
                };
                child
                    .run(move |cenv| async move {
                        let mut r = PipeReader::attach(&cenv, desc);
                        r.drain().await.unwrap() as i64
                    })
                    .await
                    .unwrap();
                writer.write(b"x").await.unwrap();
                writer.close().await.unwrap();
                let err = writer.write(b"y").await.unwrap_err();
                child.wait().await.unwrap();
                err.code() as i64
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), Code::EndOfStream.as_raw() as i64);
    }

    #[test]
    fn pipes_are_files_through_the_vfs_traits() {
        // §4.5.8: transparent for applications whether they access a pipe
        // or a file — both ends work behind `dyn File`.
        use crate::vfs::{File, SeekMode};
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let child = Vpe::new(&env, "reader", PeRequest::Same).await.unwrap();
                let (end, desc) = create(&env, &child, PipeRole::Reader, 4096).await.unwrap();
                let ParentEnd::Writer(writer) = end else {
                    panic!("expected writer end")
                };
                child
                    .run(move |cenv| async move {
                        let mut file: Box<dyn File> = Box::new(PipeReader::attach(&cenv, desc));
                        // A pipe behind the File trait: reads work, seeks do not.
                        assert_eq!(
                            file.seek(0, SeekMode::Set).await.unwrap_err().code(),
                            Code::NotSup
                        );
                        assert_eq!(file.write(&[1]).await.unwrap_err().code(), Code::NoAccess);
                        let mut total = 0usize;
                        let mut buf = [0u8; 256];
                        loop {
                            let n = file.read(&mut buf).await.unwrap();
                            if n == 0 {
                                break;
                            }
                            total += n;
                        }
                        file.close().await.unwrap();
                        total as i64
                    })
                    .await
                    .unwrap();
                let mut file: Box<dyn File> = Box::new(writer);
                assert_eq!(
                    file.read(&mut [0u8; 4]).await.unwrap_err().code(),
                    Code::NoAccess
                );
                file.write(&[9u8; 3000]).await.unwrap();
                file.close().await.unwrap();
                child.wait().await.unwrap()
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 3000);
    }

    #[test]
    fn small_ring_forces_many_chunks() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let child = Vpe::new(&env, "reader", PeRequest::Same).await.unwrap();
                let (end, desc) = create(&env, &child, PipeRole::Reader, 256).await.unwrap();
                let ParentEnd::Writer(mut writer) = end else {
                    panic!("expected writer end")
                };
                child
                    .run(move |cenv| async move {
                        let mut r = PipeReader::attach(&cenv, desc);
                        let mut buf = [0u8; 64];
                        let mut sum: i64 = 0;
                        loop {
                            let n = r.read(&mut buf).await.unwrap();
                            if n == 0 {
                                break;
                            }
                            sum += buf[..n].iter().map(|&b| b as i64).sum::<i64>();
                        }
                        sum
                    })
                    .await
                    .unwrap();
                let data: Vec<u8> = (0..2048u64).map(|i| (i % 251) as u8).collect();
                let expect: i64 = data.iter().map(|&b| b as i64).sum();
                writer.write(&data).await.unwrap();
                writer.close().await.unwrap();
                let got = child.wait().await.unwrap();
                assert_eq!(got, expect);
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }
}
