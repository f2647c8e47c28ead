//! The m3fs service program.
//!
//! Runs two loops on the service's PE: the kernel-request handler (session
//! opens and capability exchanges, §4.5.3) and the meta channel (open,
//! close, stat, mkdir, …, §4.5.8). Data transfers never pass through here:
//! clients receive derived memory capabilities and drive their own DTUs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use m3_base::cfg::{FS_ALLOC_BLOCKS, FS_BLOCK_SIZE};
use m3_base::error::{Code, Error, Result};
use m3_base::marshal::{IStream, OStream, Wire};
use m3_base::{Cycles, Perm, SelId};
use m3_kernel::protocol::Syscall;
use m3_libos::serv::{self, Handler};
use m3_libos::vfs::OpenFlags;
use m3_libos::{Env, MemGate, RecvGate};
use m3_sim::{Component, Event, EventKind};

use crate::fs::FsCore;
use crate::proto::{
    LocateArgs, LocateReply, MetaReply, MetaRequest, NO_TRUNCATE, OBTAIN_LOCATE, OBTAIN_META_GATE,
};

/// Service-side cycle charges (see `EXPERIMENTS.md` for calibration).
///
/// These are deliberately *small* for read-only metadata: m3fs keeps
/// everything in memory, so per-request handling is a few hash/extent-table
/// walks. The expensive service operations are the ones that allocate
/// (create, append, truncate). Time the *client* spends per operation
/// (marshalling, DTU programming, VFS) lives in `m3-fs::client`; the split
/// matters for the §5.7 scalability experiment, where only service-side
/// time serializes across benchmark instances.
mod fscosts {
    use m3_base::Cycles;

    /// Path lookup per component (in-memory directory map).
    pub const LOOKUP_PER_COMP: Cycles = Cycles::new(20);
    /// Open an existing file: inode fetch, open-file table insert.
    pub const OPEN: Cycles = Cycles::new(180);
    /// Extra cost when open creates the file (inode + dirent allocation).
    pub const CREATE: Cycles = Cycles::new(1600);
    /// Stat: inode fetch and reply marshalling.
    pub const STAT: Cycles = Cycles::new(80);
    /// Close bookkeeping.
    pub const CLOSE: Cycles = Cycles::new(300);
    /// Extra cost of truncation at close (freeing blocks, §4.5.8).
    pub const TRUNCATE: Cycles = Cycles::new(2500);
    /// Locate an existing extent: table walk plus capability setup
    /// (drives the fragmentation cost of Figure 4).
    pub const LOCATE: Cycles = Cycles::new(700);
    /// Extra cost when a locate appends a fresh extent (bitmap scan).
    pub const ALLOC_EXTENT: Cycles = Cycles::new(4000);
    /// Directory mutation (mkdir/rmdir/link/unlink).
    pub const META_MUT: Cycles = Cycles::new(300);
    /// Directory listing base cost.
    pub const READDIR: Cycles = Cycles::new(80);
    /// Directory listing per-entry cost.
    pub const READDIR_PER_ENTRY: Cycles = Cycles::new(10);
}

/// Maximum directory entries per ReadDir reply page.
pub const READDIR_PAGE: usize = 16;

/// What to pre-populate the filesystem with at boot.
#[derive(Clone, Debug)]
pub struct SetupNode {
    /// Absolute path of the node.
    pub path: String,
    /// Node content.
    pub kind: SetupKind,
}

/// Kind of a [`SetupNode`].
#[derive(Clone, Debug)]
pub enum SetupKind {
    /// An empty directory.
    Dir,
    /// A file with the given content; `blocks_per_extent` forces
    /// fragmentation for the Figure 4 experiment (`None` = natural layout).
    File {
        /// File content bytes.
        content: Vec<u8>,
        /// Forced extent size in blocks.
        blocks_per_extent: Option<u64>,
    },
}

impl SetupNode {
    /// Convenience: a directory node.
    pub fn dir(path: &str) -> SetupNode {
        SetupNode {
            path: path.to_string(),
            kind: SetupKind::Dir,
        }
    }

    /// Convenience: a file node with natural layout.
    pub fn file(path: &str, content: Vec<u8>) -> SetupNode {
        SetupNode {
            path: path.to_string(),
            kind: SetupKind::File {
                content,
                blocks_per_extent: None,
            },
        }
    }

    /// Convenience: a file fragmented into `bpe`-block extents.
    pub fn fragmented_file(path: &str, content: Vec<u8>, bpe: u64) -> SetupNode {
        SetupNode {
            path: path.to_string(),
            kind: SetupKind::File {
                content,
                blocks_per_extent: Some(bpe),
            },
        }
    }
}

struct OpenFile {
    ino: u64,
    writable: bool,
}

#[derive(Default)]
struct Session {
    files: BTreeMap<u64, OpenFile>,
}

struct State {
    core: FsCore,
    sessions: BTreeMap<u64, Session>,
    next_ident: u64,
    next_fd: u64,
}

/// Boots the m3fs service in the given environment: allocates the data
/// region, builds the initial tree, then serves forever.
///
/// Spawn with `spawn_daemon`.
///
/// # Errors
///
/// Fails if the DRAM region cannot be allocated or registration fails.
pub async fn run_m3fs(env: Env, total_blocks: u64, setup: Vec<SetupNode>) -> Result<()> {
    run_m3fs_named(env, "m3fs", total_blocks, setup).await
}

/// Like [`run_m3fs`] with an explicit service name, so several independent
/// filesystem instances can coexist under one kernel (each with its own
/// data region and namespace) and be mounted at different VFS paths.
///
/// # Errors
///
/// Fails if the DRAM region cannot be allocated or registration fails.
pub async fn run_m3fs_named(
    env: Env,
    name: &str,
    total_blocks: u64,
    setup: Vec<SetupNode>,
) -> Result<()> {
    let bs = FS_BLOCK_SIZE as u64;
    let mem = Rc::new(MemGate::alloc(&env, total_blocks * bs, Perm::RW).await?);
    let mut core = FsCore::new(total_blocks, bs);

    // Build the initial tree, writing file contents into the data region.
    let mut gaps = Vec::new();
    for node in setup {
        match node.kind {
            SetupKind::Dir => {
                core.mkdir(&node.path)?;
            }
            SetupKind::File {
                content,
                blocks_per_extent,
            } => {
                let ino = core.create_file(&node.path)?;
                let total = content.len() as u64;
                let mut written = 0u64;
                while written < total {
                    let want = match blocks_per_extent {
                        Some(bpe) => bpe,
                        None => FS_ALLOC_BLOCKS as u64,
                    }
                    .min((total - written).div_ceil(bs));
                    let ext = core.append_extent(ino, want)?;
                    let n = (ext.byte_len(bs)).min(total - written);
                    mem.write(
                        ext.byte_off(bs),
                        &content[written as usize..(written + n) as usize],
                    )
                    .await?;
                    written += n;
                    if blocks_per_extent.is_some() && written < total {
                        // A one-block gap prevents physical merging, forcing
                        // one extent per chunk (Figure 4 methodology).
                        gaps.push(core.alloc_raw(1)?);
                    }
                }
                // Trim the last extent to the used blocks and set the size.
                core.truncate(ino, total)?;
            }
        }
    }
    for (start, count) in gaps {
        core.free_raw(start, count);
    }

    let state = Rc::new(RefCell::new(State {
        core,
        sessions: BTreeMap::new(),
        next_ident: 1,
        next_fd: 1,
    }));

    // The meta channel: one rgate, clients obtain send gates to it.
    let meta_rgate = RecvGate::new(&env, 32, 512).await?;
    let meta_rgate_sel = meta_rgate.sel();
    {
        let env2 = env.clone();
        let state2 = state.clone();
        let mem2 = mem.clone();
        env.sim().spawn_daemon("m3fs-meta", async move {
            meta_loop(env2, state2, mem2, meta_rgate).await;
        });
    }

    serv::serve(
        env.clone(),
        name,
        M3FsHandler {
            state,
            mem,
            meta_rgate_sel,
        },
    )
    .await
}

async fn meta_loop(env: Env, state: Rc<RefCell<State>>, _mem: Rc<MemGate>, rgate: RecvGate) {
    loop {
        let Ok(msg) = rgate.recv().await else { return };
        let ident = msg.header.label;
        env.compute(m3_libos::costs::SERV_DISPATCH).await;
        let (reply, cost, op) = match MetaRequest::from_bytes(&msg.payload) {
            Err(e) => (MetaReply::err(e.code()), Cycles::ZERO, "BadMessage"),
            Ok(req) => {
                let op = req.name();
                let (reply, cost) = handle_meta(&state, ident, req);
                (reply, cost, op)
            }
        };
        let at = env.sim().now();
        env.sim().tracer().record_with(|| Event {
            at,
            dur: cost,
            pe: Some(env.pe()),
            comp: Component::Fs,
            kind: EventKind::FsRequest { op: op.to_string() },
        });
        env.compute(cost).await;
        let _ = rgate.reply(&msg, &reply.to_bytes()).await;
    }
}

fn lookup_cost(path: &str) -> Cycles {
    fscosts::LOOKUP_PER_COMP * FsCore::path_depth(path).max(1)
}

fn handle_meta(state: &Rc<RefCell<State>>, ident: u64, req: MetaRequest) -> (MetaReply, Cycles) {
    let mut st = state.borrow_mut();
    let st = &mut *st;
    match req {
        MetaRequest::Open { path, flags } => {
            let mut cost = fscosts::OPEN + lookup_cost(&path);
            let flags = OpenFlags::from_bits(flags);
            let result = (|| -> Result<Vec<u8>> {
                let ino = match st.core.resolve(&path) {
                    Ok(ino) => {
                        if st.core.inode(ino).is_dir() {
                            return Err(Error::new(Code::IsDir).with_msg(path.clone()));
                        }
                        if flags.trunc() {
                            st.core.truncate(ino, 0)?;
                            cost += fscosts::TRUNCATE;
                        }
                        ino
                    }
                    Err(e) if e.code() == Code::NoSuchFile && flags.create() => {
                        cost += fscosts::CREATE;
                        st.core.create_file(&path)?
                    }
                    Err(e) => return Err(e),
                };
                let fd = st.next_fd;
                st.next_fd += 1;
                st.sessions.entry(ident).or_default().files.insert(
                    fd,
                    OpenFile {
                        ino,
                        writable: flags.writable(),
                    },
                );
                let inode = st.core.inode(ino);
                let mut os = OStream::with_capacity(24);
                os.push_u64(fd)
                    .push_u64(inode.size)
                    .push_u32(inode.extents.len() as u32);
                Ok(os.into_bytes())
            })();
            (reply_of(result), cost)
        }
        MetaRequest::Close { fd, size } => {
            let mut cost = fscosts::CLOSE;
            if size != NO_TRUNCATE {
                cost += fscosts::TRUNCATE;
            }
            let result = (|| -> Result<Vec<u8>> {
                let sess = st
                    .sessions
                    .get_mut(&ident)
                    .ok_or_else(|| Error::new(Code::SessClosed))?;
                let file = sess
                    .files
                    .remove(&fd)
                    .ok_or_else(|| Error::new(Code::InvArgs).with_msg("bad fd"))?;
                if size != NO_TRUNCATE && file.writable {
                    st.core.truncate(file.ino, size)?;
                }
                Ok(Vec::new())
            })();
            (reply_of(result), cost)
        }
        MetaRequest::Stat { path } => {
            let cost = fscosts::STAT + lookup_cost(&path);
            let result = st.core.resolve(&path).map(|ino| {
                let inode = st.core.inode(ino);
                let mut os = OStream::with_capacity(24);
                os.push_u64(inode.size)
                    .push_bool(inode.is_dir())
                    .push_u32(inode.extents.len() as u32)
                    .push_u32(inode.links);
                os.into_bytes()
            });
            (reply_of(result), cost)
        }
        MetaRequest::Mkdir { path } => {
            let cost = fscosts::META_MUT + lookup_cost(&path);
            (reply_of(st.core.mkdir(&path).map(|_| Vec::new())), cost)
        }
        MetaRequest::Rmdir { path } => {
            let cost = fscosts::META_MUT + lookup_cost(&path);
            (reply_of(st.core.rmdir(&path).map(|_| Vec::new())), cost)
        }
        MetaRequest::Unlink { path } => {
            let cost = fscosts::META_MUT + lookup_cost(&path);
            (reply_of(st.core.unlink(&path).map(|_| Vec::new())), cost)
        }
        MetaRequest::Link { old, new } => {
            let cost = fscosts::META_MUT + lookup_cost(&old) + lookup_cost(&new);
            (reply_of(st.core.link(&old, &new).map(|_| Vec::new())), cost)
        }
        MetaRequest::Fsck => {
            let report = st.core.check();
            let cost = Cycles::new(60) * report.inodes.max(1);
            let mut os = OStream::with_capacity(24);
            os.push_u32(report.errors.len() as u32)
                .push_u64(report.inodes)
                .push_u64(report.used_blocks);
            (MetaReply::ok_with(os.into_bytes()), cost)
        }
        MetaRequest::ReadDir { path, start } => {
            let result = st.core.read_dir(&path).map(|entries| {
                let page: Vec<_> = entries
                    .iter()
                    .skip(start as usize)
                    .take(READDIR_PAGE)
                    .collect();
                let done = (start as usize + page.len()) >= entries.len();
                let mut os = OStream::with_capacity(256);
                os.push_u32(page.len() as u32);
                for (name, is_dir) in &page {
                    os.push_str(name).push_bool(*is_dir);
                }
                os.push_bool(done);
                os.into_bytes()
            });
            let n = match &result {
                Ok(bytes) => bytes.len() as u64 / 8,
                Err(_) => 0,
            };
            let cost = fscosts::READDIR + lookup_cost(&path) + fscosts::READDIR_PER_ENTRY * n;
            (reply_of(result), cost)
        }
    }
}

fn reply_of(result: Result<Vec<u8>>) -> MetaReply {
    match result {
        Ok(data) => MetaReply::ok_with(data),
        Err(e) => MetaReply::err(e.code()),
    }
}

struct M3FsHandler {
    state: Rc<RefCell<State>>,
    mem: Rc<MemGate>,
    meta_rgate_sel: SelId,
}

impl Handler for M3FsHandler {
    fn open(&mut self, _env: &Env, _arg: u64) -> Result<u64> {
        let mut st = self.state.borrow_mut();
        let ident = st.next_ident;
        st.next_ident += 1;
        st.sessions.insert(ident, Session::default());
        Ok(ident)
    }

    async fn exchange(
        &mut self,
        env: &Env,
        ident: u64,
        obtain: bool,
        cap_count: u32,
        args: &[u8],
    ) -> Result<(Vec<SelId>, Vec<u8>)> {
        if !obtain || cap_count < 1 {
            return Err(Error::new(Code::NotSup).with_msg("m3fs only hands out capabilities"));
        }
        let mut is = IStream::new(args);
        match is.pop_u8()? {
            OBTAIN_META_GATE => {
                let sel = env.alloc_sel();
                env.syscall(Syscall::CreateSGate {
                    dst: sel,
                    rgate: self.meta_rgate_sel,
                    label: ident,
                    credits: 1,
                })
                .await?;
                Ok((vec![sel], Vec::new()))
            }
            OBTAIN_LOCATE => {
                let la = LocateArgs::take(&mut is)?;
                let mut cost = fscosts::LOCATE;
                // Resolve the extent under the lock, then perform the
                // capability syscall without holding it.
                let (byte_off, byte_len, file_off, perm) = {
                    let mut st = self.state.borrow_mut();
                    let st = &mut *st;
                    let bs = st.core.block_size();
                    let sess = st
                        .sessions
                        .get(&ident)
                        .ok_or_else(|| Error::new(Code::SessClosed))?;
                    let file = sess
                        .files
                        .get(&la.fd)
                        .ok_or_else(|| Error::new(Code::InvArgs).with_msg("bad fd"))?;
                    let (ino, writable) = (file.ino, file.writable);
                    if la.write && !writable {
                        return Err(Error::new(Code::NoAccess));
                    }
                    let (ext, file_off) = match st.core.extent_at(ino, la.offset) {
                        Ok((e, off, _)) => (e, off),
                        Err(e) if e.code() == Code::InvOffset && la.write => {
                            let allocated = st.core.inode(ino).blocks() * bs;
                            if la.offset != allocated {
                                return Err(
                                    Error::new(Code::InvOffset).with_msg("write beyond allocation")
                                );
                            }
                            let want = if la.want_blocks == 0 {
                                FS_ALLOC_BLOCKS as u64
                            } else {
                                la.want_blocks
                            };
                            cost += fscosts::ALLOC_EXTENT;
                            let ext = st.core.append_extent(ino, want)?;
                            (ext, allocated)
                        }
                        Err(e) => return Err(e),
                    };
                    let perm = if writable { Perm::RW } else { Perm::R };
                    (ext.byte_off(bs), ext.byte_len(bs), file_off, perm)
                };
                env.compute(cost).await;
                let sel = env.alloc_sel();
                env.syscall(Syscall::DeriveMem {
                    dst: sel,
                    src: self.mem.sel(),
                    offset: byte_off,
                    size: byte_len,
                    perm,
                })
                .await?;
                let reply = LocateReply {
                    ext_file_off: file_off,
                    ext_bytes: byte_len,
                };
                Ok((vec![sel], reply.to_bytes().to_vec()))
            }
            _ => Err(Error::new(Code::InvArgs).with_msg("unknown obtain tag")),
        }
    }

    fn close(&mut self, _env: &Env, ident: u64) {
        self.state.borrow_mut().sessions.remove(&ident);
    }
}
