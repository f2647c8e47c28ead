//! The key-value service program (M3 side).
//!
//! Runs as a §4.5.3 service on its own PE: sessions and capability
//! exchanges go through the kernel; the request channel is a receive gate
//! clients obtain send gates to (credits 1 — one request in flight per
//! session, the back-pressure that makes server queueing visible to the
//! load generator). Storage is the database file on m3fs, reached through
//! the ordinary VFS/DTU path, so every request pays the real OS cost of
//! its page accesses on top of the engine residue in [`crate::costs`].

use m3_apps::sqlwork::{decode_schema, PAGE_SIZE};
use m3_base::error::{Code, Error, Result};
use m3_base::marshal::IStream;
use m3_base::{Cycles, SelId};
use m3_fs::mount_m3fs;
use m3_kernel::protocol::Syscall;
use m3_libos::serv::{self, Handler};
use m3_libos::vfs::{self, File, OpenFlags, SeekMode};
use m3_libos::{Env, RecvGate};

use crate::costs;
use crate::proto::{row_page, KvOp, KvReply, DB_PATH, KEYS, OBTAIN_REQ_GATE, PAGES};

/// The service name clients connect to.
pub const SERVICE: &str = "kv";

/// Request-channel geometry: enough slots for every driver PE to have a
/// request queued, sized for the small [`KvOp`] messages.
const REQ_SLOTS: u32 = 64;
const REQ_SLOT_SIZE: u32 = 64;

/// Boots the key-value service: mounts m3fs, opens and validates the
/// database, then serves requests forever.
///
/// Spawn with `spawn_daemon`.
///
/// # Errors
///
/// Fails if m3fs is unreachable, the database is missing or malformed, or
/// service registration is rejected.
pub async fn run_kv_server(env: Env) -> Result<()> {
    // The filesystem service registers concurrently with this daemon;
    // back off until it appears.
    loop {
        match mount_m3fs(&env).await {
            Ok(()) => break,
            Err(e) if e.code() == Code::InvService => {
                env.sim().sleep(Cycles::new(1_000)).await;
            }
            Err(e) => return Err(e),
        }
    }
    let mut db = vfs::open(&env, DB_PATH, OpenFlags::R.or(OpenFlags::W)).await?;

    // Validate the schema page before accepting requests: a truncated DDL
    // statement here means the database image is corrupt. The buffer is
    // sized for a scan and serves every later request.
    let mut buf = vec![0u8; PAGES as usize * PAGE_SIZE];
    let schema = &mut buf[..PAGE_SIZE];
    read_exact(db.as_mut(), schema).await?;
    decode_schema(schema).map_err(|e| Error::new(Code::InvArgs).with_msg(e))?;

    let req_rgate = RecvGate::new(&env, REQ_SLOTS, REQ_SLOT_SIZE).await?;
    let req_rgate_sel = req_rgate.sel();
    {
        let env2 = env.clone();
        env.sim().spawn_daemon("kv-req", async move {
            req_loop(env2, db, req_rgate, buf).await;
        });
    }

    serv::serve(
        env.clone(),
        SERVICE,
        KvHandler {
            next_ident: 1,
            req_rgate_sel,
        },
    )
    .await
}

/// Fills `buf` from the file's position.
async fn read_exact(file: &mut dyn File, buf: &mut [u8]) -> Result<()> {
    let mut pos = 0;
    while pos < buf.len() {
        let n = file.read(&mut buf[pos..]).await?;
        if n == 0 {
            return Err(Error::new(Code::InvOffset).with_msg("short database read"));
        }
        pos += n;
    }
    Ok(())
}

async fn write_all(file: &mut dyn File, data: &[u8]) -> Result<()> {
    let mut pos = 0;
    while pos < data.len() {
        let n = file.write(&data[pos..]).await?;
        if n == 0 {
            return Err(Error::new(Code::NoSpace));
        }
        pos += n;
    }
    Ok(())
}

/// Serves `op`; reads land in `buf`, which holds a whole scan.
async fn handle(env: &Env, db: &mut dyn File, buf: &mut [u8], op: KvOp) -> Result<KvReply> {
    match op {
        KvOp::Get { key } => {
            if key >= KEYS {
                return Err(Error::new(Code::InvArgs).with_msg(format!("bad key {key}")));
            }
            env.compute(costs::GET).await;
            db.seek(((1 + key) as i64) * PAGE_SIZE as i64, SeekMode::Set)
                .await?;
            read_exact(db, &mut buf[..PAGE_SIZE]).await?;
            Ok(KvReply::ok(PAGE_SIZE as u64))
        }
        KvOp::Put { key, tag } => {
            if key >= KEYS {
                return Err(Error::new(Code::InvArgs).with_msg(format!("bad key {key}")));
            }
            env.compute(costs::PUT).await;
            db.seek(((1 + key) as i64) * PAGE_SIZE as i64, SeekMode::Set)
                .await?;
            write_all(db, &row_page(key, tag)).await?;
            Ok(KvReply::ok(PAGE_SIZE as u64))
        }
        KvOp::Scan => {
            env.compute(costs::SCAN_PER_PAGE * PAGES).await;
            db.seek(0, SeekMode::Set).await?;
            let all = &mut buf[..PAGES as usize * PAGE_SIZE];
            read_exact(db, all).await?;
            Ok(KvReply::ok(all.len() as u64))
        }
    }
}

async fn req_loop(env: Env, mut db: Box<dyn File>, rgate: RecvGate, mut buf: Vec<u8>) {
    loop {
        let Ok(msg) = rgate.recv().await else { return };
        env.compute(m3_libos::costs::SERV_DISPATCH).await;
        let reply = match KvOp::from_bytes(&msg.payload) {
            Err(_) => KvReply::err(),
            Ok(op) => handle(&env, db.as_mut(), &mut buf, op)
                .await
                .unwrap_or_else(|_| KvReply::err()),
        };
        let _ = rgate.reply(&msg, &reply.to_bytes()).await;
    }
}

struct KvHandler {
    next_ident: u64,
    req_rgate_sel: SelId,
}

impl Handler for KvHandler {
    fn open(&mut self, _env: &Env, _arg: u64) -> Result<u64> {
        let ident = self.next_ident;
        self.next_ident += 1;
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
            return Err(Error::new(Code::NotSup).with_msg("kv only hands out capabilities"));
        }
        let mut is = IStream::new(args);
        match is.pop_u8()? {
            OBTAIN_REQ_GATE => {
                let sel = env.alloc_sel();
                env.syscall(Syscall::CreateSGate {
                    dst: sel,
                    rgate: self.req_rgate_sel,
                    label: ident,
                    credits: 1,
                })
                .await?;
                Ok((vec![sel], Vec::new()))
            }
            _ => Err(Error::new(Code::InvArgs).with_msg("unknown obtain tag")),
        }
    }

    fn close(&mut self, _env: &Env, _ident: u64) {}
}
