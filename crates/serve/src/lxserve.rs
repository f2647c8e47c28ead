//! The key-value service on the Linux baseline.
//!
//! Same store, same engine costs ([`crate::costs`]), Linux OS path: the
//! server is a forked process holding the database file open on the
//! tmpfs; requests and replies travel over a pair of kernel pipes as
//! length-prefixed frames. Driver and server time-share the single CPU
//! (context switches and all, §5.6) — the structural difference to M3,
//! where the service owns a PE and requests arrive via the DTU.

use m3_apps::sqlwork::PAGE_SIZE;
use m3_base::{PeId, Perm};
use m3_lx::{LxConfig, LxMachine, LxPipeReader, LxPipeWriter, LxProc};
use m3_sim::{keys, Sim};

use crate::costs;
use crate::load::ClientSet;
use crate::proto::{initial_db, row_page, KvOp, KvReply, DB_PATH, KEYS, PAGES};
use crate::scenario::{ServePlan, ServeRun};

/// Fills `buf` from the pipe; `false` at EOF or on an error.
async fn read_exact(proc: &LxProc, rx: &mut LxPipeReader, buf: &mut [u8]) -> bool {
    let mut got = 0;
    while got < buf.len() {
        match rx.read(proc, &mut buf[got..]).await {
            Ok(n) if n > 0 => got += n,
            _ => return false,
        }
    }
    true
}

/// Reads one length-prefixed frame into `frame`; `false` at EOF.
async fn read_frame(proc: &LxProc, rx: &mut LxPipeReader, frame: &mut Vec<u8>) -> bool {
    let mut head = [0u8; 4];
    if !read_exact(proc, rx, &mut head).await {
        return false;
    }
    frame.resize(u32::from_le_bytes(head) as usize, 0);
    read_exact(proc, rx, frame).await
}

async fn write_frame(proc: &LxProc, tx: &mut LxPipeWriter, payload: &[u8]) -> bool {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    tx.write(proc, &frame).await.is_ok()
}

async fn serve_proc(proc: LxProc, mut rx: LxPipeReader, mut tx: LxPipeWriter) -> i64 {
    let Ok(mut db) = proc.open(DB_PATH, Perm::RW, false, false).await else {
        return 1;
    };
    let mut frame = Vec::new();
    while read_frame(&proc, &mut rx, &mut frame).await {
        let reply = match KvOp::from_bytes(&frame) {
            Err(_) => KvReply::err(),
            Ok(KvOp::Get { key }) if key < KEYS => {
                proc.compute(costs::GET).await;
                db.seek((1 + key) * PAGE_SIZE as u64).await;
                match db.read(PAGE_SIZE).await {
                    Ok(page) => KvReply::ok(page.len() as u64),
                    Err(_) => KvReply::err(),
                }
            }
            Ok(KvOp::Put { key, tag }) if key < KEYS => {
                proc.compute(costs::PUT).await;
                db.seek((1 + key) * PAGE_SIZE as u64).await;
                match db.write(&row_page(key, tag)).await {
                    Ok(_) => KvReply::ok(PAGE_SIZE as u64),
                    Err(_) => KvReply::err(),
                }
            }
            Ok(KvOp::Get { .. }) | Ok(KvOp::Put { .. }) => KvReply::err(),
            Ok(KvOp::Scan) => {
                proc.compute(costs::SCAN_PER_PAGE * PAGES).await;
                db.seek(0).await;
                match db.read(PAGES as usize * PAGE_SIZE).await {
                    Ok(all) => KvReply::ok(all.len() as u64),
                    Err(_) => KvReply::err(),
                }
            }
        };
        if !write_frame(&proc, &mut tx, &reply.to_bytes()).await {
            break;
        }
    }
    rx.close();
    tx.close();
    db.close().await;
    0
}

/// Runs the serving scenario on the Linux baseline and reports the same
/// shape of results as `run_m3`.
pub fn run_lx(plan: &ServePlan) -> ServeRun {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    let plan = *plan;
    let (_, handle) = machine.spawn_proc("kv-driver", move |proc| async move {
        // Materialise the database on the tmpfs before the server opens it.
        let mut dbfile = proc
            .open(DB_PATH, Perm::W, true, true)
            .await
            .expect("create db");
        let image = initial_db();
        let mut pos = 0;
        while pos < image.len() {
            let n = dbfile.write(&image[pos..]).await.expect("write db image");
            assert!(n > 0, "tmpfs write made no progress");
            pos += n;
        }
        dbfile.close().await;

        let (req_rx, mut req_tx) = proc.pipe().await;
        let (mut rsp_rx, rsp_tx) = proc.pipe().await;
        let server = proc
            .fork("kv-server", move |sproc| serve_proc(sproc, req_rx, rsp_tx))
            .await;

        let sim = proc.machine().sim().clone();
        let metrics = sim.metrics();
        let mut set = ClientSet::new(&plan.load());
        let mut requests = 0u64;
        let mut frame = Vec::new();
        while let Some(pending) = set.next_request() {
            if sim.now() < pending.due {
                sim.sleep_until(pending.due).await;
            }
            let sent = write_frame(&proc, &mut req_tx, &pending.op.to_bytes()).await;
            assert!(sent, "request pipe closed early");
            let read = read_frame(&proc, &mut rsp_rx, &mut frame).await;
            assert!(read, "reply pipe closed");
            let reply = KvReply::from_bytes(&frame).expect("malformed reply");
            assert_eq!(reply.status, 0, "kv request failed");
            let latency = set.complete(pending.client, pending.due, sim.now());
            metrics.observe(PeId::new(0), keys::SERVE_LATENCY, latency.as_u64());
            requests += 1;
        }
        req_tx.close();
        rsp_rx.close();
        proc.waitpid(server).await;
        requests as i64
    });
    sim.run();
    let requests = handle.try_take().expect("driver did not finish") as u64;
    let total = sim.now();
    let latency = sim
        .metrics()
        .merged(keys::SERVE_LATENCY)
        .unwrap_or_default();
    ServeRun::new(plan.clients, requests, total, latency)
}
