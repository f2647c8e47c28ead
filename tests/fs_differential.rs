//! Differential file-system test: m3fs against the Linux model's tmpfs.
//!
//! A seeded generator ([`m3_base::rand::Rng`]) draws random sequences of
//! mkdir, create, write-at, read-at, truncate-by-reopen, unlink, stat and
//! read_dir over a small namespace. One body, generic over [`OsApi`], runs
//! each sequence on M3 and on Linux. Every result, error codes included,
//! and the final tree byte for byte must agree: the tmpfs is an
//! independent oracle for m3fs's extent allocation, short writes at
//! extent ends, and truncation at close.

use std::cell::RefCell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_apps::os::OsApi;
use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::error::{Code, Result};
use m3_base::rand::Rng;
use m3_fs::mount_m3fs;
use m3_libos::vfs::{OpenFlags, SeekMode};
use m3_lx::{LxConfig, LxMachine};
use m3_sim::Sim;

/// Sequences per run, operations per sequence.
const SEQUENCES: u64 = 8;
const OPS: usize = 160;

/// The namespace. Each operation picks from the pool that suits it and,
/// one time in eight, from the other one, so that lookups also fail in
/// every way: files used as directories, directories opened as files,
/// missing parents, existing names.
const DIRS: [&str; 3] = ["/d", "/e", "/d/e"];
const FILES: [&str; 6] = ["/f", "/g", "/d/f", "/d/g", "/e/f", "/d/e/f"];

/// Writes are up to 96 KiB, so a file crosses m3fs's 256 KiB extents
/// after a few appends, and appends to several files fragment them.
const MAX_WRITE: u64 = 96 * 1024;

#[derive(Clone, Debug)]
enum Op {
    Mkdir(String),
    Create(String),
    /// Writes `len` bytes drawn from `seed`.
    WriteAt {
        path: String,
        flags: OpenFlags,
        off: u64,
        len: usize,
        seed: u64,
    },
    /// Reads up to `len` bytes; a write-only open must fail the read
    /// with `NoAccess` on both systems.
    ReadAt {
        path: String,
        flags: OpenFlags,
        off: u64,
        len: usize,
    },
    Truncate(String),
    Unlink(String),
    Stat(String),
    ReadDir(String),
}

/// What an operation returned, with the system-specific parts left out.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Done,
    Bytes(Vec<u8>),
    /// `stat` without the extent count: m3fs reports its extents, the
    /// tmpfs has none.
    Stat {
        size: u64,
        is_dir: bool,
        links: u32,
    },
    Entries(Vec<(String, bool)>),
}

fn pick(rng: &mut Rng, dir: bool) -> String {
    let dir = dir != (rng.next_below(8) == 0);
    let pool: &[&str] = if dir { &DIRS } else { &FILES };
    pool[rng.next_below(pool.len() as u64) as usize].to_string()
}

fn generate(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..OPS)
        .map(|_| match rng.next_below(14) {
            0 => Op::Mkdir(pick(&mut rng, true)),
            1 => Op::Create(pick(&mut rng, false)),
            2..=7 => Op::WriteAt {
                path: pick(&mut rng, false),
                flags: [OpenFlags::W, OpenFlags::CREATE][rng.next_below(2) as usize],
                // Half of the offsets lie past EOF: appends.
                off: rng.next_below(4 * MAX_WRITE),
                len: 1 + rng.next_below(MAX_WRITE) as usize,
                seed: rng.next_u64(),
            },
            8 | 9 => Op::ReadAt {
                path: pick(&mut rng, false),
                flags: [OpenFlags::R, OpenFlags::RW, OpenFlags::W][rng.next_below(3) as usize],
                off: rng.next_below(2 * MAX_WRITE),
                len: 1 + rng.next_below(MAX_WRITE) as usize,
            },
            10 => Op::Truncate(pick(&mut rng, false)),
            11 => Op::Unlink(pick(&mut rng, false)),
            12 => Op::Stat(pick(&mut rng, false)),
            _ => Op::ReadDir(pick(&mut rng, true)),
        })
        .collect()
}

/// Reads from `off` until `len` bytes or EOF (an m3fs read also stops at
/// the end of an extent).
async fn read_at<O: OsApi>(os: &O, file: &mut O::File, off: u64, len: usize) -> Result<Vec<u8>> {
    os.seek(file, off as i64, SeekMode::Set).await?;
    let mut out = Vec::new();
    let mut buf = vec![0u8; BENCH_BUF_SIZE];
    while out.len() < len {
        let want = (len - out.len()).min(buf.len());
        match os.read(file, &mut buf[..want]).await? {
            0 => break,
            n => out.extend_from_slice(&buf[..n]),
        }
    }
    Ok(out)
}

async fn apply<O: OsApi>(os: &O, op: &Op) -> Result<Outcome> {
    match op {
        Op::Mkdir(path) => os.mkdir(path).await.map(|()| Outcome::Done),
        Op::Create(path) => {
            let file = os.open(path, OpenFlags::CREATE).await?;
            os.close(file).await.map(|()| Outcome::Done)
        }
        Op::WriteAt {
            path,
            flags,
            off,
            len,
            seed,
        } => {
            let mut file = os.open(path, *flags).await?;
            // m3fs has no sparse files: a write that starts past the
            // blocks a file owns fails with `InvOffset`, where Linux fills
            // the hole with zeros. So writes start at or before EOF.
            let end = os.seek(&mut file, 0, SeekMode::End).await?;
            os.seek(&mut file, (*off).min(end) as i64, SeekMode::Set)
                .await?;
            let mut data = vec![0u8; *len];
            Rng::new(*seed).fill_bytes(&mut data);
            let res = os.write_all(&mut file, &data).await;
            os.close(file).await?;
            res.map(|()| Outcome::Done)
        }
        Op::ReadAt {
            path,
            flags,
            off,
            len,
        } => {
            let mut file = os.open(path, *flags).await?;
            let res = read_at(os, &mut file, *off, *len).await;
            os.close(file).await?;
            res.map(Outcome::Bytes)
        }
        Op::Truncate(path) => {
            let file = os.open(path, OpenFlags::TRUNC).await?;
            os.close(file).await.map(|()| Outcome::Done)
        }
        Op::Unlink(path) => os.unlink(path).await.map(|()| Outcome::Done),
        Op::Stat(path) => os.stat(path).await.map(|i| Outcome::Stat {
            size: i.size,
            is_dir: i.is_dir,
            links: i.links,
        }),
        Op::ReadDir(path) => os.read_dir(path).await.map(|entries| {
            Outcome::Entries(entries.into_iter().map(|e| (e.name, e.is_dir)).collect())
        }),
    }
}

/// Every path under `/` with its content (`None` for directories), and
/// the most extents any file has (always 0 on the tmpfs).
async fn tree<O: OsApi>(os: &O) -> Result<(Tree, u32)> {
    let mut out = Vec::new();
    let mut extents = 0;
    let mut stack = vec![String::new()];
    while let Some(dir) = stack.pop() {
        for entry in os.read_dir(if dir.is_empty() { "/" } else { &dir }).await? {
            let path = format!("{dir}/{}", entry.name);
            if entry.is_dir {
                stack.push(path.clone());
                out.push((path, None));
            } else {
                extents = extents.max(os.stat(&path).await?.extents);
                let mut file = os.open(&path, OpenFlags::R).await?;
                let data = read_at(os, &mut file, 0, usize::MAX).await?;
                os.close(file).await?;
                out.push((path, Some(data)));
            }
        }
    }
    out.sort();
    Ok((out, extents))
}

type Tree = Vec<(String, Option<Vec<u8>>)>;
type Log = (Vec<std::result::Result<Outcome, Code>>, (Tree, u32));

async fn run<O: OsApi>(os: &O, ops: &[Op]) -> Log {
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        results.push(apply(os, op).await.map_err(|e| e.code()));
    }
    (results, tree(os).await.expect("final tree walk"))
}

fn run_m3(ops: Vec<Op>) -> Log {
    let sys = System::boot(SystemConfig {
        pes: 4,
        fs_blocks: 16 * 1024,
        ..SystemConfig::default()
    });
    let log = Rc::new(RefCell::new(None));
    let out = log.clone();
    sys.run_program("diff", |env| async move {
        mount_m3fs(&env).await.expect("mount m3fs");
        let log = run(&env, &ops).await;
        *out.borrow_mut() = Some(log);
        0
    });
    sys.run();
    log.take().expect("m3 sequence finished")
}

fn run_lx(ops: Vec<Op>) -> Log {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    let log = Rc::new(RefCell::new(None));
    let out = log.clone();
    machine.spawn_proc("diff", move |p| async move {
        let log = run(&p, &ops).await;
        *out.borrow_mut() = Some(log);
        0
    });
    sim.run();
    log.take().expect("lx sequence finished")
}

#[test]
fn m3fs_and_tmpfs_agree_on_random_sequences() {
    let mut most_extents = 0;
    for seed in 0..SEQUENCES {
        let ops = generate(0xd1ff_0000 + seed);
        let (m3_results, (m3_tree, extents)) = run_m3(ops.clone());
        let (lx_results, (lx_tree, _)) = run_lx(ops.clone());
        for (i, (m3, lx)) in m3_results.iter().zip(&lx_results).enumerate() {
            assert_eq!(m3, lx, "seed {seed}, op {i}: {:?}", ops[i]);
        }
        assert_eq!(m3_tree, lx_tree, "seed {seed}: final tree");
        most_extents = most_extents.max(extents);
    }
    // The sequences must reach m3fs's multi-extent paths.
    assert!(
        most_extents >= 3,
        "most extents of any file: {most_extents}"
    );
}
