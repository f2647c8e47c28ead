//! `fs-read` and `fs-write`: eight instances on one kernel and one m3fs,
//! with NoC contention on. m3fs meta requests, bulk DTU transfers and NoC
//! links do the work; `fs-read` only reads, `fs-write` allocates, appends
//! and frees, so a gain on the read path that costs writes shows up.

use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_apps::workload::{file_content, find_tree, tar_input, TreeSpec};
use m3_apps::{m3app, tarfmt};
use m3_base::rand::Rng;
use m3_fs::SetupNode;
use m3_libos::vfs;
use m3_libos::Env;

use crate::check::{self, FileSig};
use crate::measure::{self, new_sim, Counters, Probe, Ready, Rep, RepClock, TraceOut};

/// Instances of each kind (readers and finders, or untar and sqlite).
pub const PER_KIND: usize = 4;

/// Kernel + m3fs + one PE per instance.
const PES: usize = 2 + 2 * PER_KIND;

/// The file sizes are those of the §5.6 tar input for this fixed seed; the
/// workload seed varies contents and order only, so simulated results move
/// little between seeds and any change to them shows.
const SHAPE_SEED: u64 = 22;

/// The generated inputs of both fs workloads.
#[derive(Clone, Debug)]
pub struct FsInput {
    /// The tar input: files of 60-500 KiB, 1.2 MiB in total, under `/src`.
    pub files: TreeSpec,
    /// The expected signature of each file, in `files` order.
    pub sigs: Vec<FileSig>,
    /// The find input: a 40-item tree at the root.
    pub find: TreeSpec,
    /// Every path a find for `log` over both trees must return, sorted.
    pub find_expect: Vec<String>,
    /// `files` as a tar archive.
    archive: Vec<u8>,
}

impl FsInput {
    /// Generates the inputs of `seed`.
    pub fn new(seed: u64) -> FsInput {
        let mut files = tar_input(SHAPE_SEED);
        for (i, (_, content)) in files.files.iter_mut().enumerate() {
            *content = file_content(seed ^ (i as u64).wrapping_mul(0x9e37_79b9), content.len());
        }
        let sigs = files.files.iter().map(|(_, c)| FileSig::of(c)).collect();
        let find = find_tree(seed);
        let mut find_expect: Vec<String> = [&files, &find]
            .iter()
            .flat_map(|t| t.dirs.iter().chain(t.files.iter().map(|(p, _)| p)))
            .filter(|p| p.rsplit('/').next().is_some_and(|n| n.contains("log")))
            .cloned()
            .collect();
        find_expect.sort();
        let entries: Vec<(&str, &[u8], bool)> = files
            .files
            .iter()
            .map(|(p, c)| (p.trim_start_matches('/'), c.as_slice(), false))
            .collect();
        let archive = tarfmt::build_archive(&entries);
        FsInput {
            files,
            sigs,
            find,
            find_expect,
            archive,
        }
    }

    /// The file name (last path component) of file `i`.
    fn name(&self, i: usize) -> &str {
        let path = &self.files.files[i].0;
        &path[path.rfind('/').map_or(0, |s| s + 1)..]
    }
}

/// A per-instance random stream split off the workload seed.
fn instance_rng(seed: u64, instance: usize) -> Rng {
    Rng::new(seed ^ (instance as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d))
}

fn boot(trace: bool, fs_blocks: u64, fs_setup: Vec<SetupNode>) -> System {
    System::boot_in(
        new_sim(trace),
        SystemConfig {
            pes: PES,
            fs_blocks,
            fs_setup,
            ..SystemConfig::default()
        },
    )
}

/// Runs the spawned instances and collects the rep.
fn finish(
    sys: &System,
    clock: &RepClock,
    probe: &Probe,
    ready: &Ready,
    expected: u64,
    trace: bool,
) -> Rep {
    sys.run();
    clock.finish(ready.at(), probe.take(), expected, || {
        let trace = trace.then(|| TraceOut::of_sim(sys.sim()));
        (Counters::of_system(sys), trace)
    })
}

/// `fs-read` rep: four readers read every file of the tar input each round
/// (in a seeded order) and check it against the generator; four finders
/// walk the whole tree for `log` each round and check the matches.
pub fn read_rep(input: &Rc<FsInput>, seed: u64, rounds: u64, trace: bool) -> Rep {
    let mut setup = input.files.to_setup();
    setup.extend(input.find.to_setup());
    let clock = RepClock::start();
    let sys = boot(trace, 8 * 1024, setup);
    let expected = PER_KIND as u64 * rounds * (input.sigs.len() as u64 + 1);
    let probe = Probe::new(expected);
    let ready = Ready::new(2 * PER_KIND);
    for i in 0..2 * PER_KIND {
        let (probe, ready, input) = (probe.clone(), ready.clone(), input.clone());
        sys.run_program(&format!("fs-read{i}"), move |env| async move {
            if measure::mount(&env, &probe).await.is_err() {
                return 1;
            }
            ready.arrive(env.sim()).await;
            let sim = env.sim().clone();
            let mut rng = instance_rng(seed, i);
            for _ in 0..rounds {
                if i < PER_KIND {
                    for f in shuffled(&mut rng, input.sigs.len()) {
                        let t = sim.now();
                        let got = vfs::read_to_vec(&env, &input.files.files[f].0).await;
                        let ok = got.is_ok_and(|d| check::file_ok(&input.sigs[f], &d));
                        probe.op(ok, t, sim.now());
                    }
                } else {
                    let t = sim.now();
                    let got = m3app::find(&env, "/", "log").await;
                    let ok = got.is_ok_and(|m| check::find_ok(&input.find_expect, &m));
                    probe.op(ok, t, sim.now());
                }
            }
            0
        });
    }
    finish(&sys, &clock, &probe, &ready, expected, trace)
}

/// `0..n` in a seeded random order.
fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

/// `fs-write` rep: four instances untar the archive into their own
/// directory, check every file and unlink them all; four run sqlite on
/// their own database and unlink it. One round of either is one op.
pub fn write_rep(input: &Rc<FsInput>, rounds: u64, trace: bool) -> Rep {
    let mut setup = vec![SetupNode::file("/archive.tar", input.archive.clone())];
    setup.extend((0..PER_KIND).map(|i| SetupNode::dir(&format!("/out{i}"))));
    let clock = RepClock::start();
    let sys = boot(trace, 16 * 1024, setup);
    let expected = 2 * PER_KIND as u64 * rounds;
    let probe = Probe::new(expected);
    let ready = Ready::new(2 * PER_KIND);
    for i in 0..2 * PER_KIND {
        let (probe, ready, input) = (probe.clone(), ready.clone(), input.clone());
        sys.run_program(&format!("fs-write{i}"), move |env| async move {
            if measure::mount(&env, &probe).await.is_err() {
                return 1;
            }
            ready.arrive(env.sim()).await;
            let sim = env.sim().clone();
            for _ in 0..rounds {
                let t = sim.now();
                let ok = if i < PER_KIND {
                    untar_round(&env, &input, &format!("/out{i}")).await
                } else {
                    sqlite_round(&env, &format!("/db{i}")).await
                };
                probe.op(ok, t, sim.now());
            }
            0
        });
    }
    finish(&sys, &clock, &probe, &ready, expected, trace)
}

async fn untar_round(env: &Env, input: &FsInput, dir: &str) -> bool {
    let total: u64 = input.sigs.iter().map(|s| s.len as u64).sum();
    let extracted = m3app::tar_extract(env, "/archive.tar", dir).await;
    let mut ok = extracted.is_ok_and(|n| n == total);
    for (f, sig) in input.sigs.iter().enumerate() {
        let path = format!("{dir}/{}", input.name(f));
        ok &= vfs::read_to_vec(env, &path)
            .await
            .is_ok_and(|d| check::file_ok(sig, &d));
        ok &= vfs::unlink(env, &path).await.is_ok();
    }
    ok
}

async fn sqlite_round(env: &Env, db: &str) -> bool {
    let rows = m3app::sqlite(env, db).await;
    let ok = rows.is_ok_and(check::sqlite_ok);
    ok & vfs::unlink(env, db).await.is_ok()
}
