//! Figure 5: application-level benchmarks (§5.6).
//!
//! cat+tr, tar, untar, find, and sqlite on M3 vs Linux (`Lx`) vs Linux
//! without cache misses (`Lx-$`), broken down into application time, data
//! transfers, and OS overhead.

use std::future::Future;

use m3::{System, SystemConfig};
use m3_apps::{fsapps, lxapp, m3app, tarfmt, workload};
use m3_base::error::Result;
use m3_fs::{mount_m3fs, SetupNode};
use m3_lx::LxConfig;

use crate::exec::{self, Job};
use crate::measure::{self, on_lx, on_m3, BenchOs, Split};
use crate::report::{Bar, Figure, Group};

/// The five §5.6 benchmarks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BenchKind {
    /// Pipe + file + application loading.
    CatTr,
    /// Archive 1.2 MiB of files.
    Tar,
    /// Extract the same archive.
    Untar,
    /// Walk a 40-item tree with stats.
    Find,
    /// Table create + 8 inserts + select.
    Sqlite,
}

impl BenchKind {
    /// All five, in the paper's order.
    pub const ALL: [BenchKind; 5] = [
        BenchKind::CatTr,
        BenchKind::Tar,
        BenchKind::Untar,
        BenchKind::Find,
        BenchKind::Sqlite,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BenchKind::CatTr => "cat+tr",
            BenchKind::Tar => "tar",
            BenchKind::Untar => "untar",
            BenchKind::Find => "find",
            BenchKind::Sqlite => "sqlite",
        }
    }
}

/// Builds the untar input: the reference archive of the tar tree.
pub(crate) fn untar_archive() -> Vec<u8> {
    let spec = workload::tar_input(22);
    let entries: Vec<(&str, &[u8], bool)> = spec
        .files
        .iter()
        .map(|(p, c)| (p.trim_start_matches('/'), c.as_slice(), false))
        .collect();
    tarfmt::build_archive(&entries)
}

/// The file system `kind` starts from, on both systems, and the M3 PE count.
fn setup(kind: BenchKind) -> (Vec<SetupNode>, usize) {
    match kind {
        BenchKind::CatTr => (workload::cat_tr_input(11).to_setup(), 5),
        BenchKind::Tar => (workload::tar_input(22).to_setup(), 4),
        BenchKind::Untar => (
            vec![
                SetupNode::file("/archive.tar", untar_archive()),
                SetupNode::dir("/out"),
            ],
            4,
        ),
        BenchKind::Find => (workload::find_tree(33).to_setup(), 4),
        BenchKind::Sqlite => (Vec::new(), 4),
    }
}

/// Runs `kind` on `os` and splits it into App/Xfers/OS. cat+tr starts a
/// child, which differs per system, so the caller passes it in.
async fn bench<O: BenchOs, F>(os: &O, kind: BenchKind, cat_tr: impl FnOnce() -> F) -> Split
where
    F: Future<Output = Result<u64>>,
{
    measure::split(os, O::APP, O::XFER, async {
        match kind {
            BenchKind::CatTr => {
                cat_tr().await.unwrap();
            }
            BenchKind::Tar => {
                fsapps::tar_create(os, "/src", "/archive.tar")
                    .await
                    .unwrap();
            }
            BenchKind::Untar => {
                fsapps::tar_extract(os, "/archive.tar", "/out")
                    .await
                    .unwrap();
            }
            BenchKind::Find => {
                assert!(!fsapps::find(os, "/", "log").await.unwrap().is_empty());
            }
            BenchKind::Sqlite => {
                assert_eq!(fsapps::sqlite(os, "/test.db").await.unwrap(), 8);
            }
        }
    })
    .await
}

fn m3_bar(kind: BenchKind) -> Bar {
    let (setup, pes) = setup(kind);
    let sys = System::boot(SystemConfig {
        pes,
        fs_blocks: 16 * 1024,
        fs_setup: setup,
        ..SystemConfig::default()
    });
    let s = on_m3(&sys, "bench", move |env| async move {
        mount_m3fs(&env).await.unwrap();
        bench(&env, kind, || {
            m3app::cat_tr(&env, "/input.txt", "/output.txt")
        })
        .await
    });
    s.bar("M3", "App")
}

fn lx_bar(kind: BenchKind, cfg: LxConfig, label: &str) -> Bar {
    let s = on_lx(cfg, &setup(kind).0, "bench", move |p| async move {
        bench(&p, kind, || lxapp::cat_tr(&p, "/input.txt", "/output.txt")).await
    });
    s.bar(label, "App")
}

/// Runs the complete Figure 5 reproduction.
///
/// The fifteen bars (5 benchmarks × 3 systems) are independent simulations
/// measured concurrently and assembled in the paper's order.
pub fn run() -> Figure {
    let mut jobs: Vec<Job<Bar>> = Vec::new();
    for kind in BenchKind::ALL {
        jobs.push(Box::new(move || m3_bar(kind)));
        jobs.push(Box::new(move || lx_bar(kind, LxConfig::xtensa(), "Lx")));
        jobs.push(Box::new(move || {
            lx_bar(kind, LxConfig::xtensa_warm(), "Lx-$")
        }));
    }
    let mut bars = exec::run_jobs(jobs).into_iter();
    let mut groups = Vec::new();
    for kind in BenchKind::ALL {
        groups.push(Group {
            name: kind.name().to_string(),
            bars: bars.by_ref().take(3).collect(),
        });
    }
    Figure {
        title: "Figure 5: application-level benchmarks (cycles; App/Xfers/OS)".to_string(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape_matches_paper() {
        let fig = run();

        // §5.6: "In case of cat+tr, M3 is about twice as fast."
        let m3 = fig.bar("cat+tr", "M3").total;
        let lx = fig.bar("cat+tr", "Lx").total;
        let ratio = lx as f64 / m3 as f64;
        assert!((1.4..=4.0).contains(&ratio), "cat+tr ratio {ratio}");

        // "For tar and untar, M3 requires only 20% and 16% of the time
        // Linux takes" — i.e. 5-6x faster. Accept 3x and up.
        for op in ["tar", "untar"] {
            let m3 = fig.bar(op, "M3").total;
            let lx = fig.bar(op, "Lx").total;
            assert!(lx > 3 * m3, "{op}: Lx {lx} vs M3 {m3}");
        }

        // "Find shows a different picture as Linux is slightly faster."
        let m3 = fig.bar("find", "M3").total;
        let lx = fig.bar("find", "Lx").total;
        assert!(lx < m3, "find: Linux must win ({lx} vs {m3})");
        assert!(m3 < 2 * lx, "find: but only slightly ({m3} vs {lx})");

        // "sqlite is only slightly faster on M3, because computation makes
        // up the majority of the execution time."
        let m3_bar = fig.bar("sqlite", "M3");
        let lx = fig.bar("sqlite", "Lx").total;
        assert!(m3_bar.total < lx, "sqlite: M3 should win slightly");
        assert!(lx < m3_bar.total * 13 / 10, "sqlite: within ~30%");
        let app = m3_bar.parts.iter().find(|(n, _)| n == "App").unwrap().1;
        assert!(
            app * 2 > m3_bar.total,
            "sqlite must be computation-dominated"
        );
    }
}
