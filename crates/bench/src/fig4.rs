//! Figure 4: read/write time depending on file fragmentation.
//!
//! A 2 MiB file is laid out with 16…2048 blocks per extent; the fewer
//! blocks per extent, the more often the application must contact m3fs for
//! further memory capabilities (§5.5). The paper finds the sweet spot at
//! 256 blocks and uses it as the append-allocation unit.

use m3::{System, SystemConfig};
use m3_apps::workload;
use m3_fs::{mount_m3fs, M3FsFileSystem, SetupNode};
use m3_libos::vfs::{File, OpenFlags};

use crate::exec::{self, Job};
use crate::measure::{self, on_m3, XFER_BYTES};
use crate::report::Series;

/// The swept extent sizes (blocks per extent), as in the paper's x-axis.
pub const BLOCKS_PER_EXTENT: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

fn system(setup: Vec<SetupNode>) -> System {
    System::boot(SystemConfig {
        pes: 4,
        fs_blocks: 16 * 1024,
        fs_setup: setup,
        ..SystemConfig::default()
    })
}

fn read_time(bpe: u64) -> u64 {
    let data = workload::file_content(1, XFER_BYTES);
    let sys = system(vec![SetupNode::fragmented_file("/data", data, bpe)]);
    on_m3(&sys, "read-bench", |env| async move {
        mount_m3fs(&env).await.unwrap();
        measure::read_file(&env, "/data").await.total
    })
}

fn write_time(bpe: u64) -> u64 {
    on_m3(&system(Vec::new()), "write-bench", move |env| async move {
        // "For writing we let the application allocate the corresponding
        // number of blocks at once" (§5.5): the allocation hint replaces
        // the 256-block default.
        let fs = M3FsFileSystem::connect(&env).await.unwrap();
        let file = fs
            .open_file(&env, "/new", OpenFlags::CREATE.or(OpenFlags::TRUNC), bpe)
            .await
            .unwrap();
        let file: Box<dyn File> = Box::new(file);
        measure::fill(&env, file).await.total
    })
}

/// Runs the complete Figure 4 reproduction.
///
/// All sixteen sweep points (8 extent sizes × read/write) run as
/// concurrent jobs; rows are assembled in sweep order.
pub fn run() -> Series {
    let mut jobs: Vec<Job<u64>> = Vec::new();
    for bpe in BLOCKS_PER_EXTENT {
        jobs.push(Box::new(move || read_time(bpe)));
    }
    for bpe in BLOCKS_PER_EXTENT {
        jobs.push(Box::new(move || write_time(bpe)));
    }
    let vals = exec::run_jobs(jobs);
    let mut rows = Vec::new();
    for (i, bpe) in BLOCKS_PER_EXTENT.into_iter().enumerate() {
        rows.push((
            bpe,
            vec![vals[i] as f64, vals[BLOCKS_PER_EXTENT.len() + i] as f64],
        ));
    }
    Series {
        title: "Figure 4: read/write time of a 2 MiB file vs blocks per extent".to_string(),
        param: "blocks/extent".to_string(),
        columns: vec!["read (cycles)".to_string(), "write (cycles)".to_string()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmentation_costs_decay_and_flatten() {
        let s = run();
        let read16 = s.value(16, "read (cycles)");
        let read256 = s.value(256, "read (cycles)");
        let read2048 = s.value(2048, "read (cycles)");
        // Strong decay from 16 to 256…
        assert!(
            read16 > read256 * 1.4,
            "read should improve markedly: {read16} vs {read256}"
        );
        // …then flat: ≥ 256 blocks/extent is within ~10% of the best
        // ("the sweet spot is 256 blocks", §5.5).
        assert!(
            read256 < read2048 * 1.10,
            "curve must flatten after 256: {read256} vs {read2048}"
        );

        let write16 = s.value(16, "write (cycles)");
        let write256 = s.value(256, "write (cycles)");
        assert!(
            write16 > write256 * 1.5,
            "write should improve markedly: {write16} vs {write256}"
        );
        // Reads and writes are monotone non-increasing (within noise).
        for col in ["read (cycles)", "write (cycles)"] {
            let mut prev = f64::MAX;
            for bpe in BLOCKS_PER_EXTENT {
                let v = s.value(bpe, col);
                assert!(v <= prev * 1.05, "{col} regressed at {bpe}: {v} > {prev}");
                prev = v;
            }
        }
    }
}
