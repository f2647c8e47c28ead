//! The file-system workloads of §5.6 — tar, untar, find and sqlite —
//! written once against [`OsApi`], so M3 and Linux run the same body and
//! issue the same operation sequence.

use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::Cycles;
use m3_libos::vfs::{OpenFlags, SeekMode};

use crate::os::OsApi;
use crate::sqlwork;
use crate::tarfmt;

/// Cycles to match one directory entry name in `find`.
pub const FIND_MATCH_CYCLES: u64 = 50;

fn bad_message(e: String) -> Error {
    Error::new(Code::BadMessage).with_msg(e)
}

/// tar (§5.6): packs every file under `dir` into `archive`; returns the
/// archive size.
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn tar_create<O: OsApi>(os: &O, dir: &str, archive: &str) -> Result<u64> {
    os.mark("tar_create");
    let mut out = os
        .open(archive, OpenFlags::CREATE.or(OpenFlags::TRUNC))
        .await?;
    let mut entries = os.read_dir(dir).await?;
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let mut total = 0u64;
    for entry in entries {
        let path = format!("{dir}/{}", entry.name);
        let info = os.stat(&path).await?;
        let header = tarfmt::header(path.trim_start_matches('/'), info.size, entry.is_dir);
        os.write_all(&mut out, &header).await?;
        total += tarfmt::BLOCK as u64;
        if entry.is_dir {
            continue;
        }
        let mut file = os.open(&path, OpenFlags::R).await?;
        // To EOF, not to the stat size: on M3 that is one more (empty)
        // read per file, which the Figure 5 pins include.
        let copied = os.copy(&mut out, &mut file, u64::MAX).await?;
        os.close(file).await?;
        let padded = tarfmt::padded_size(copied);
        if padded > copied {
            let pad = vec![0u8; (padded - copied) as usize];
            os.write_all(&mut out, &pad).await?;
        }
        total += padded;
    }
    os.write_all(&mut out, &[0u8; 2 * tarfmt::BLOCK]).await?;
    total += 2 * tarfmt::BLOCK as u64;
    os.close(out).await?;
    Ok(total)
}

/// untar (§5.6): unpacks `archive` under `dest` (a directory that must
/// exist); returns the bytes of file content extracted.
///
/// # Errors
///
/// Propagates filesystem errors and archive format violations
/// ([`Code::BadMessage`]).
pub async fn tar_extract<O: OsApi>(os: &O, archive: &str, dest: &str) -> Result<u64> {
    os.mark("tar_extract");
    let mut ar = os.open(archive, OpenFlags::R).await?;
    let mut header = [0u8; tarfmt::BLOCK];
    let mut total = 0u64;
    loop {
        let mut got = 0;
        while got < tarfmt::BLOCK {
            let n = os.read(&mut ar, &mut header[got..]).await?;
            if n == 0 {
                return Ok(total); // archive ended without zero blocks
            }
            got += n;
        }
        let Some(entry) = tarfmt::parse_header(&header).map_err(bad_message)? else {
            return Ok(total); // end-of-archive marker
        };
        let name = entry.name.rsplit('/').next().unwrap_or_default();
        let out_path = format!("{dest}/{name}");
        if entry.is_dir {
            os.mkdir(&out_path).await?;
            continue;
        }
        let mut out = os
            .open(&out_path, OpenFlags::CREATE.or(OpenFlags::TRUNC))
            .await?;
        if os.copy(&mut out, &mut ar, entry.size).await? != entry.size {
            return Err(bad_message("truncated archive".into()));
        }
        os.close(out).await?;
        total += entry.size;
        let pad = tarfmt::padded_size(entry.size) - entry.size;
        if pad > 0 {
            os.seek(&mut ar, pad as i64, SeekMode::Cur).await?;
        }
    }
}

/// find (§5.6): walks the tree under `root`, stat-ing every item, and
/// returns the paths whose name contains `pattern`. "find consists mostly
/// of stat calls."
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn find<O: OsApi>(os: &O, root: &str, pattern: &str) -> Result<Vec<String>> {
    os.mark("find");
    let mut matches = Vec::new();
    let mut stack = vec![root.to_string()];
    while let Some(dir) = stack.pop() {
        for entry in os.read_dir(&dir).await? {
            let path = format!("{}/{}", dir.trim_end_matches('/'), entry.name);
            os.stat(&path).await?;
            os.compute(Cycles::new(FIND_MATCH_CYCLES)).await;
            if entry.name.contains(pattern) {
                matches.push(path.clone());
            }
            if entry.is_dir {
                stack.push(path);
            }
        }
    }
    matches.sort();
    Ok(matches)
}

/// sqlite (§5.6): creates a table, inserts 8 entries, selects them;
/// returns the rows selected. Mostly computation, with database page
/// writes in between.
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn sqlite<O: OsApi>(os: &O, db_path: &str) -> Result<usize> {
    os.mark("sqlite");
    let flags = OpenFlags::CREATE.or(OpenFlags::TRUNC).or(OpenFlags::R);
    let mut db = os.open(db_path, flags).await?;
    let mut rows = 0;
    for op in sqlwork::workload() {
        os.compute(op.compute).await;
        if let Some(page) = &op.page {
            os.write_all(&mut db, page).await?;
        }
        if op.read_back > 0 {
            os.seek(&mut db, 0, SeekMode::Set).await?;
            let mut data = Vec::new();
            let mut buf = vec![0u8; BENCH_BUF_SIZE];
            loop {
                let n = os.read(&mut db, &mut buf).await?;
                if n == 0 {
                    break;
                }
                data.extend_from_slice(&buf[..n]);
            }
            rows = sqlwork::decode_rows(&data).map_err(bad_message)?.len();
        }
    }
    os.close(db).await?;
    Ok(rows)
}
