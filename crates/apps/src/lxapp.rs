//! The benchmark applications on the Linux baseline.
//!
//! Same logic as [`crate::m3app`], bound to the Linux model: `fork` instead
//! of `VPE::run`, kernel pipes, tmpfs, and `sendfile` for tar/untar (the
//! paper notes BusyBox tar avoids per-block syscalls this way, §5.6).

use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::Cycles;
use m3_lx::LxProc;
use m3_platform::accel::fft_sw_cycles;
use m3_sim::keys;

use crate::fft;
use crate::m3app::{FIND_MATCH_CYCLES, TR_CYCLES_PER_BYTE};
use crate::sqlwork;
use crate::tarfmt;

/// cat+tr on Linux: fork a child that cats `input` into a pipe; the parent
/// applies `tr a b` and writes `output`.
///
/// # Errors
///
/// Propagates filesystem and pipe errors.
pub async fn cat_tr(p: &LxProc, input: &str, output: &str) -> Result<u64> {
    let (mut rx, mut tx) = p.pipe().await;
    let input_path = input.to_string();
    let child = p
        .fork("cat", move |c| async move {
            let Ok(mut file) = c.open(&input_path, false, false, false).await else {
                return 1;
            };
            loop {
                let data = match file.read(BENCH_BUF_SIZE).await {
                    Ok(d) if d.is_empty() => break,
                    Ok(d) => d,
                    Err(_) => return 1,
                };
                if tx.write(&c, &data).await.is_err() {
                    return 1;
                }
            }
            file.close().await;
            tx.close();
            0
        })
        .await;

    let mut out = p.open(output, true, true, true).await?;
    let mut total = 0u64;
    loop {
        let mut data = rx.read(p, BENCH_BUF_SIZE).await?;
        if data.is_empty() {
            break;
        }
        p.compute(Cycles::new(data.len() as u64 * TR_CYCLES_PER_BYTE))
            .await;
        for b in &mut data {
            if *b == b'a' {
                *b = b'b';
            }
        }
        out.write(&data).await?;
        total += data.len() as u64;
    }
    rx.close();
    out.close().await;
    let code = p.waitpid(child).await;
    if code != 0 {
        return Err(Error::new(Code::Internal).with_msg(format!("cat child exited {code}")));
    }
    Ok(total)
}

/// tar on Linux: headers via `write`, contents via `sendfile` (§5.6).
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn tar_create(p: &LxProc, dir: &str, archive: &str) -> Result<u64> {
    let mut out = p.open(archive, true, true, true).await?;
    let mut entries = p.read_dir(dir).await?;
    entries.sort();
    let mut total = 0u64;
    for (name, is_dir) in entries {
        let path = format!("{dir}/{name}");
        let st = p.stat(&path).await?;
        let tar_name = path.trim_start_matches('/').to_string();
        let header = tarfmt::header(&tar_name, st.size, is_dir);
        out.write(&header).await?;
        total += tarfmt::BLOCK as u64;
        if is_dir {
            continue;
        }
        let mut file = p.open(&path, false, false, false).await?;
        let copied = p.sendfile(&mut out, &mut file, st.size).await?;
        file.close().await;
        let pad = (tarfmt::padded_size(copied) - copied) as usize;
        if pad > 0 {
            out.write(&vec![0u8; pad]).await?;
        }
        total += tarfmt::padded_size(copied);
    }
    out.write(&[0u8; 2 * tarfmt::BLOCK]).await?;
    total += 2 * tarfmt::BLOCK as u64;
    out.close().await;
    Ok(total)
}

/// untar on Linux: contents leave the archive via `sendfile`.
///
/// # Errors
///
/// Propagates filesystem errors and archive format violations.
pub async fn tar_extract(p: &LxProc, archive: &str, dest: &str) -> Result<u64> {
    let mut ar = p.open(archive, false, false, false).await?;
    let mut total = 0u64;
    loop {
        let header = ar.read(tarfmt::BLOCK).await?;
        if header.len() < tarfmt::BLOCK {
            return Ok(total);
        }
        let entry =
            tarfmt::parse_header(&header).map_err(|e| Error::new(Code::BadMessage).with_msg(e))?;
        let Some(entry) = entry else {
            return Ok(total);
        };
        let out_path = format!("{dest}/{}", entry.name.split('/').next_back().unwrap());
        if entry.is_dir {
            p.mkdir(&out_path).await?;
            continue;
        }
        let mut out = p.open(&out_path, true, true, true).await?;
        let copied = p.sendfile(&mut out, &mut ar, entry.size).await?;
        if copied != entry.size {
            return Err(Error::new(Code::BadMessage).with_msg("truncated archive"));
        }
        out.close().await;
        total += entry.size;
        let pad = tarfmt::padded_size(entry.size) - entry.size;
        if pad > 0 {
            let pos = ar.pos();
            ar.seek(pos + pad).await;
        }
    }
}

/// find on Linux: `getdents` + `stat` per item ("stat is well optimized on
/// Linux", §5.6).
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn find(p: &LxProc, root: &str, pattern: &str) -> Result<Vec<String>> {
    let mut matches = Vec::new();
    let mut stack = vec![root.to_string()];
    while let Some(dir) = stack.pop() {
        let entries = p.read_dir(&dir).await?;
        for (name, is_dir) in entries {
            let path = if dir == "/" {
                format!("/{name}")
            } else {
                format!("{dir}/{name}")
            };
            let _st = p.stat(&path).await?;
            p.compute(Cycles::new(FIND_MATCH_CYCLES)).await;
            if name.contains(pattern) {
                matches.push(path.clone());
            }
            if is_dir {
                stack.push(path);
            }
        }
    }
    matches.sort();
    Ok(matches)
}

/// sqlite on Linux.
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn sqlite(p: &LxProc, db_path: &str) -> Result<usize> {
    let mut db = p.open(db_path, true, true, true).await?;
    let mut rows = 0;
    for op in sqlwork::workload() {
        p.compute(op.compute).await;
        if let Some(page) = &op.page {
            db.write(page).await?;
        }
        if op.read_back > 0 {
            db.seek(0).await;
            let mut data = Vec::new();
            loop {
                let chunk = db.read(BENCH_BUF_SIZE).await?;
                if chunk.is_empty() {
                    break;
                }
                data.extend_from_slice(&chunk);
            }
            rows = sqlwork::decode_rows(&data)
                .map_err(|e| Error::new(Code::BadMessage).with_msg(e))?
                .len();
        }
    }
    db.close().await;
    Ok(rows)
}

/// The Figure 7 pipeline on Linux: fork + exec the FFT child (software FFT
/// only — Linux cannot use the accelerator core), pipe the samples through,
/// write the spectrum to `out`. Requires `/bin/fft` to exist in the tmpfs.
///
/// # Errors
///
/// Propagates filesystem and pipe errors.
pub async fn fft_pipeline(p: &LxProc, out: &str) -> Result<()> {
    let (mut rx, mut tx) = p.pipe().await;
    let out_path = out.to_string();
    let child = p
        .fork("fft", move |c| async move {
            if c.exec_load("/bin/fft").await.is_err() {
                return 1;
            }
            let mut data = Vec::new();
            loop {
                match rx.read(&c, BENCH_BUF_SIZE).await {
                    Ok(d) if d.is_empty() => break,
                    Ok(d) => data.extend_from_slice(&d),
                    Err(_) => return 1,
                }
            }
            rx.close();
            let (mut re, mut im) = fft::unpack(&data);
            let core = c.machine().config().core.clone();
            let cost = fft_sw_cycles(re.len(), &core);
            c.compute(cost).await;
            c.machine().count(keys::FFT_CYCLES, cost.as_u64());
            fft::fft_in_place(&mut re, &mut im);
            let out_bytes = fft::pack(&re, &im);
            let Ok(mut f) = c.open(&out_path, true, true, true).await else {
                return 1;
            };
            if f.write(&out_bytes).await.is_err() {
                return 1;
            }
            f.close().await;
            0
        })
        .await;

    let (re, im) = fft::gen_samples(fft::FIG7_POINTS, 0x5eed);
    p.compute(Cycles::new(fft::FIG7_POINTS as u64 * 8)).await;
    let bytes = fft::pack(&re, &im);
    tx.write(p, &bytes).await?;
    tx.close();
    let code = p.waitpid(child).await;
    if code != 0 {
        return Err(Error::new(Code::Internal).with_msg(format!("fft child exited {code}")));
    }
    Ok(())
}
