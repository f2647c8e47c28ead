//! The benchmark applications on M3 (libm3 + m3fs + pipes + VPEs).

use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::Cycles;
use m3_fs::mount_m3fs;
use m3_kernel::protocol::PeRequest;
use m3_libos::pipe::{self, PipeDesc, PipeReader, PipeRole, PipeWriter};
use m3_libos::vfs::{self, OpenFlags, SeekMode};
use m3_libos::{Env, ProgramRegistry, Vpe};
use m3_platform::accel::{fft_accel_cycles, fft_sw_cycles};
use m3_platform::PeType;
use m3_sim::keys;

use crate::fft;
use crate::sqlwork;
use crate::tarfmt;

/// Cycles per byte of the `tr` substitution loop.
pub const TR_CYCLES_PER_BYTE: u64 = 2;

/// Cycles to match one directory entry name in `find`.
pub const FIND_MATCH_CYCLES: u64 = 50;

/// cat+tr (§5.6): a child VPE writes `input` into a pipe; the caller reads
/// the pipe, replaces every `a` with `b`, and writes the result to
/// `output`. Exercises application loading, pipes, and the filesystem.
///
/// # Errors
///
/// Propagates filesystem and pipe errors.
pub async fn cat_tr(env: &Env, input: &str, output: &str) -> Result<u64> {
    env.trace_mark("cat_tr");
    let child = Vpe::new(env, "cat", PeRequest::Same).await?;
    let (end, desc) = pipe::create(env, &child, PipeRole::Writer, pipe::DEF_BUF_SIZE).await?;
    let pipe::ParentEnd::Reader(mut reader) = end else {
        return Err(Error::new(Code::Internal).with_msg("expected reader end"));
    };

    let input_path = input.to_string();
    child
        .run(move |cenv| async move {
            // The child is `cat`: read the file, write it into the pipe.
            if mount_m3fs(&cenv).await.is_err() {
                return 1;
            }
            let Ok(mut file) = vfs::open(&cenv, &input_path, OpenFlags::R).await else {
                return 1;
            };
            let Ok(mut writer) = PipeWriter::attach(&cenv, desc).await else {
                return 1;
            };
            let mut buf = vec![0u8; BENCH_BUF_SIZE];
            loop {
                let n = match file.read(&mut buf).await {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(_) => return 1,
                };
                if writer.write(&buf[..n]).await.is_err() {
                    return 1;
                }
            }
            if writer.close().await.is_err() || file.close().await.is_err() {
                return 1;
            }
            0
        })
        .await?;

    // The parent is `tr a b > output`.
    let mut out = vfs::open(env, output, OpenFlags::CREATE.or(OpenFlags::TRUNC)).await?;
    let mut buf = vec![0u8; BENCH_BUF_SIZE];
    let mut total = 0u64;
    loop {
        let n = reader.read(&mut buf).await?;
        if n == 0 {
            break;
        }
        env.compute_app(Cycles::new(n as u64 * TR_CYCLES_PER_BYTE))
            .await;
        for b in &mut buf[..n] {
            if *b == b'a' {
                *b = b'b';
            }
        }
        let mut written = 0;
        while written < n {
            written += out.write(&buf[written..n]).await?;
        }
        total += n as u64;
    }
    out.close().await?;
    let code = child.wait().await?;
    if code != 0 {
        return Err(Error::new(Code::Internal).with_msg(format!("cat child exited {code}")));
    }
    Ok(total)
}

/// tar (§5.6): packs every file under `dir` into `archive`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn tar_create(env: &Env, dir: &str, archive: &str) -> Result<u64> {
    env.trace_mark("tar_create");
    let mut out = vfs::open(env, archive, OpenFlags::CREATE.or(OpenFlags::TRUNC)).await?;
    let mut entries = vfs::read_dir(env, dir).await?;
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let mut buf = vec![0u8; BENCH_BUF_SIZE];
    let mut total = 0u64;
    for entry in entries {
        let path = format!("{dir}/{}", entry.name);
        let info = vfs::stat(env, &path).await?;
        let tar_name = path.trim_start_matches('/').to_string();
        let header = tarfmt::header(&tar_name, info.size, entry.is_dir);
        out.write(&header).await?;
        total += tarfmt::BLOCK as u64;
        if entry.is_dir {
            continue;
        }
        let mut file = vfs::open(env, &path, OpenFlags::R).await?;
        let mut copied = 0u64;
        loop {
            let n = file.read(&mut buf).await?;
            if n == 0 {
                break;
            }
            let mut written = 0;
            while written < n {
                written += out.write(&buf[written..n]).await?;
            }
            copied += n as u64;
        }
        file.close().await?;
        let pad = (tarfmt::padded_size(copied) - copied) as usize;
        if pad > 0 {
            out.write(&vec![0u8; pad]).await?;
        }
        total += tarfmt::padded_size(copied);
    }
    out.write(&[0u8; 2 * tarfmt::BLOCK]).await?;
    total += 2 * tarfmt::BLOCK as u64;
    out.close().await?;
    Ok(total)
}

/// untar (§5.6): unpacks `archive` under `dest` (a directory that must
/// exist).
///
/// # Errors
///
/// Propagates filesystem errors and archive format violations
/// ([`Code::BadMessage`]).
pub async fn tar_extract(env: &Env, archive: &str, dest: &str) -> Result<u64> {
    env.trace_mark("tar_extract");
    let mut ar = vfs::open(env, archive, OpenFlags::R).await?;
    let mut header = vec![0u8; tarfmt::BLOCK];
    let mut buf = vec![0u8; BENCH_BUF_SIZE];
    let mut total = 0u64;
    loop {
        let mut got = 0;
        while got < tarfmt::BLOCK {
            let n = ar.read(&mut header[got..]).await?;
            if n == 0 {
                return Ok(total); // archive ended without zero blocks
            }
            got += n;
        }
        let entry =
            tarfmt::parse_header(&header).map_err(|e| Error::new(Code::BadMessage).with_msg(e))?;
        let Some(entry) = entry else {
            return Ok(total); // end-of-archive marker
        };
        let out_path = format!("{dest}/{}", entry.name.split('/').next_back().unwrap());
        if entry.is_dir {
            vfs::mkdir(env, &out_path).await?;
            continue;
        }
        let mut out = vfs::open(env, &out_path, OpenFlags::CREATE.or(OpenFlags::TRUNC)).await?;
        let mut remaining = entry.size;
        while remaining > 0 {
            let want = (remaining as usize).min(buf.len());
            let n = ar.read(&mut buf[..want]).await?;
            if n == 0 {
                return Err(Error::new(Code::BadMessage).with_msg("truncated archive"));
            }
            let mut written = 0;
            while written < n {
                written += out.write(&buf[written..n]).await?;
            }
            remaining -= n as u64;
        }
        out.close().await?;
        total += entry.size;
        // Skip the padding.
        let pad = (tarfmt::padded_size(entry.size) - entry.size) as i64;
        if pad > 0 {
            ar.seek(pad, SeekMode::Cur).await?;
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
pub async fn find(env: &Env, root: &str, pattern: &str) -> Result<Vec<String>> {
    env.trace_mark("find");
    let mut matches = Vec::new();
    let mut stack = vec![root.to_string()];
    while let Some(dir) = stack.pop() {
        let entries = vfs::read_dir(env, &dir).await?;
        for entry in entries {
            let path = if dir == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            let _info = vfs::stat(env, &path).await?;
            env.compute_app(Cycles::new(FIND_MATCH_CYCLES)).await;
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

/// sqlite (§5.6): creates a table, inserts 8 entries, selects them. Mostly
/// computation, with database page writes in between.
///
/// # Errors
///
/// Propagates filesystem errors.
pub async fn sqlite(env: &Env, db_path: &str) -> Result<usize> {
    env.trace_mark("sqlite");
    let mut db = vfs::open(
        env,
        db_path,
        OpenFlags::CREATE.or(OpenFlags::TRUNC).or(OpenFlags::R),
    )
    .await?;
    let mut rows = 0;
    for op in sqlwork::workload() {
        env.compute_app(op.compute).await;
        if let Some(page) = &op.page {
            let mut written = 0;
            while written < page.len() {
                written += db.write(&page[written..]).await?;
            }
        }
        if op.read_back > 0 {
            db.seek(0, SeekMode::Set).await?;
            let mut data = Vec::new();
            let mut buf = vec![0u8; BENCH_BUF_SIZE];
            loop {
                let n = db.read(&mut buf).await?;
                if n == 0 {
                    break;
                }
                data.extend_from_slice(&buf[..n]);
            }
            rows = sqlwork::decode_rows(&data)
                .map_err(|e| Error::new(Code::BadMessage).with_msg(e))?
                .len();
        }
    }
    db.close().await?;
    Ok(rows)
}

/// Registers the FFT child executable under `/bin/fft`. The same program
/// serves both the software and the accelerator runs — it prices the FFT by
/// the PE it finds itself on, exactly as the paper's child binary does
/// (§5.8: "the code for the parent is identical … it merely receives a
/// different path to the executable").
pub fn register_fft_program(reg: &ProgramRegistry) {
    reg.register("/bin/fft", |env, argv| async move {
        let Some(desc_str) = argv.first() else {
            return 1;
        };
        let Some(out_path) = argv.get(1) else {
            return 1;
        };
        let Ok(desc) = PipeDesc::decode(desc_str) else {
            return 1;
        };
        if mount_m3fs(&env).await.is_err() {
            return 1;
        }
        let mut reader = PipeReader::attach(&env, desc);
        let mut data = Vec::new();
        let mut buf = vec![0u8; BENCH_BUF_SIZE];
        loop {
            match reader.read(&mut buf).await {
                Ok(0) => break,
                Ok(n) => data.extend_from_slice(&buf[..n]),
                Err(_) => return 1,
            }
        }
        let (mut re, mut im) = fft::unpack(&data);
        let desc_pe = env.kernel().platform().desc(env.pe()).clone();
        let core = desc_pe.core_model();
        let cost = if desc_pe.is_fft_accel() {
            fft_accel_cycles(re.len(), core)
        } else {
            fft_sw_cycles(re.len(), core)
        };
        env.compute_app(cost).await;
        env.sim()
            .metrics()
            .add(env.pe(), keys::FFT_CYCLES, cost.as_u64());
        fft::fft_in_place(&mut re, &mut im);
        let out_bytes = fft::pack(&re, &im);
        if vfs::write_all(&env, out_path, &out_bytes).await.is_err() {
            return 1;
        }
        0
    });
}

/// The Figure 7 pipeline: the caller generates 32 KiB of random samples
/// and writes them into a pipe; a child VPE on `pe_kind` reads them,
/// performs the FFT, and writes the result to `out`.
///
/// # Errors
///
/// Propagates VPE, pipe, and filesystem errors.
pub async fn fft_pipeline(env: &Env, pe_kind: Option<PeType>, out: &str) -> Result<()> {
    let req = match pe_kind {
        Some(ty) => PeRequest::Type(ty),
        None => PeRequest::Same,
    };
    let child = Vpe::new(env, "fft", req).await?;
    let (end, desc) = pipe::create(env, &child, PipeRole::Reader, pipe::DEF_BUF_SIZE).await?;
    let pipe::ParentEnd::Writer(mut writer) = end else {
        return Err(Error::new(Code::Internal).with_msg("expected writer end"));
    };
    child
        .exec("/bin/fft", vec![desc.encode(), out.to_string()])
        .await?;

    let (re, im) = fft::gen_samples(fft::FIG7_POINTS, 0x5eed);
    // Generating a random number per point costs a few cycles each.
    env.compute_app(Cycles::new(fft::FIG7_POINTS as u64 * 8))
        .await;
    let bytes = fft::pack(&re, &im);
    writer.write(&bytes).await?;
    writer.close().await?;
    let code = child.wait().await?;
    if code != 0 {
        return Err(Error::new(Code::Internal).with_msg(format!("fft child exited {code}")));
    }
    Ok(())
}
