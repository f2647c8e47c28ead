//! The benchmark applications on the Linux baseline.
//!
//! tar, untar, find and sqlite are the [`crate::fsapps`] bodies on
//! [`LxProc`], whose `copy` is `sendfile` (§5.6). cat+tr and the FFT
//! pipeline fork a child and talk to it over a kernel pipe.

use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, Perm};
use m3_lx::LxProc;
use m3_platform::accel::fft_sw_cycles;
use m3_sim::keys;

use crate::fft;
pub use crate::fsapps::{find, sqlite, tar_create, tar_extract};
use crate::m3app::TR_CYCLES_PER_BYTE;

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
            let Ok(mut file) = c.open(&input_path, Perm::R, false, false).await else {
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

    let mut out = p.open(output, Perm::W, true, true).await?;
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
            let Ok(mut f) = c.open(&out_path, Perm::W, true, true).await else {
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
