//! Figure 7: performance benefits of an FFT accelerator core (§5.8).
//!
//! A parent generates 32 KiB of random samples and writes them into a pipe;
//! a child — loaded from a different executable path, nothing else changes —
//! reads them, performs the FFT, and writes the result to a file. Three
//! configurations: Linux with the software FFT, M3 with the software FFT,
//! and M3 with the FFT accelerator core.

use m3::{System, SystemConfig};
use m3_apps::{lxapp, m3app};
use m3_fs::{mount_m3fs, SetupNode};
use m3_libos::Env;
use m3_lx::{LxConfig, LxProc};
use m3_platform::PeType;
use m3_sim::keys;

use crate::exec::{self, Job};
use crate::measure::{on_lx, on_m3, split, BenchOs};
use crate::report::{Bar, Figure, Group};

/// The FFT executable the child is loaded from, on both systems.
fn setup() -> Vec<SetupNode> {
    vec![
        SetupNode::dir("/bin"),
        SetupNode::file("/bin/fft", vec![0x7f; 16 * 1024]),
    ]
}

fn m3_bar(accel: bool) -> Bar {
    let sys = System::boot(SystemConfig {
        pes: 5,
        accel_pes: 1,
        fs_blocks: 8 * 1024,
        fs_setup: setup(),
        ..SystemConfig::default()
    });
    m3app::register_fft_program(sys.registry());
    let s = on_m3(&sys, "fft-bench", move |env| async move {
        mount_m3fs(&env).await.unwrap();
        let pe = accel.then_some(PeType::FftAccel);
        split(&env, keys::FFT_CYCLES, Env::XFER, async {
            m3app::fft_pipeline(&env, pe, "/result.bin").await.unwrap();
        })
        .await
    });
    s.bar(if accel { "M3+accel" } else { "M3" }, "FFT")
}

fn lx_bar() -> Bar {
    let s = on_lx(LxConfig::xtensa(), &setup(), "fft-bench", |p| async move {
        split(&p, keys::FFT_CYCLES, LxProc::XFER, async {
            lxapp::fft_pipeline(&p, "/result.bin").await.unwrap();
        })
        .await
    });
    s.bar("Linux", "FFT")
}

/// Runs the complete Figure 7 reproduction.
///
/// The three configurations are independent simulations measured
/// concurrently.
pub fn run() -> Figure {
    let jobs: Vec<Job<Bar>> = vec![
        Box::new(lx_bar),
        Box::new(|| m3_bar(false)),
        Box::new(|| m3_bar(true)),
    ];
    Figure {
        title: "Figure 7: FFT pipeline — Linux (software) vs M3 (software) vs M3 (accelerator)"
            .to_string(),
        groups: vec![Group {
            name: "fft-pipeline".to_string(),
            bars: exec::run_jobs(jobs),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_shape_matches_paper() {
        let fig = run();
        let lx = fig.bar("fft-pipeline", "Linux");
        let m3_sw = fig.bar("fft-pipeline", "M3");
        let m3_accel = fig.bar("fft-pipeline", "M3+accel");

        let fft_of = |b: &crate::report::Bar| b.parts.iter().find(|(n, _)| n == "FFT").unwrap().1;

        // §5.8: "the accelerator has a huge performance benefit over the
        // software version (about a factor of 30)".
        let ratio = fft_of(m3_sw) as f64 / fft_of(m3_accel) as f64;
        assert!((25.0..=35.0).contains(&ratio), "FFT speed-up {ratio}");

        // The M3 pipeline around the software FFT is cheaper than Linux's
        // (exec, pipe and file write have much more overhead on Linux).
        assert!(m3_sw.total < lx.total, "{} vs {}", m3_sw.total, lx.total);
        let lx_overhead = lx.total - fft_of(lx);
        let m3_overhead = m3_accel.total - fft_of(m3_accel);
        assert!(
            lx_overhead > 2 * m3_overhead,
            "M3's abstractions must lower the bar for using accelerators \
             (overhead {m3_overhead} vs {lx_overhead})"
        );

        // End-to-end, the accelerated pipeline beats everything.
        assert!(m3_accel.total < m3_sw.total / 2);
        assert!(m3_accel.total < lx.total / 3);
    }
}
