//! Figure 7: performance benefits of an FFT accelerator core (§5.8).
//!
//! A parent generates 32 KiB of random samples and writes them into a pipe;
//! a child — loaded from a different executable path, nothing else changes —
//! reads them, performs the FFT, and writes the result to a file. Three
//! configurations: Linux with the software FFT, M3 with the software FFT,
//! and M3 with the FFT accelerator core.

use std::cell::Cell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_apps::{lxapp, m3app};
use m3_fs::{mount_m3fs, SetupNode};
use m3_lx::{LxConfig, LxMachine};
use m3_platform::PeType;
use m3_sim::{keys, Sim};

use crate::exec::{self, Job};
use crate::report::{Bar, Figure, Group};

fn m3_bar(accel: bool) -> Bar {
    let sys = System::boot(SystemConfig {
        pes: 5,
        accel_pes: 1,
        fs_blocks: 8 * 1024,
        fs_setup: vec![
            SetupNode::dir("/bin"),
            SetupNode::file("/bin/fft", vec![0x7f; 16 * 1024]),
        ],
        ..SystemConfig::default()
    });
    m3app::register_fft_program(sys.registry());
    let out = Rc::new(Cell::new((0u64, 0u64, 0u64)));
    let out2 = out.clone();
    sys.run_program("fft-bench", move |env| async move {
        mount_m3fs(&env).await.unwrap();
        let stats = env.sim().stats();
        let t0 = env.sim().now().as_u64();
        let f0 = stats.get(keys::FFT_CYCLES);
        let x0 = stats.get(keys::DTU_XFER_CYCLES);
        let pe = if accel { Some(PeType::FftAccel) } else { None };
        m3app::fft_pipeline(&env, pe, "/result.bin").await.unwrap();
        out2.set((
            env.sim().now().as_u64() - t0,
            stats.get(keys::FFT_CYCLES) - f0,
            stats.get(keys::DTU_XFER_CYCLES) - x0,
        ));
        0
    });
    sys.run();
    let (total, fft, xfer) = out.get();
    let fft = fft.min(total);
    let xfer = xfer.min(total - fft);
    Bar::with_remainder(
        if accel { "M3+accel" } else { "M3" },
        total,
        vec![("FFT".to_string(), fft), ("Xfers".to_string(), xfer)],
        "OS",
    )
}

fn lx_bar() -> Bar {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    {
        let mut fs = machine.fs().borrow_mut();
        fs.mkdir("/bin").unwrap();
        let ino = fs.create("/bin/fft").unwrap();
        fs.write(ino, 0, &vec![0x7f; 16 * 1024]).unwrap();
    }
    let out = Rc::new(Cell::new((0u64, 0u64, 0u64)));
    let out2 = out.clone();
    machine.spawn_proc("fft-bench", move |p| async move {
        let sim = p.machine().sim().clone();
        let stats = p.machine().stats();
        let t0 = sim.now().as_u64();
        let f0 = stats.get(keys::FFT_CYCLES);
        let x0 = stats.get(keys::LX_XFER_CYCLES);
        lxapp::fft_pipeline(&p, "/result.bin").await.unwrap();
        out2.set((
            sim.now().as_u64() - t0,
            stats.get(keys::FFT_CYCLES) - f0,
            stats.get(keys::LX_XFER_CYCLES) - x0,
        ));
        0
    });
    sim.run();
    let (total, fft, xfer) = out.get();
    let fft = fft.min(total);
    let xfer = xfer.min(total - fft);
    Bar::with_remainder(
        "Linux",
        total,
        vec![("FFT".to_string(), fft), ("Xfers".to_string(), xfer)],
        "OS",
    )
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
