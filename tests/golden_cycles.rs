//! Golden cycle-count snapshots: one representative scenario from each of
//! fig3–fig11, asserted against *exact* simulated totals. The bar figures
//! (fig3, fig5, fig7) and the §5.2 cross-check are pinned in full: every
//! part of every bar, every cell of the table.
//!
//! The figure shape tests check ratios and trends; this suite pins the raw
//! numbers, so any change to simulated semantics — however plausible its
//! relative results — shows up as a diff. Host-side optimisation work
//! (threading, allocation, data-structure swaps) must keep every one of
//! these bit-identical.

use m3_bench::fig5::BenchKind;
use m3_bench::Figure;

/// The M3, Lx and Lx-$ bars of one group, each as (total, parts).
type Bars<const N: usize> = [(u64, [u64; N]); 3];

/// Asserts a bar's total and every part, in render order.
fn assert_bar(fig: &Figure, group: &str, label: &str, total: u64, parts: &[u64]) {
    let bar = fig.bar(group, label);
    let got: Vec<u64> = bar.parts.iter().map(|(_, v)| *v).collect();
    assert_eq!(
        (bar.total, got.as_slice()),
        (total, parts),
        "{group} on {label}"
    );
}

#[test]
fn fig3_syscall_and_file_read_totals() {
    // Every bar of Figure 3 as (total, [Xfers, Other]).
    let fig = m3_bench::fig3::run();
    let rows: [(&str, Bars<2>); 4] = [
        (
            "syscall",
            [(199, [29, 170]), (410, [0, 410]), (410, [0, 410])],
        ),
        (
            "read",
            [
                (366_158, [280_576, 85_582]),
                (3_437_580, [2_755_840, 681_740]),
                (1_730_316, [1_048_576, 681_740]),
            ],
        ),
        (
            "write",
            [
                (406_920, [275_456, 131_464]),
                (4_485_786, [3_804_416, 681_370]),
                (2_778_522, [2_097_152, 681_370]),
            ],
        ),
        (
            "pipe",
            [
                (315_186, [277_504, 37_682]),
                (2_924_200, [2_150_400, 773_800]),
                (2_870_952, [2_097_152, 773_800]),
            ],
        ),
    ];
    for (op, bars) in rows {
        for (os, (total, parts)) in ["M3", "Lx", "Lx-$"].into_iter().zip(bars) {
            assert_bar(&fig, op, os, total, &parts);
        }
    }
}

#[test]
fn fig4_fragmentation_sweep_endpoints() {
    let s = m3_bench::fig4::run();
    assert_eq!(s.value(16, "read (cycles)"), 562_246.0);
    assert_eq!(s.value(256, "read (cycles)"), 376_966.0);
    assert_eq!(s.value(16, "write (cycles)"), 1_072_200.0);
    assert_eq!(s.value(256, "write (cycles)"), 406_920.0);
}

#[test]
fn fig5_totals() {
    // Every bar of Figure 5 as (total, [App, Xfers, OS]): a change to any
    // workload body or to either OS binding moves a row here.
    let fig = m3_bench::fig5::run();
    let rows: [(&str, Bars<3>); 5] = [
        (
            "cat+tr",
            [
                (174_682, [131_072, 38_094, 5_516]),
                (576_280, [131_072, 333_568, 111_640]),
                (406_552, [131_072, 163_840, 111_640]),
            ],
        ),
        (
            "tar",
            [
                (478_170, [0, 326_689, 151_481]),
                (3_640_578, [0, 3_235_548, 405_030]),
                (1_637_928, [0, 1_232_898, 405_030]),
            ],
        ),
        (
            "untar",
            [
                (484_026, [0, 326_364, 157_662]),
                (3_632_683, [0, 3_236_443, 396_240]),
                (1_628_369, [0, 1_232_129, 396_240]),
            ],
        ),
        (
            "find",
            [
                (52_619, [2_000, 0, 50_619]),
                (48_620, [2_000, 0, 46_620]),
                (48_620, [2_000, 0, 46_620]),
            ],
        ),
        (
            "sqlite",
            [
                (4_826_414, [4_810_000, 2_646, 13_768]),
                (4_857_172, [4_810_000, 28_672, 18_500]),
                (4_843_860, [4_810_000, 15_360, 18_500]),
            ],
        ),
    ];
    for (bench, bars) in rows {
        for (os, (total, parts)) in ["M3", "Lx", "Lx-$"].into_iter().zip(bars) {
            assert_bar(&fig, bench, os, total, &parts);
        }
    }
}

#[test]
fn fig6_find_scaling_average() {
    // Raw (un-normalized) per-instance averages, so display rounding can't
    // mask a semantic change.
    assert_eq!(
        m3_bench::fig6::avg_instance_time(BenchKind::Find, 1),
        52_619.0
    );
    assert_eq!(
        m3_bench::fig6::avg_instance_time(BenchKind::Find, 4),
        53_497.5
    );
}

#[test]
fn fig7_fft_pipeline_totals() {
    // Every bar of Figure 7 as (total, [FFT, Xfers, OS]).
    let fig = m3_bench::fig7::run();
    let bars: [(&str, u64, [u64; 3]); 3] = [
        ("Linux", 1_532_358, [1_228_800, 153_600, 149_958]),
        ("M3", 1_298_537, [1_228_800, 16_805, 52_932]),
        ("M3+accel", 110_895, [40_960, 16_895, 53_040]),
    ];
    for (label, total, parts) in bars {
        assert_bar(&fig, "fft-pipeline", label, total, &parts);
    }
}

#[test]
fn arch_cross_check_cells() {
    // All nine §5.2 cells: rows are Linux on Xtensa (0), Linux on ARM (1)
    // and M3 (2); columns are the null syscall, 2 MiB create and 2 MiB copy.
    let s = m3_bench::arch::run();
    let rows: [[u64; 3]; 3] = [
        [410, 4_485_786, 7_920_448],
        [320, 1_992_602, 3_461_184],
        [198, 406_920, 773_722],
    ];
    for (row, cells) in rows.into_iter().enumerate() {
        for (col, want) in s.columns.iter().zip(cells) {
            assert_eq!(s.value(row as u64, col), want as f64, "row {row}, {col}");
        }
    }
}

#[test]
fn fig8_two_x_overcommit_totals() {
    // 8 clients time-multiplexed on 4 PEs: the whole m3-sched machinery —
    // overcommit admission, DTU state save/restore through the DTU, parked
    // receives, run-queue rotation — behind one exact makespan. Any change
    // to switch charging or scheduling order moves this number.
    let run = m3_bench::fig8::overcommit_run(2, true);
    assert_eq!(run.total, 1_104_081);
    assert_eq!(run.ctx_switches, 114);
    assert_eq!(run.lat_max, 159_632);
    assert_eq!(run.reads, 64);
}

#[test]
fn fig8_four_x_dirty_tracked_totals() {
    // The same 4x-overcommit scenario with dirty-tracked switches: every
    // save consults the DTU dirty bitmap and moves only the SPM pages
    // written since the last save. 259 switches transfer 198 dirty pages
    // total (vs 16 per switch for the full image) — cutting the makespan
    // to roughly a seventh of the full-image 4x run. Any change to the
    // dirty plumbing (touch sites, save/restore clearing, per-page
    // charging) moves these numbers.
    let run = m3_bench::fig8::dirty_overcommit_run(4);
    assert_eq!(run.total, 337_699);
    assert_eq!(run.ctx_switches, 259);
    assert_eq!(run.dirty_pages_saved, 198);
    assert_eq!(run.lat_max, 146_833);
    assert_eq!(run.reads, 128);
}

#[test]
fn fig11_mid_pressure_paging_totals() {
    // One fig11 sweep point pinned exactly: 512 seeded random accesses
    // over a 32-page working set with only 8 resident frames. Behind the
    // numbers sit the whole m3-vm stack — fault walks, clean-first
    // eviction, swap-slot reuse, page-in copies, and the per-§ cost
    // charges. 380 hard faults, 186 dirty write-backs (761_856 bytes).
    let run = m3_bench::fig11::paging_run(2);
    assert_eq!(run.resident_pages, 8);
    assert_eq!(run.total, 618_762);
    assert_eq!(run.faults, 380);
    assert_eq!(run.writeback_bytes, 761_856);
}

#[test]
fn fig9_serving_point_totals() {
    // One mid-sweep load point on each OS path: 64 closed-loop clients,
    // 4 requests each, spread over 4 driver PEs on M3 and one time-shared
    // CPU on Linux. Behind these numbers sit the whole serving stack —
    // seeded per-client arrival schedules, session setup, DTU request
    // messages (pipes on lx), m3fs page I/O (tmpfs on lx), and the
    // HDR-histogram quantile walk. Any change to protocol costs, scheduling
    // order, or histogram bucketing moves one of them.
    let plan = m3_bench::fig9::plan(64);
    let m3 = m3_serve::run_m3(&plan);
    assert_eq!(m3.requests, 256);
    assert_eq!(m3.total.as_u64(), 8_004_395);
    assert_eq!(m3.quantile(0.50), 2_460);
    assert_eq!(m3.quantile(0.99), 17_023);
    let lx = m3_serve::run_lx(&plan);
    assert_eq!(lx.requests, 256);
    assert_eq!(lx.total.as_u64(), 8_040_809);
    assert_eq!(lx.quantile(0.99), 58_623);
}

#[test]
fn fig3_read_under_the_golden_fault_plan() {
    // The same scenario as `fig3_syscall_and_file_read_totals`, perturbed by
    // the fixed, lossless fault schedule in `fig3::golden_fault_plan`: +64
    // cycles on each of the 512 app↔DRAM data transfers, one PE stall, one
    // healing partition. The faulted total is just as pinned as the clean
    // one — fault injection is part of the deterministic surface.
    let (total, events) = m3_bench::fig3::faulted_file_read(m3_bench::fig3::golden_fault_plan());
    assert_eq!(total, 413_387);
    let faults = events
        .iter()
        .filter(|e| matches!(e.kind, m3_trace::EventKind::FaultInject { .. }))
        .count();
    assert_eq!(faults, 514, "512 link delays + 1 stall + 1 partition");
}

#[test]
fn fig10_two_shard_sweep_point_golden_pin() {
    // The sharded-multikernel scenario pinned exactly: 64 PEs in 2 kernel
    // shards, one PDES island each, 4 placers + 1 spiller per shard. The
    // spiller on shard 0 has no local accelerator, so its 4 rounds cross
    // the ktk gate (xplace=4). Any change to the ktk wire format, the
    // placement policy, the kernel-op accounting, or the island lookahead
    // moves these numbers.
    let p = m3_bench::fig10::run_point(64, 2);
    assert_eq!(p.ops, 83 + 91, "kernel-op total drifted");
    assert_eq!(p.serve, 72, "admission count drifted");
    assert_eq!(p.xplace, 4, "cross-shard placement count drifted");
    assert_eq!(p.end.as_u64(), 14_806, "end time drifted");
    assert_eq!(
        p.digest,
        "i0:ops=83:serve=36:xplace=4:end=14806;\
         i1:ops=91:serve=36:xplace=0:end=13247\
         |windows=142|events=14|end=14806",
        "fig10 golden digest drifted"
    );
}
