//! Host wall-clock perf harness over every registered figure.
//!
//! Runs every entry of `m3_bench::registry` in full, timing each one and
//! each of its scenarios
//! (one independent `Sim` per scenario), collects the executor gauges from
//! `m3_sim::gauges`, and writes `BENCH_<label>.json` at the repo root so the
//! host-performance trajectory is recorded alongside the cycle-accurate
//! results. Simulated cycle counts are untouched — this measures only how
//! fast the host produces them.
//!
//! Flags:
//! - `--label <name>`: output file suffix (default `local`).
//! - `--serial`: run scenarios and PDES islands on one thread (same
//!   results, no overlap).
//! - `--sim-workers <N>`: pin the worker count (also settable via the
//!   `M3_SIM_WORKERS` environment variable).
//! - `--compare-serial`: run the suite serially first, then in parallel,
//!   and report per-figure and total speedups. The serial pass seeds the
//!   per-scenario cost registry, so the parallel pass claims the longest
//!   scenarios first. Both passes land in the JSON as serial + parallel
//!   rows.
//! - `--baseline <path>`: compare the suite total against an earlier
//!   `BENCH_*.json` and fail if it regressed more than 1.5x.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
// m3lint: allow(determinism): this binary's whole purpose is host wall-clock measurement
use std::time::Instant;

use m3_bench::cli::Harness;
use m3_bench::exec;
use m3_bench::registry::{self, Opts};
use m3_sim::gauges::{self, Gauges};

/// CI fails when the suite takes more than this multiple of the baseline.
const REGRESSION_LIMIT: f64 = 1.5;

struct FigureRun {
    name: &'static str,
    wall_ms: f64,
    scenario_ms: Vec<f64>,
    gauges: Gauges,
}

fn run_suite() -> (Vec<FigureRun>, f64) {
    let mut runs = Vec::new();
    let mut total_ms = 0.0;
    for entry in registry::FIGURES {
        exec::take_job_timings();
        gauges::reset_peaks();
        let before = gauges::snapshot();
        // m3lint: allow(determinism): host wall clock; simulated cycles are produced elsewhere
        let start = Instant::now();
        // Only the time matters; the table is discarded.
        let _ = (entry.render)(Opts::default());
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let delta = gauges::snapshot().since(&before);
        total_ms += wall_ms;
        runs.push(FigureRun {
            name: entry.name,
            wall_ms,
            scenario_ms: exec::take_job_timings(),
            gauges: delta,
        });
    }
    (runs, total_ms)
}

fn to_json(
    label: &str,
    serial: bool,
    runs: &[FigureRun],
    total_ms: f64,
    serial_pass: Option<(&[FigureRun], f64)>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    let _ = writeln!(out, "  \"serial\": {serial},");
    let _ = writeln!(out, "  \"workers\": {},", exec::workers_for(usize::MAX));
    let _ = writeln!(out, "  \"total_ms\": {total_ms:.3},");
    if let Some((_, serial_ms)) = serial_pass {
        let _ = writeln!(out, "  \"serial_total_ms\": {serial_ms:.3},");
        let _ = writeln!(out, "  \"speedup\": {:.3},", serial_ms / total_ms);
    }
    out.push_str("  \"figures\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", run.name);
        let _ = writeln!(out, "      \"wall_ms\": {:.3},", run.wall_ms);
        if let Some((serial_runs, _)) = serial_pass {
            let serial_ms = serial_runs[i].wall_ms;
            let _ = writeln!(out, "      \"serial_wall_ms\": {serial_ms:.3},");
            let _ = writeln!(out, "      \"speedup\": {:.3},", serial_ms / run.wall_ms);
        }
        let scenarios: Vec<String> = run
            .scenario_ms
            .iter()
            .map(|ms| format!("{ms:.3}"))
            .collect();
        let _ = writeln!(out, "      \"scenario_ms\": [{}],", scenarios.join(", "));
        let g = &run.gauges;
        let _ = writeln!(out, "      \"tasks_spawned\": {},", g.tasks_spawned);
        let _ = writeln!(out, "      \"task_polls\": {},", g.task_polls);
        let _ = writeln!(out, "      \"timers_scheduled\": {},", g.timers_scheduled);
        let _ = writeln!(out, "      \"timers_deduped\": {},", g.timers_deduped);
        let _ = writeln!(out, "      \"peak_live_tasks\": {},", g.peak_live_tasks);
        let _ = writeln!(
            out,
            "      \"peak_pending_timers\": {}",
            g.peak_pending_timers
        );
        out.push_str(if i + 1 < runs.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal extractor for the one numeric field the regression gate needs;
/// the JSON is machine-written, so a full parser is not warranted.
fn extract_total_ms(json: &str) -> Option<f64> {
    let rest = &json[json.find("\"total_ms\":")? + "\"total_ms\":".len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let mut label = String::from("local");
    let mut baseline: Option<String> = None;
    let mut harness = Harness::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => match args.next() {
                Some(l) => label = l,
                None => return usage("--label needs a name"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(p),
                None => return usage("--baseline needs a path"),
            },
            other => match harness.take(other, &mut args) {
                Ok(true) => {}
                Ok(false) => return usage(&format!("unknown argument {other}")),
                Err(msg) => return usage(&msg),
            },
        }
    }
    harness.apply();

    // The serial pass runs first so its per-scenario costs seed the
    // longest-first claim order of the parallel pass.
    let serial_pass = if harness.compare_serial && !harness.serial {
        exec::set_serial(true);
        let pass = run_suite();
        exec::set_serial(false);
        Some(pass)
    } else {
        None
    };

    let serial = harness.serial || exec::workers_for(usize::MAX) == 1;
    let (runs, total_ms) = run_suite();

    println!("== perf: host wall clock per registered figure ==");
    for (i, run) in runs.iter().enumerate() {
        println!(
            "{:>10}  {:>10.1} ms  {:>3} scenarios  {:>8} tasks  {:>9} polls  peak {} live / {} timers",
            run.name,
            run.wall_ms,
            run.scenario_ms.len(),
            run.gauges.tasks_spawned,
            run.gauges.task_polls,
            run.gauges.peak_live_tasks,
            run.gauges.peak_pending_timers,
        );
        if let Some((serial_runs, _)) = &serial_pass {
            println!(
                "            serial {:>7.1} ms -> speedup {:.2}x",
                serial_runs[i].wall_ms,
                serial_runs[i].wall_ms / run.wall_ms
            );
        }
    }
    println!("{:>10}  {total_ms:>10.1} ms", "total");
    if let Some((_, serial_ms)) = &serial_pass {
        println!(
            "{:>10}  {serial_ms:>10.1} ms -> parallel speedup {:.2}x ({} workers)",
            "serial",
            serial_ms / total_ms,
            exec::workers_for(usize::MAX)
        );
    }

    let path = repo_root().join(format!("BENCH_{label}.json"));
    let json = to_json(
        &label,
        serial,
        &runs,
        total_ms,
        serial_pass.as_ref().map(|(r, ms)| (r.as_slice(), *ms)),
    );
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());

    if let Some(base_path) = baseline {
        let base = match std::fs::read_to_string(&base_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf: cannot read baseline {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(base_ms) = extract_total_ms(&base) else {
            eprintln!("perf: no total_ms in baseline {base_path}");
            return ExitCode::FAILURE;
        };
        let ratio = total_ms / base_ms;
        println!("baseline {base_ms:.1} ms -> ratio {ratio:.2}x (limit {REGRESSION_LIMIT}x)");
        if ratio > REGRESSION_LIMIT {
            eprintln!("perf: suite regressed {ratio:.2}x over baseline {base_path}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf [--label <name>] [--baseline <json>] {}",
        Harness::USAGE
    );
    ExitCode::FAILURE
}
