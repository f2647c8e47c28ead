//! Host wall-clock perf harness over every registered figure.
//!
//! Runs every entry of `m3_bench::registry` in full, timing each one and
//! each of its scenarios
//! (one independent `Sim` per scenario), collects the executor gauges from
//! `m3_sim::gauges`, and writes `BENCH_<label>.json` at the repo root so the
//! host-performance trajectory is recorded alongside the cycle-accurate
//! results. Simulated cycle counts are untouched — this measures only how
//! fast the host produces them. The process's peak resident set (`VmHWM`,
//! Linux only) is printed on the total line and written as `peak_rss_mib`;
//! it is reported, never gated. So are each figure's `cpu_ms` (user plus
//! system time, in 10 ms ticks) and `minor_faults`, the change in
//! `/proc/self/stat` across the figure, worker threads included; both are
//! `null` off Linux. Each figure also records `allocs` and `alloc_bytes`:
//! the heap allocations the process made while it ran, counted by this
//! binary's global allocator (see [`counting`]).
//!
//! Flags:
//! - `--label <name>`: output file suffix (default `local`).
//! - `--sim-workers <N>`: pin the worker count (also settable via the
//!   `M3_SIM_WORKERS` environment variable). To measure what threading
//!   buys, compare a `--sim-workers 1` run with a default one, each in a
//!   process of its own.
//! - `--baseline <path>`: compare against an earlier `BENCH_*.json`. Fails
//!   if the suite total regressed more than 1.5x, or if any figure's
//!   deterministic work counters rose above its baseline row. A run with
//!   one worker also gates `allocs`; with more, thread start-up adds a
//!   few allocations per figure, so the count is reported only.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
// m3lint: allow(determinism): this binary's whole purpose is host wall-clock measurement
use std::time::Instant;

use m3_bench::cli;
use m3_bench::exec;
use m3_bench::registry::{self, Opts};
use m3_sim::gauges::{self, Gauges};

/// CI fails when the suite takes more than this multiple of the baseline.
const REGRESSION_LIMIT: f64 = 1.5;

/// This binary's global allocator: `System`, counting every allocation.
/// The workspace denies `unsafe_code`; implementing `GlobalAlloc` takes an
/// `unsafe impl`, and every method only forwards to `System`.
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    // `Relaxed`: statistics that publish no other data. Worker threads'
    // counts are read after their scope joined them.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    #[global_allocator]
    static ALLOC: Counting = Counting;

    fn note(bytes: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    // SAFETY: every method passes its caller's arguments to `System`
    // unchanged, so `System`'s guarantees are this allocator's; counting
    // touches only two atomics and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller upholds `alloc`'s contract for `layout`.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: `ptr` came from this allocator, which is `System`'s,
            // with `layout`; the caller upholds the rest of the contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, which is `System`'s,
            // with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) and the
    /// bytes they asked for, over some span of the process.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct Allocs {
        pub calls: u64,
        pub bytes: u64,
    }

    impl Allocs {
        /// The process's totals so far.
        pub fn now() -> Allocs {
            Allocs {
                calls: CALLS.load(Ordering::Relaxed),
                bytes: BYTES.load(Ordering::Relaxed),
            }
        }

        pub fn since(self, before: Allocs) -> Allocs {
            Allocs {
                calls: self.calls - before.calls,
                bytes: self.bytes - before.bytes,
            }
        }
    }
}

use counting::Allocs;

/// Every gauge `perf` records per figure, in JSON order. The first
/// [`GATED`] count simulated work, so they are the same on every host and
/// for every worker count; `--baseline` gates them per figure. The rest
/// are reported only: `timers_inlined` (timers whose task resumed in
/// place) is deterministic too, but a rise is an improvement.
fn counters(g: &Gauges) -> [(&'static str, u64); 7] {
    [
        ("tasks_spawned", g.tasks_spawned),
        ("task_polls", g.task_polls),
        ("timers_scheduled", g.timers_scheduled),
        ("timers_deduped", g.timers_deduped),
        ("timers_inlined", g.timers_inlined),
        ("peak_live_tasks", g.peak_live_tasks),
        ("peak_pending_timers", g.peak_pending_timers),
    ]
}

const GATED: usize = 3;

struct FigureRun {
    name: &'static str,
    wall_ms: f64,
    scenario_ms: Vec<f64>,
    gauges: Gauges,
    /// Host CPU time and minor faults the figure cost; `None` off Linux.
    usage: Option<Usage>,
    /// Heap allocations made while the figure ran.
    allocs: Allocs,
}

/// What the process has cost the host so far, from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Usage {
    /// User plus system CPU time.
    cpu_ms: f64,
    minor_faults: u64,
}

impl Usage {
    fn since(self, before: Usage) -> Usage {
        Usage {
            cpu_ms: self.cpu_ms - before.cpu_ms,
            minor_faults: self.minor_faults - before.minor_faults,
        }
    }
}

/// Clock ticks per second of the times in `/proc/<pid>/stat` (`USER_HZ`),
/// which Linux fixes at 100 for user space.
const TICKS_PER_S: u64 = 100;

/// The CPU time (`utime` + `stime`) and minor faults (`minflt`) of a
/// `/proc/<pid>/stat` line.
fn stat_usage(stat: &str) -> Option<Usage> {
    // The command name is parenthesised and may hold spaces or parentheses
    // itself; the fields after the last `)` start at field 3, the state.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    let ticks = field(14)? + field(15)?;
    Some(Usage {
        cpu_ms: (ticks * 1000 / TICKS_PER_S) as f64,
        minor_faults: field(10)?,
    })
}

/// This process's usage so far; `None` where `/proc/self/stat` does not
/// exist (off Linux).
fn process_usage() -> Option<Usage> {
    stat_usage(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn run_suite() -> (Vec<FigureRun>, f64) {
    let mut runs = Vec::new();
    let mut total_ms = 0.0;
    for entry in registry::FIGURES {
        exec::take_job_timings();
        gauges::reset_peaks();
        let before = gauges::snapshot();
        let usage_before = process_usage();
        let allocs_before = Allocs::now();
        // m3lint: allow(determinism): host wall clock; simulated cycles are produced elsewhere
        let start = Instant::now();
        // Only the time matters; the table is discarded.
        let _ = (entry.render)(Opts::default());
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let allocs = Allocs::now().since(allocs_before);
        let delta = gauges::snapshot().since(&before);
        let usage = process_usage()
            .zip(usage_before)
            .map(|(now, was)| now.since(was));
        total_ms += wall_ms;
        runs.push(FigureRun {
            name: entry.name,
            wall_ms,
            scenario_ms: exec::take_job_timings(),
            gauges: delta,
            usage,
            allocs,
        });
    }
    (runs, total_ms)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// MiB.
fn vm_hwm_mib(status: &str) -> Option<f64> {
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set in MiB; `None` where
/// `/proc/self/status` does not exist (off Linux).
fn peak_rss_mib() -> Option<f64> {
    vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn to_json(label: &str, runs: &[FigureRun], total_ms: f64, peak_rss: Option<f64>) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|run| {
            let scenarios: Vec<String> = run
                .scenario_ms
                .iter()
                .map(|ms| format!("{ms:.3}"))
                .collect();
            let mut fields = vec![
                format!("\"name\": \"{}\"", run.name),
                format!("\"wall_ms\": {:.3}", run.wall_ms),
                format!("\"scenario_ms\": [{}]", scenarios.join(", ")),
            ];
            fields.extend(counters(&run.gauges).map(|(key, n)| format!("\"{key}\": {n}")));
            let (cpu_ms, faults) = run.usage.map_or(("null".into(), "null".into()), |u| {
                (format!("{:.0}", u.cpu_ms), u.minor_faults.to_string())
            });
            fields.push(format!("\"cpu_ms\": {cpu_ms}"));
            fields.push(format!("\"minor_faults\": {faults}"));
            fields.push(format!("\"allocs\": {}", run.allocs.calls));
            fields.push(format!("\"alloc_bytes\": {}", run.allocs.bytes));
            format!("    {{\n      {}\n    }}", fields.join(",\n      "))
        })
        .collect();
    let peak_rss = peak_rss.map_or("null".to_string(), |mib| format!("{mib:.3}"));
    format!(
        "{{\n  \"label\": \"{label}\",\n  \"workers\": {},\n  \"total_ms\": {total_ms:.3},\n  \
         \"peak_rss_mib\": {peak_rss},\n  \"figures\": [\n{}\n  ]\n}}\n",
        exec::workers_for(usize::MAX),
        rows.join(",\n")
    )
}

/// The number after the first `"key":` in `json`. The JSON is
/// machine-written, so a full parser is not warranted.
fn extract(json: &str, key: &str) -> Option<f64> {
    let field = format!("\"{key}\":");
    let rest = json[json.find(&field)? + field.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares every figure's gated counters, and its `allocs` if
/// `gate_allocs`, with the baseline row of the same name. Returns the
/// figures the baseline has no row for, and one message per counter that
/// rose above its baseline value.
fn compare_counters(
    runs: &[FigureRun],
    base: &str,
    gate_allocs: bool,
) -> (Vec<&'static str>, Vec<String>) {
    // Each figure row starts at its name and runs up to the next one.
    let rows: Vec<(&str, &str)> = base
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|row| row.split_once('"'))
        .collect();
    let mut missing = Vec::new();
    let mut rose = Vec::new();
    for run in runs {
        let Some((_, row)) = rows.iter().find(|(name, _)| *name == run.name) else {
            missing.push(run.name);
            continue;
        };
        let allocs = gate_allocs.then_some(("allocs", run.allocs.calls));
        for (key, now) in counters(&run.gauges)[..GATED].iter().chain(&allocs) {
            match extract(row, key) {
                Some(was) if *now as f64 > was => {
                    rose.push(format!("{} {key} rose from {was} to {now}", run.name));
                }
                Some(_) => {}
                None => rose.push(format!("{} baseline row has no {key}", run.name)),
            }
        }
    }
    (missing, rose)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let mut label = String::from("local");
    let mut baseline: Option<String> = None;
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
            "--sim-workers" => match cli::sim_workers(&mut args) {
                Ok(n) => exec::set_sim_workers(Some(n)),
                Err(msg) => return usage(&msg),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    if let Err(msg) = exec::env_sim_workers() {
        return usage(&msg);
    }

    let (runs, total_ms) = run_suite();

    println!("== perf: host wall clock per registered figure ==");
    for run in &runs {
        let usage = run.usage.map_or("cpu n/a".to_string(), |u| {
            format!("cpu {:>5.0} ms  {:>7} faults", u.cpu_ms, u.minor_faults)
        });
        println!(
            "{:>10}  {:>10.1} ms  {:>3} scenarios  {:>8} tasks  {:>9} polls  {:>9} timers ({:>9} in place)  peak {} live / {} timers  {:>9} allocs  {usage}",
            run.name,
            run.wall_ms,
            run.scenario_ms.len(),
            run.gauges.tasks_spawned,
            run.gauges.task_polls,
            run.gauges.timers_scheduled,
            run.gauges.timers_inlined,
            run.gauges.peak_live_tasks,
            run.gauges.peak_pending_timers,
            run.allocs.calls,
        );
    }
    let peak_rss = peak_rss_mib();
    println!(
        "{:>10}  {total_ms:>10.1} ms  ({} workers)  peak RSS {}",
        "total",
        exec::workers_for(usize::MAX),
        peak_rss.map_or("n/a".to_string(), |mib| format!("{mib:.1} MiB")),
    );

    let path = repo_root().join(format!("BENCH_{label}.json"));
    if let Err(e) = std::fs::write(&path, to_json(&label, &runs, total_ms, peak_rss)) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());

    if let Some(path) = baseline {
        if let Err(msg) = gate(&runs, total_ms, &path) {
            eprintln!("perf: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Checks this run against the baseline at `path`: the suite total within
/// [`REGRESSION_LIMIT`] and no gated counter above its figure's row.
fn gate(runs: &[FigureRun], total_ms: f64, path: &str) -> Result<(), String> {
    let base =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base_ms =
        extract(&base, "total_ms").ok_or_else(|| format!("no total_ms in baseline {path}"))?;
    let ratio = total_ms / base_ms;
    println!("baseline {base_ms:.1} ms -> ratio {ratio:.2}x (limit {REGRESSION_LIMIT}x)");
    // Thread start-up allocates, so only a one-worker count repeats.
    let gate_allocs = exec::workers_for(usize::MAX) == 1;
    let (missing, mut failures) = compare_counters(runs, &base, gate_allocs);
    for name in missing {
        println!("{name} has no row in baseline {path}; its counters are not gated");
    }
    if ratio > REGRESSION_LIMIT {
        failures.push(format!("suite regressed {ratio:.2}x over baseline {path}"));
    }
    if failures.is_empty() {
        let gated = if gate_allocs {
            "counters and allocs"
        } else {
            "counters"
        };
        println!("{gated}: no figure above its baseline row");
        Ok(())
    } else {
        Err(failures.join("\nperf: "))
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf [--label <name>] [--baseline <json>] {}",
        cli::SIM_WORKERS_USAGE
    );
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &'static str, tasks_spawned: u64, task_polls: u64) -> FigureRun {
        FigureRun {
            name,
            wall_ms: 1.0,
            scenario_ms: Vec::new(),
            gauges: Gauges {
                tasks_spawned,
                task_polls,
                timers_scheduled: 7,
                timers_inlined: 5,
                ..Gauges::default()
            },
            usage: None,
            allocs: Allocs {
                calls: 100,
                bytes: 6400,
            },
        }
    }

    #[test]
    fn counters_gate_against_the_row_of_the_same_figure() {
        let runs = [run("fig3", 10, 20), run("fig4", 30, 40)];
        let base = to_json("base", &runs, 2.0, None);
        assert_eq!(extract(&base, "total_ms"), Some(2.0));
        assert_eq!(extract(&base, "timers_inlined"), Some(5.0));
        assert_eq!(compare_counters(&runs, &base, false), (vec![], vec![]));

        // More timers resumed in place is not a rise in work.
        let mut more_inlined = [run("fig3", 10, 20), run("fig4", 30, 40)];
        more_inlined[1].gauges.timers_inlined = 7;
        assert_eq!(
            compare_counters(&more_inlined, &base, false),
            (vec![], vec![])
        );

        // Lower work passes; one count above its own row fails, even
        // when another figure's row has a higher value.
        let now = [run("fig3", 9, 20), run("fig4", 30, 41)];
        assert_eq!(
            compare_counters(&now, &base, false),
            (
                vec![],
                vec!["fig4 task_polls rose from 40 to 41".to_string()]
            )
        );
        let now = [run("fig3", 11, 20)];
        assert_eq!(compare_counters(&now, &base, false).1.len(), 1);

        // A figure the baseline lacks is reported, not failed.
        let now = [run("fig3", 10, 20), run("fig12", 999, 999)];
        assert_eq!(
            compare_counters(&now, &base, false),
            (vec!["fig12"], vec![])
        );
    }

    #[test]
    fn allocs_gate_only_when_asked() {
        let runs = [run("fig3", 10, 20)];
        let base = to_json("base", &runs, 2.0, None);
        assert_eq!(extract(&base, "allocs"), Some(100.0));
        assert_eq!(extract(&base, "alloc_bytes"), Some(6400.0));
        let mut more = [run("fig3", 10, 20)];
        more[0].allocs.calls = 101;
        assert_eq!(compare_counters(&more, &base, false), (vec![], vec![]));
        assert_eq!(
            compare_counters(&more, &base, true),
            (vec![], vec!["fig3 allocs rose from 100 to 101".to_string()])
        );
        // Fewer allocations, or more bytes in as many, pass.
        let mut fewer = [run("fig3", 10, 20)];
        fewer[0].allocs = Allocs {
            calls: 99,
            bytes: 9999,
        };
        assert_eq!(compare_counters(&fewer, &base, true), (vec![], vec![]));
    }

    #[test]
    fn peak_rss_is_read_from_vm_hwm_and_written_to_the_json() {
        let status = "Name:\tperf\nVmPeak:\t  400000 kB\nVmHWM:\t   86016 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(84.0));
        assert_eq!(vm_hwm_mib("Name:\tperf\n"), None);
        let runs = [run("fig3", 10, 20)];
        let json = to_json("now", &runs, 2.0, Some(84.0));
        assert_eq!(extract(&json, "peak_rss_mib"), Some(84.0));
        assert_eq!(extract(&json, "total_ms"), Some(2.0));
        // Without a reading the field is null, and the counters still gate.
        let json = to_json("now", &runs, 2.0, None);
        assert!(json.contains("\"peak_rss_mib\": null"));
        assert_eq!(compare_counters(&runs, &json, false), (vec![], vec![]));
    }

    #[test]
    fn cpu_time_and_minor_faults_are_read_from_stat_and_written_to_the_json() {
        // pid, a command name with a space and a parenthesis, then fields 3
        // (state) through 15 (stime) and some of the rest.
        let stat = "4242 (perf (x) 1) R 1 4242 4242 0 -1 4194560 18474 3 0 0 70 54 0 0 20 0\n";
        let usage = stat_usage(stat);
        assert_eq!(
            usage,
            Some(Usage {
                cpu_ms: 1240.0,
                minor_faults: 18474
            })
        );
        assert_eq!(stat_usage("4242 (perf) R 1"), None);
        assert_eq!(stat_usage("no fields"), None);

        let mut runs = [run("fig3", 10, 20), run("fig4", 30, 40)];
        runs[0].usage = usage.map(|u| {
            u.since(Usage {
                cpu_ms: 1000.0,
                minor_faults: 18000,
            })
        });
        let json = to_json("now", &runs, 2.0, None);
        assert_eq!(extract(&json, "cpu_ms"), Some(240.0));
        assert_eq!(extract(&json, "minor_faults"), Some(474.0));
        // A figure without a reading has nulls, and the counters still gate.
        let fig4 = &json[json.find("\"fig4\"").expect("fig4 row")..];
        assert!(fig4.contains("\"cpu_ms\": null"));
        assert!(fig4.contains("\"minor_faults\": null"));
        assert_eq!(compare_counters(&runs, &json, false), (vec![], vec![]));
    }

    #[test]
    fn the_committed_baseline_stays_readable() {
        let base = std::fs::read_to_string(repo_root().join("BENCH_baseline.json"))
            .expect("BENCH_baseline.json");
        assert!(extract(&base, "total_ms").is_some());
        assert!(compare_counters(&[], &base, false).0.is_empty());
        // Allocations repeat only with one worker, and CI gates them.
        assert_eq!(extract(&base, "workers"), Some(1.0));
        let rows: Vec<&str> = base.split("\"name\": \"").skip(1).collect();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|row| extract(row, "allocs").is_some()));
    }
}
