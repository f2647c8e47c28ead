//! The `m3bench` command line.
//!
//! ```text
//! m3bench run --workload W [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
//! m3bench all [--seed S] [--seconds N] [--smoke]
//! ```
//!
//! `run` prints one `workload metric value unit` line per metric and, as
//! its last line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace` the per-layer ones.
//! `all` runs every workload untraced, each in its own child process (so
//! peak memory and the executor gauges are per workload), and exits
//! non-zero unless every output check passed.

use std::process::{Command, ExitCode};

use m3_benchmark::{measure, trace, Outcome, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: m3bench run --workload W [--seed S] [--seconds N] [--trace [0|1]] [--smoke]\n       m3bench all [--seed S] [--seconds N] [--smoke]";

/// Seconds a run measures when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = number(&value()?)?,
            "--seconds" => out.seconds = number(&value()?)?,
            "--smoke" => out.smoke = true,
            "--trace" => {
                out.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn number(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("m3bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cmd.as_str(), args.workload) {
        ("run", Some(w)) => {
            let out = if args.trace {
                trace(w, args.seed, args.smoke)
            } else {
                measure(w, args.seed, args.seconds, args.smoke)
            };
            print_outcome(w, &out);
            ExitCode::SUCCESS
        }
        ("all", None) => all(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn print_outcome(w: Workload, out: &Outcome) {
    for m in &out.metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for m in &out.ungated {
        println!(
            "{} {} {} {} (of {} ops; not in BENCHMARK.json)",
            w.name(),
            m.name,
            m.value,
            m.unit,
            out.attempted
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// The host the numbers were measured on.
fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu={cpu}")
}

fn all(args: &Args) -> ExitCode {
    println!(
        "# m3bench all seed={} seconds={} {}",
        args.seed,
        args.seconds,
        host()
    );
    let exe = std::env::current_exe().expect("path of the running m3bench");
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().expect("run an m3bench child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let verdict = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        println!("{} result {verdict}", w.name());
        if !output.status.success() || !verdict.starts_with("{\"correct\": true,") {
            failed.push(w.name());
        }
    }
    if failed.is_empty() {
        println!("# every output check passed");
        ExitCode::SUCCESS
    } else {
        println!("# failed: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}
