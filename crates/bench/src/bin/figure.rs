//! Renders one registered figure: `figure <name> [options]`.
//!
//! `figure --list` prints every entry of `m3_bench::registry` with the
//! flags it takes. The table goes to stdout and is byte-identical for
//! every worker count; the host wall clock goes to stderr.
//!
//! - `--smoke`: the reduced sweep, where the entry has one.
//! - `--out <path>`: also write the table to a file.
//! - `--serial`, `--sim-workers N`: host parallelism (scenario threads and
//!   PDES island workers); `M3_BENCH_SERIAL` and `M3_SIM_WORKERS` work too.
//! - `--compare-serial`: render serially first, then in parallel; fail
//!   unless both tables are byte-identical, and report the speedup.
//! - `--trace`, `--trace-tsv`, `--metrics`, `--latency-tsv <path>`
//!   (traced entries): re-run one scenario under tracing and write the
//!   Chrome trace, native trace, metrics snapshot or latency table.
//! - entry parameters: fig10 `--pes N`, pdes_bench `--islands N`.

use std::process::ExitCode;
// m3lint: allow(determinism): host wall clock, printed to stderr only; tables carry no time
use std::time::Instant;

use m3_bench::cli::{self, Command, FigureArgs};
use m3_bench::exec;
use m3_bench::registry::Rendered;

fn main() -> ExitCode {
    match cli::parse_figure(std::env::args().skip(1)) {
        Ok(Command::Usage) => {
            print!("{}", cli::figure_usage());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{}: {msg}", args.entry.name);
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("figure: {msg}");
            eprint!("{}", cli::figure_usage());
            ExitCode::FAILURE
        }
    }
}

fn timed_render(args: &FigureArgs) -> (Rendered, f64) {
    // m3lint: allow(determinism): host wall clock, printed to stderr only
    let start = Instant::now();
    let out = (args.entry.render)(args.opts);
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn run(args: &FigureArgs) -> Result<(), String> {
    let name = args.entry.name;
    args.harness.apply();
    // The serial pass runs first, so the parallel pass claims the
    // longest scenarios first (exec's per-label cost record).
    let serial = if args.harness.compare_serial && !args.harness.serial {
        exec::set_serial(true);
        let pass = timed_render(args);
        exec::set_serial(false);
        Some(pass)
    } else {
        None
    };
    let (out, ms) = timed_render(args);
    print!("{}", out.table);
    match serial {
        Some((serial, serial_ms)) => {
            if serial.table != out.table {
                return Err("serial and parallel tables differ".to_string());
            }
            eprintln!(
                "{name}: serial {serial_ms:.1} ms -> parallel {ms:.1} ms, speedup {:.2}x \
                 (up to {} workers, tables identical)",
                serial_ms / ms,
                exec::workers_for(usize::MAX)
            );
        }
        None => eprintln!("{name}: {ms:.1} ms host wall clock"),
    }

    if let Some(path) = &args.out {
        write(path, &out.table)?;
        eprintln!("{name}: wrote table to {path}");
    }
    // The parser admits trace flags only for traced entries.
    let Some(traced) = args.entry.traced.filter(|_| args.wants_trace()) else {
        return Ok(());
    };
    let traced = traced();
    if let Some(note) = &traced.note {
        eprintln!("{name}: {note}");
    }
    let events = traced.events.len();
    if let Some(path) = &args.trace {
        write(path, &m3_trace::chrome::export(&traced.events))?;
        eprintln!("{name}: wrote Chrome trace ({events} events) to {path}");
    }
    if let Some(path) = &args.trace_tsv {
        write(path, &m3_trace::fmt::write_events(&traced.events))?;
        eprintln!("{name}: wrote native trace ({events} events) to {path}");
    }
    if let Some(path) = &args.metrics {
        write(path, &traced.metrics)?;
        eprintln!("{name}: wrote metrics snapshot to {path}");
    }
    if let Some(path) = &args.latency_tsv {
        let table = traced
            .latency_tsv
            .as_deref()
            .ok_or("this entry records no latency histogram")?;
        write(path, table)?;
        eprintln!("{name}: wrote latency table to {path}");
    }
    Ok(())
}

fn write(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}
