//! The one command line of the harness binaries.
//!
//! `figure <name> [options]` renders any [`registry`]
//! entry and `perf` times all of them. Both parse the host-parallelism
//! flags through [`Harness`], so `--serial`, `--sim-workers N` and
//! `--compare-serial` mean the same everywhere.

use std::fmt::Write as _;

use crate::exec;
use crate::registry::{self, Entry, Opts};

/// The host-parallelism flags every harness binary takes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Harness {
    /// `--serial`: run every scenario and island on the calling thread.
    pub serial: bool,
    /// `--sim-workers N`: pin the worker-thread count.
    pub sim_workers: Option<usize>,
    /// `--compare-serial`: run serially first, then in parallel, and
    /// report the speedup.
    pub compare_serial: bool,
}

impl Harness {
    /// The usage text of the harness flags.
    pub const USAGE: &'static str = "[--serial] [--sim-workers N] [--compare-serial]";

    /// Consumes `flag`, plus its value from `rest`, if it is a harness flag.
    /// Returns `Ok(false)` for any other flag.
    ///
    /// # Errors
    ///
    /// A value that is missing or not a positive count.
    pub fn take(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--serial" => self.serial = true,
            "--sim-workers" => self.sim_workers = Some(count(flag, rest, 1)? as usize),
            "--compare-serial" => self.compare_serial = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Installs the flags in [`exec`].
    pub fn apply(&self) {
        exec::set_serial(self.serial);
        exec::set_sim_workers(self.sim_workers);
    }
}

/// The value following `flag`.
fn value(flag: &str, rest: &mut impl Iterator<Item = String>) -> Result<String, String> {
    rest.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The count following `flag`, at least `min`.
fn count(flag: &str, rest: &mut impl Iterator<Item = String>, min: u32) -> Result<u32, String> {
    value(flag, rest)?
        .parse()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("{flag} needs a count >= {min}"))
}

/// A parsed `figure` invocation.
#[derive(Debug)]
pub struct FigureArgs {
    /// The entry to render.
    pub entry: &'static Entry,
    /// Sweep size and the entry's own parameter.
    pub opts: Opts,
    /// Host-parallelism flags.
    pub harness: Harness,
    /// `--out <path>`: also write the table to a file.
    pub out: Option<String>,
    /// `--trace <path>`: Chrome `trace_event` JSON of the traced re-run.
    pub trace: Option<String>,
    /// `--trace-tsv <path>`: the same trace in the native text format.
    pub trace_tsv: Option<String>,
    /// `--metrics <path>`: per-PE metrics snapshot of the traced re-run.
    pub metrics: Option<String>,
    /// `--latency-tsv <path>`: latency-histogram table of the traced re-run.
    pub latency_tsv: Option<String>,
}

impl FigureArgs {
    /// Whether any flag asks for the traced re-run.
    pub fn wants_trace(&self) -> bool {
        self.trace.is_some()
            || self.trace_tsv.is_some()
            || self.metrics.is_some()
            || self.latency_tsv.is_some()
    }
}

/// What the `figure` binary was asked to do.
#[derive(Debug)]
pub enum Command {
    /// `--list`, `--help` or no arguments: print the usage.
    Usage,
    /// Render one entry.
    Run(Box<FigureArgs>),
}

/// Parses the `figure` arguments (without the program name).
///
/// # Errors
///
/// An unknown figure, an unknown flag or a flag the figure does not take,
/// and a missing or malformed value.
pub fn parse_figure(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut rest = args.into_iter();
    let name = match rest.next() {
        None => return Ok(Command::Usage),
        Some(a) if matches!(a.as_str(), "--list" | "--help" | "-h") => return Ok(Command::Usage),
        Some(a) => a,
    };
    let entry = registry::find(&name).ok_or_else(|| format!("no figure named {name}"))?;
    let mut parsed = FigureArgs {
        entry,
        opts: Opts::default(),
        harness: Harness::default(),
        out: None,
        trace: None,
        trace_tsv: None,
        metrics: None,
        latency_tsv: None,
    };
    let traced = entry.traced.is_some();
    while let Some(flag) = rest.next() {
        if parsed.harness.take(&flag, &mut rest)? {
            continue;
        }
        match flag.as_str() {
            "--smoke" => parsed.opts.smoke = true,
            "--out" => parsed.out = Some(value(&flag, &mut rest)?),
            "--trace" if traced => parsed.trace = Some(value(&flag, &mut rest)?),
            "--trace-tsv" if traced => parsed.trace_tsv = Some(value(&flag, &mut rest)?),
            "--metrics" if traced => parsed.metrics = Some(value(&flag, &mut rest)?),
            "--latency-tsv" if traced => parsed.latency_tsv = Some(value(&flag, &mut rest)?),
            f if entry.param.as_ref().is_some_and(|p| p.flag == f) => {
                let min = entry.param.as_ref().map_or(1, |p| p.min);
                parsed.opts.param = Some(count(f, &mut rest, min)?);
            }
            f => return Err(format!("{name} takes no flag {f}")),
        }
    }
    Ok(Command::Run(Box::new(parsed)))
}

/// The `figure` usage text, listing every registered entry and its flags.
pub fn figure_usage() -> String {
    let mut out = format!(
        "usage: figure <name> [--smoke] [--out <path>] {}\n       figure --list\n\
         entries marked * also take [--trace <json>] [--trace-tsv <tsv>] [--metrics <txt>] [--latency-tsv <tsv>]\n\
         figures:\n",
        Harness::USAGE
    );
    for e in registry::FIGURES {
        let mark = if e.traced.is_some() { '*' } else { ' ' };
        let _ = writeln!(out, "  {:<10} {mark} {}", e.name, e.about);
        if let Some(p) = &e.param {
            let _ = writeln!(out, "  {:<12} {} N (>= {}): {}", "", p.flag, p.min, p.help);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_figure(args.iter().map(|s| s.to_string()))
    }

    fn run(args: &[&str]) -> FigureArgs {
        match parse(args) {
            Ok(Command::Run(a)) => *a,
            other => panic!("{args:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn harness_flags_parse_for_every_figure() {
        for e in registry::FIGURES {
            let a = run(&[e.name, "--serial", "--sim-workers", "3", "--compare-serial"]);
            assert_eq!(a.entry.name, e.name);
            assert_eq!(
                a.harness,
                Harness {
                    serial: true,
                    sim_workers: Some(3),
                    compare_serial: true
                }
            );
            assert_eq!(a.opts, Opts::default());
        }
    }

    #[test]
    fn smoke_out_and_entry_params() {
        let a = run(&["fig10", "--smoke", "--pes", "256", "--out", "t.txt"]);
        assert_eq!(
            a.opts,
            Opts {
                smoke: true,
                param: Some(256)
            }
        );
        assert_eq!(a.out.as_deref(), Some("t.txt"));
        assert_eq!(run(&["pdes_bench", "--islands", "8"]).opts.param, Some(8));
        assert!(parse(&["fig10", "--pes", "8"])
            .unwrap_err()
            .contains(">= 16"));
        assert!(parse(&["pdes_bench", "--islands", "1"]).is_err());
        assert!(parse(&["fig3", "--pes", "64"])
            .unwrap_err()
            .contains("fig3 takes no flag --pes"));
    }

    #[test]
    fn trace_flags_only_for_traced_entries() {
        let a = run(&["fig9", "--trace", "t.json", "--latency-tsv", "l.tsv"]);
        assert!(a.wants_trace());
        assert_eq!(a.latency_tsv.as_deref(), Some("l.tsv"));
        assert!(!run(&["fig3"]).wants_trace());
        assert!(parse(&["fig4", "--trace", "t.json"]).is_err());
        assert!(parse(&["fig3", "--metrics"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn usage_and_errors() {
        assert!(matches!(parse(&[]), Ok(Command::Usage)));
        assert!(matches!(parse(&["--list"]), Ok(Command::Usage)));
        assert!(parse(&["fig12"])
            .unwrap_err()
            .contains("no figure named fig12"));
        assert!(parse(&["fig3", "--sim-workers", "0"]).is_err());
        assert!(parse(&["fig3", "--bogus"]).is_err());
        let usage = figure_usage();
        for e in registry::FIGURES {
            assert!(usage.contains(e.name), "usage lacks {}", e.name);
        }
    }
}
