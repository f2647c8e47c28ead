//! The `m3-trace` CLI: summarize, export, and diff native trace files.
//!
//! ```text
//! m3-trace summarize <trace>            # per-kind / per-PE aggregates
//! m3-trace export <trace> [-o <out>]    # Chrome trace_event JSON
//! m3-trace diff <a> <b>                 # localise the first divergence
//! ```
//!
//! Trace files are the native format the `figure` binary writes for
//! traced entries (`cargo run -p m3-bench --bin figure -- fig3 --trace-tsv
//! out.tsv`); `export`
//! produces JSON loadable in chrome://tracing or https://ui.perfetto.dev.
//! `diff` exits with status 1 when the traces differ, so it can gate CI.

use std::process::ExitCode;

use m3_trace::{chrome, diff, fmt, summary, Event};

const USAGE: &str = "usage: m3-trace <command>\n\
  summarize <trace>          print per-kind and per-PE aggregates\n\
  export <trace> [-o <out>]  write Chrome trace_event JSON (stdout default)\n\
  diff <a> <b>               compare two traces; exit 1 if they differ";

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    fmt::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [cmd, trace] if cmd == "summarize" => {
            print!("{}", summary::summarize(&load(trace)?));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, trace, rest @ ..] if cmd == "export" => {
            let json = chrome::export(&load(trace)?);
            match rest {
                [] => {
                    print!("{json}");
                    Ok(ExitCode::SUCCESS)
                }
                [flag, out] if flag == "-o" => {
                    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
                    eprintln!("wrote {out}");
                    Ok(ExitCode::SUCCESS)
                }
                _ => Err(USAGE.to_string()),
            }
        }
        [cmd, a, b] if cmd == "diff" => {
            let result = diff::diff(&load(a)?, &load(b)?);
            print!("{}", result.report);
            Ok(if result.identical {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
