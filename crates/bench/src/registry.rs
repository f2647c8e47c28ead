//! The figure registry: every figure, sweep and benchmark of this crate,
//! by name.
//!
//! The `figure` binary, the `perf` harness, the `figures` bench and the
//! worker-invariance suite (`tests/pdes.rs`) all iterate [`FIGURES`]. An
//! entry added here is at once runnable from the command line, timed,
//! printed and checked for worker-count invariance; there is no other way
//! to run a figure from the command line.

use m3_sim::Event;

use crate::{ablation, arch, exec, fig10, fig11, fig3, fig4, fig5, fig6, fig7, fig8, fig9};
use crate::{pdes_bench, Figure, Series};

/// Which sweep to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Opts {
    /// The reduced sweep of the CI smoke jobs and the invariance suite.
    /// Entries without one run in full.
    pub smoke: bool,
    /// The value of the entry's [`Param`] flag, if one was given.
    pub param: Option<u32>,
}

/// A numeric option of one entry only, such as fig10's `--pes N`.
#[derive(Debug)]
pub struct Param {
    /// The flag, e.g. `"--pes"`.
    pub flag: &'static str,
    /// The smallest accepted value.
    pub min: u32,
    /// One line of help.
    pub help: &'static str,
}

/// A rendered entry.
#[derive(Debug)]
pub struct Rendered {
    /// The printed table. It carries no host wall clock, so it is
    /// byte-identical for every worker count.
    pub table: String,
    /// Aggregate simulated cycles (or values) behind the table: a one-number
    /// checksum the `figures` bench prints after each table.
    pub cycles: u64,
}

impl From<Figure> for Rendered {
    fn from(fig: Figure) -> Rendered {
        Rendered {
            table: fig.render(),
            cycles: fig.total_cycles(),
        }
    }
}

impl From<Series> for Rendered {
    fn from(series: Series) -> Rendered {
        Rendered {
            table: series.render(),
            cycles: series.value_sum(),
        }
    }
}

/// The artifacts of an entry's traced re-run of one scenario.
pub struct Traced {
    /// A one-line summary of the traced run, if the entry reports one.
    pub note: Option<String>,
    /// The recorded events (`--trace`, `--trace-tsv`).
    pub events: Vec<Event>,
    /// The rendered per-PE metrics snapshot (`--metrics`).
    pub metrics: String,
    /// The per-PE latency-histogram table (`--latency-tsv`), if recorded.
    pub latency_tsv: Option<String>,
}

/// One registered figure.
#[derive(Debug)]
pub struct Entry {
    /// The command-line name, e.g. `"fig3"`.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// The entry's own numeric option, if any.
    pub param: Option<Param>,
    /// Runs the sweep and renders it.
    pub render: fn(Opts) -> Rendered,
    /// Re-runs one scenario under tracing, for the artifact flags.
    pub traced: Option<fn() -> Traced>,
}

/// The fig9 client count re-run under tracing.
const FIG9_TRACED_CLIENTS: u64 = 256;

/// Every registered entry, in print order.
pub static FIGURES: &[Entry] = &[
    Entry {
        name: "fig3",
        about: "Figure 3: null syscall and 2 MiB read/write/pipe, M3 vs Linux",
        param: None,
        render: |_| fig3::run().into(),
        traced: Some(|| {
            let (events, metrics) = fig3::traced_file_read();
            Traced {
                note: None,
                events,
                metrics,
                latency_tsv: None,
            }
        }),
    },
    Entry {
        name: "fig4",
        about: "Figure 4: read/write time vs blocks per extent",
        param: None,
        render: |_| fig4::run().into(),
        traced: None,
    },
    Entry {
        name: "fig5",
        about: "Figure 5: application benchmarks split into App/Xfers/OS",
        param: None,
        render: |_| fig5::run().into(),
        traced: None,
    },
    Entry {
        name: "fig6",
        about: "Figure 6: scalability of one kernel and one m3fs instance",
        param: None,
        render: |_| fig6::run().into(),
        traced: None,
    },
    Entry {
        name: "fig7",
        about: "Figure 7: FFT pipeline, software vs accelerator",
        param: None,
        render: |_| fig7::run().into(),
        traced: None,
    },
    Entry {
        name: "fig8",
        about: "Figure 8 (ours): overcommit capacity, full-image vs dirty-tracked switches",
        param: None,
        render: |_| fig8::run().into(),
        traced: Some(|| {
            let (run, events, metrics) = fig8::traced_overcommit_run(2);
            Traced {
                note: Some(format!(
                    "traced 2x run - {} context switches over {} cycles",
                    run.ctx_switches, run.total
                )),
                events,
                metrics,
                latency_tsv: None,
            }
        }),
    },
    Entry {
        name: "fig9",
        about: "Figure 9 (ours): serving capacity under a p99 SLO; smoke: 2 smallest client counts",
        param: None,
        render: |opts| {
            let fig = if opts.smoke {
                fig9::run_sweep(&fig9::CLIENTS[..2])
            } else {
                fig9::run()
            };
            Rendered {
                table: fig.render(),
                cycles: fig.series.value_sum(),
            }
        },
        traced: Some(|| {
            let out = fig9::traced_serve_run(FIG9_TRACED_CLIENTS);
            Traced {
                note: Some(format!(
                    "traced {FIG9_TRACED_CLIENTS}-client run - {} requests, p99 {} cycles",
                    out.run.requests,
                    out.run.quantile(0.99)
                )),
                events: m3_trace::fmt::parse(&out.trace).expect("own trace parses"),
                metrics: out.metrics,
                latency_tsv: Some(out.latency_tsv),
            }
        }),
    },
    Entry {
        name: "fig10",
        about: "Figure 10 (ours): kernel throughput vs shards at 64/256/1024 PEs; smoke: 64 PEs",
        param: Some(Param {
            flag: "--pes",
            min: fig10::MIN_PES_PER_SHARD,
            help: "sweep one machine size",
        }),
        render: |opts| {
            let pes = match (opts.param, opts.smoke) {
                (Some(pes), _) => vec![pes],
                (None, true) => vec![fig10::PE_COUNTS[0]],
                (None, false) => fig10::PE_COUNTS.to_vec(),
            };
            let fig = fig10::run(&pes);
            Rendered {
                table: fig.render(),
                cycles: fig.end_cycles(),
            }
        },
        traced: None,
    },
    Entry {
        name: "fig11",
        about: "Figure 11 (ours): demand-paging throughput vs resident fraction; smoke: endpoints",
        param: None,
        render: |opts| {
            if opts.smoke {
                fig11::run_sweep(&[1, 8]).into()
            } else {
                fig11::run().into()
            }
        },
        traced: None,
    },
    Entry {
        name: "arch",
        about: "Section 5.2: Linux on Xtensa vs ARM, and M3",
        param: None,
        render: |_| arch::run().into(),
        traced: None,
    },
    Entry {
        name: "ablations",
        about: "Ablations (ours): DTU bandwidth, hop latency, pipe credits, EP pressure, shards",
        param: None,
        render: |_| {
            let all = ablation::run_all();
            Rendered {
                table: all.iter().map(|s| s.render() + "\n").collect(),
                cycles: all.iter().map(Series::value_sum).sum(),
            }
        },
        traced: None,
    },
    Entry {
        name: "pdes_bench",
        about: "PDES ring (ours): one System per island, wire-encoded ring; smoke: 2 islands",
        param: Some(Param {
            flag: "--islands",
            min: 2,
            help: "ring size (default 4)",
        }),
        render: |opts| {
            let islands = opts.param.unwrap_or(if opts.smoke { 2 } else { 4 });
            // One configuration, so one job; it alone asks for island workers.
            let workers = exec::workers_for(islands as usize);
            let job: exec::Job<_> = Box::new(move || pdes_bench::run(islands, workers));
            let run = exec::run_jobs(vec![job]).remove(0);
            Rendered {
                table: run.render(),
                cycles: run.report.end_time.as_u64(),
            }
        },
        traced: None,
    },
];

/// Looks up an entry by name.
pub fn find(name: &str) -> Option<&'static Entry> {
    FIGURES.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, entry) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|e| e.name != entry.name),
                "{} registered twice",
                entry.name
            );
            assert!(std::ptr::eq(find(entry.name).unwrap(), entry));
        }
        assert!(find("fig12").is_none());
    }
}
