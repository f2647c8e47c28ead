//! Figure 9: SLO-gated serving capacity — load vs tail latency.
//!
//! Not a figure of the paper — it measures the m3-serve tier this
//! repository adds on top of §4.5.3's service model. A closed-loop client
//! population (think time [`THINK`] cycles) drives the key-value service;
//! per client count the sweep reports completed requests per million
//! cycles and the p50/p99/p999 of the coordinated-omission-corrected
//! request latency, on M3 (service on its own PE, requests via DTU
//! messages, storage via m3fs) and on the Linux baseline (server process
//! and driver time-sharing one CPU, requests via pipes).
//!
//! The headline number is **capacity under SLO**: the largest swept
//! population whose p99 stays under [`SLO_P99`] cycles. M3 holds the SLO
//! to ~4x the clients of the baseline: the service PE handles a request in
//! a few thousand cycles while Linux pays syscalls, pipe copies, and
//! context switches per request — and once the shared CPU saturates,
//! closed-loop queueing inflates the baseline's p99 by orders of
//! magnitude. The throughput knee (last point gaining >=10%) tells the
//! same story without the SLO.

use m3_serve::scenario::DRIVER_PES;
use m3_serve::{run_lx, run_m3, run_m3_traced, ServeOutput, ServePlan, ServeRun};

use crate::exec::{self, Job};
use crate::report::Series;

/// Client populations of the sweep.
pub const CLIENTS: [u64; 7] = [16, 64, 128, 256, 512, 1024, 2048];

/// Requests each client issues.
pub const REQS_PER_CLIENT: u64 = 4;

/// Closed-loop think time in cycles between a completion and the client's
/// next request. 2M cycles puts the M3 saturation knee mid-sweep.
pub const THINK: u64 = 2_000_000;

/// Seed of the client request streams.
pub const SEED: u64 = 42;

/// The SLO: p99 request latency must stay under this many cycles.
pub const SLO_P99: u64 = 100_000;

/// Knee criterion: a point is past the knee once its throughput gain over
/// the previous point drops below 10%.
const KNEE_GAIN: f64 = 1.10;

/// The plan for one swept client count.
pub fn plan(clients: u64) -> ServePlan {
    ServePlan::closed(clients, REQS_PER_CLIENT, THINK, SEED)
}

/// The assembled figure: the sweep table plus the SLO verdicts.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// The per-client-count table.
    pub series: Series,
    /// Largest (clients, req/Mcyc) meeting the SLO on M3.
    pub m3_capacity: Option<(u64, f64)>,
    /// Largest (clients, req/Mcyc) meeting the SLO on Linux.
    pub lx_capacity: Option<(u64, f64)>,
    /// Last M3 point that still gained >=10% throughput.
    pub m3_knee: u64,
    /// Last Linux point that still gained >=10% throughput.
    pub lx_knee: u64,
}

impl Fig9 {
    /// Renders the table plus the capacity/knee summary lines.
    pub fn render(&self) -> String {
        let mut out = self.series.render();
        let verdict = |name: &str, cap: &Option<(u64, f64)>, knee: u64| {
            match cap {
            Some((clients, tput)) => format!(
                "{name}: capacity at p99<{SLO_P99} cycles = {clients} clients ({tput:.2} req/Mcyc); knee at {knee} clients\n"
            ),
            None => format!(
                "{name}: no swept point meets p99<{SLO_P99} cycles; knee at {knee} clients\n"
            ),
        }
        };
        out.push_str(&verdict("M3", &self.m3_capacity, self.m3_knee));
        out.push_str(&verdict("Lx", &self.lx_capacity, self.lx_knee));
        out
    }

    /// Prints the rendered figure to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Largest swept point whose p99 meets the SLO.
fn capacity(points: &[(u64, &ServeRun)]) -> Option<(u64, f64)> {
    points
        .iter()
        .rfind(|(_, r)| r.quantile(0.99) < SLO_P99)
        .map(|(c, r)| (*c, r.throughput))
}

/// Last swept point that still gained [`KNEE_GAIN`] over its predecessor.
fn knee(points: &[(u64, &ServeRun)]) -> u64 {
    let mut knee = points.first().map_or(0, |(c, _)| *c);
    for pair in points.windows(2) {
        let (_, prev) = pair[0];
        let (clients, cur) = pair[1];
        if cur.throughput >= prev.throughput * KNEE_GAIN {
            knee = clients;
        } else {
            break;
        }
    }
    knee
}

/// Runs the sweep at the given client counts (M3 and Linux per point) as
/// independent concurrent simulations.
pub fn run_sweep(clients: &[u64]) -> Fig9 {
    let jobs: Vec<Job<ServeRun>> = clients
        .iter()
        .flat_map(|&c| {
            [
                Box::new(move || run_m3(&plan(c))) as Job<ServeRun>,
                Box::new(move || run_lx(&plan(c))) as Job<ServeRun>,
            ]
        })
        .collect();
    let runs = exec::run_jobs(jobs);
    let pairs: Vec<(u64, &ServeRun, &ServeRun)> = clients
        .iter()
        .zip(runs.chunks(2))
        .map(|(&c, pair)| (c, &pair[0], &pair[1]))
        .collect();

    let rows = pairs
        .iter()
        .map(|(c, m3, lx)| {
            (
                *c,
                vec![
                    m3.throughput,
                    m3.quantile(0.50) as f64,
                    m3.quantile(0.99) as f64,
                    m3.quantile(0.999) as f64,
                    lx.throughput,
                    lx.quantile(0.50) as f64,
                    lx.quantile(0.99) as f64,
                    lx.quantile(0.999) as f64,
                ],
            )
        })
        .collect();
    let m3_points: Vec<(u64, &ServeRun)> = pairs.iter().map(|(c, m3, _)| (*c, *m3)).collect();
    let lx_points: Vec<(u64, &ServeRun)> = pairs.iter().map(|(c, _, lx)| (*c, *lx)).collect();

    Fig9 {
        series: Series {
            title: format!(
                "Figure 9: serving capacity under SLO - closed loop, {DRIVER_PES} driver PEs, think {THINK} cycles"
            ),
            param: "clients".to_string(),
            columns: vec![
                "m3 req/Mcyc".to_string(),
                "m3-p50".to_string(),
                "m3-p99".to_string(),
                "m3-p999".to_string(),
                "lx req/Mcyc".to_string(),
                "lx-p50".to_string(),
                "lx-p99".to_string(),
                "lx-p999".to_string(),
            ],
            rows,
        },
        m3_capacity: capacity(&m3_points),
        lx_capacity: capacity(&lx_points),
        m3_knee: knee(&m3_points),
        lx_knee: knee(&lx_points),
    }
}

/// Runs the complete Figure 9 sweep.
pub fn run() -> Fig9 {
    run_sweep(&CLIENTS)
}

/// Re-runs one mid-sweep M3 point under tracing; the CI observability job
/// exports the trace, metrics, and latency table as artifacts.
pub fn traced_serve_run(clients: u64) -> ServeOutput {
    run_m3_traced(&plan(clients))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_tail_is_heavier_at_moderate_load() {
        let clients = 64;
        let m3 = run_m3(&plan(clients));
        let lx = run_lx(&plan(clients));
        assert_eq!(m3.requests, clients * REQS_PER_CLIENT);
        assert_eq!(lx.requests, clients * REQS_PER_CLIENT);
        assert!(
            lx.quantile(0.99) > m3.quantile(0.99),
            "lx p99 {} must exceed m3 p99 {}",
            lx.quantile(0.99),
            m3.quantile(0.99)
        );
        // Both still meet the SLO here; the gap opens with load.
        assert!(m3.quantile(0.99) < SLO_P99);
        assert!(lx.quantile(0.99) < SLO_P99);
    }

    #[test]
    fn capacity_and_knee_pick_the_documented_points() {
        fn fake(clients: u64, tput: f64, p99: u64) -> (u64, ServeRun) {
            let mut lat = m3_sim::Histogram::new();
            lat.observe(p99);
            let mut run = ServeRun::new(clients, 1, m3_base::Cycles::new(1), lat);
            run.throughput = tput;
            (clients, run)
        }
        let owned: Vec<(u64, ServeRun)> = vec![
            fake(16, 8.0, 3_000),
            fake(64, 32.0, 17_000),
            fake(256, 128.0, 21_000),
            fake(1024, 340.0, 1_100_000),
            fake(2048, 344.0, 4_100_000),
        ];
        let points: Vec<(u64, &ServeRun)> = owned.iter().map(|(c, r)| (*c, r)).collect();
        assert_eq!(capacity(&points), Some((256, 128.0)));
        assert_eq!(knee(&points), 1024, "+1% at 2048 is past the knee");
        assert_eq!(knee(&points[..1]), 16, "a single point is its own knee");
        let empty: Vec<(u64, &ServeRun)> = Vec::new();
        assert_eq!(capacity(&empty), None);
    }

    #[test]
    fn render_reports_capacity_lines() {
        let fig = run_sweep(&[16]);
        let text = fig.render();
        assert!(text.contains("m3 req/Mcyc"));
        assert!(text.contains("M3: capacity at p99<100000 cycles"));
        assert!(text.contains("Lx: capacity at p99<100000 cycles"));
    }
}
