//! End-to-end serving scenarios: the same load plan driven against the
//! M3 system and the Linux baseline.
//!
//! On M3 the service owns a PE and [`DRIVER_PES`] driver programs
//! multiplex the simulated client population (each driver owns the
//! clients with `id % DRIVER_PES == its index`, so the population — and
//! every client's request stream — is identical however the run is
//! hosted). Requests travel as DTU messages over an obtained send gate;
//! storage I/O goes through m3fs. On Linux everything time-shares one
//! CPU and requests travel over pipes ([`crate::lxserve`]).

use std::cell::RefCell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::Cycles;
use m3_fs::SetupNode;
use m3_libos::{ClientSession, Env, SendGate};
use m3_sim::{keys, Component, Event, EventKind, Histogram};

use crate::load::{Arrivals, ClientSet, LoadPlan};
use crate::proto::{initial_db, KvReply, DB_PATH, OBTAIN_REQ_GATE};
use crate::server::{run_kv_server, SERVICE};

pub use crate::lxserve::run_lx;

/// Driver programs (PEs on M3) the client population is spread over.
pub const DRIVER_PES: u64 = 4;

/// One serving experiment: a client population against the kv service.
#[derive(Clone, Copy, Debug)]
pub struct ServePlan {
    /// Simulated clients.
    pub clients: u64,
    /// Requests per client.
    pub reqs_per_client: u64,
    /// RNG seed of the client streams.
    pub seed: u64,
    /// Arrival model.
    pub arrivals: Arrivals,
}

impl ServePlan {
    /// A closed-loop plan: each client thinks for `think` cycles between
    /// a completion and its next request.
    pub fn closed(clients: u64, reqs_per_client: u64, think: u64, seed: u64) -> ServePlan {
        ServePlan {
            clients,
            reqs_per_client,
            seed,
            arrivals: Arrivals::Closed {
                think: Cycles::new(think),
            },
        }
    }

    /// The load-generator view of this plan.
    pub fn load(&self) -> LoadPlan {
        LoadPlan {
            clients: self.clients,
            reqs_per_client: self.reqs_per_client,
            seed: self.seed,
            arrivals: self.arrivals,
        }
    }
}

/// Results of one serving run.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// Clients simulated.
    pub clients: u64,
    /// Requests completed.
    pub requests: u64,
    /// Simulated cycles from boot to the last completion.
    pub total: Cycles,
    /// The request-latency distribution (coordinated-omission-corrected).
    pub latency: Histogram,
    /// Completed requests per million cycles.
    pub throughput: f64,
}

impl ServeRun {
    /// Assembles a run result, deriving the throughput.
    pub fn new(clients: u64, requests: u64, total: Cycles, latency: Histogram) -> ServeRun {
        let throughput = if total.as_u64() == 0 {
            0.0
        } else {
            requests as f64 * 1_000_000.0 / total.as_u64() as f64
        };
        ServeRun {
            clients,
            requests,
            total,
            latency,
            throughput,
        }
    }

    /// The quantile `q` of the latency distribution, `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.latency.quantile(q).unwrap_or(0)
    }
}

/// A traced serving run: the results plus the observability artifacts.
pub struct ServeOutput {
    /// The run results.
    pub run: ServeRun,
    /// The event trace in `m3-trace` line format.
    pub trace: String,
    /// Rendered per-PE metrics.
    pub metrics: String,
    /// The per-PE/merged latency table (TSV).
    pub latency_tsv: String,
}

fn m3_scenario(plan: &ServePlan, traced: bool) -> (ServeRun, Option<ServeOutput>) {
    let sys = System::boot(SystemConfig {
        // Kernel + m3fs + the kv service + the driver PEs.
        pes: 3 + DRIVER_PES as usize,
        fs_setup: vec![SetupNode::file(DB_PATH, initial_db())],
        ..SystemConfig::default()
    });
    if traced {
        sys.sim().enable_trace();
    }

    let info = sys
        .kernel()
        .create_root("kv-server", None)
        .expect("no PE left for the kv service");
    let srv_env = Env::new(sys.kernel(), &info, sys.registry().clone());
    sys.sim().spawn_daemon("kv-server", async move {
        run_kv_server(srv_env).await.expect("kv server failed");
    });

    // (requests completed, end of the last completion) across drivers.
    let progress = Rc::new(RefCell::new((0u64, 0u64)));
    for d in 0..DRIVER_PES {
        let load = plan.load();
        let progress = progress.clone();
        sys.run_program(&format!("kv-driver{d}"), move |env| async move {
            let done = drive(&env, ClientSet::partition(&load, d, DRIVER_PES)).await;
            let mut p = progress.borrow_mut();
            p.0 += done;
            p.1 = p.1.max(env.sim().now().as_u64());
            0
        });
    }
    sys.run();

    let (requests, end) = *progress.borrow();
    let latency = sys
        .sim()
        .metrics()
        .merged(keys::SERVE_LATENCY)
        .unwrap_or_default();
    let run = ServeRun::new(plan.clients, requests, Cycles::new(end), latency);
    let output = traced.then(|| {
        let metrics = sys.sim().metrics();
        ServeOutput {
            run: run.clone(),
            trace: m3_trace::fmt::write_events(&sys.sim().tracer().events()),
            metrics: metrics.render(Cycles::new(end)),
            latency_tsv: metrics.histogram_tsv(),
        }
    });
    (run, output)
}

/// Drives one partition of the client population over a single session
/// (requests issued in due order, one in flight — the session's send gate
/// has one credit anyway). Returns the number of completed requests.
async fn drive(env: &Env, mut set: ClientSet) -> u64 {
    // The service registers concurrently with program start; back off
    // until it appears.
    let session = loop {
        match ClientSession::connect(env, SERVICE, 0).await {
            Ok(s) => break s,
            Err(e) if e.code() == Code::InvService => {
                env.sim().sleep(Cycles::new(1_000)).await;
            }
            Err(e) => panic!("kv connect failed: {e:?}"),
        }
    };
    let (sels, _) = session
        .obtain(1, &[OBTAIN_REQ_GATE])
        .await
        .expect("obtain request gate");
    let sgate = SendGate::bind(env, sels[0]);

    let mut requests = 0u64;
    while let Some(pending) = set.next_request() {
        if env.sim().now() < pending.due {
            env.sim().sleep_until(pending.due).await;
        }
        let msg = sgate
            .call(&pending.op.to_bytes())
            .await
            .expect("kv request failed");
        let reply = KvReply::from_bytes(&msg.payload).expect("malformed kv reply");
        assert_eq!(reply.status, 0, "kv request rejected");
        let now = env.sim().now();
        let latency = set.complete(pending.client, pending.due, now);
        env.sim()
            .metrics()
            .observe(env.pe(), keys::SERVE_LATENCY, latency.as_u64());
        let pe = env.pe();
        env.sim().tracer().record_with(|| Event {
            at: pending.due,
            dur: latency,
            pe: Some(pe),
            comp: Component::Serve,
            kind: EventKind::ServeReq {
                client: pending.client,
                op: pending.op.name().to_string(),
            },
        });
        requests += 1;
    }
    requests
}

/// Runs the serving scenario on M3.
pub fn run_m3(plan: &ServePlan) -> ServeRun {
    m3_scenario(plan, false).0
}

/// Runs the serving scenario on M3 with tracing enabled, returning the
/// trace, metrics render, and latency table alongside the results.
pub fn run_m3_traced(plan: &ServePlan) -> ServeOutput {
    m3_scenario(plan, true).1.expect("traced run has output")
}
