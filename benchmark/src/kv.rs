//! `kv-serve`: fig9's capacity point, a closed loop of 512 clients against
//! the m3-serve key-value service. DTU send/reply and executor timers do
//! the work; the kernel is idle once the load generators have connected.

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::Cycles;
use m3_fs::SetupNode;
use m3_libos::{ClientSession, Env, SendGate};
use m3_serve::proto::OBTAIN_REQ_GATE;
use m3_serve::{
    initial_db, run_kv_server, Arrivals, ClientSet, KvReply, LoadPlan, DB_PATH, SERVICE,
};

use crate::check;
use crate::measure::{new_sim, Counters, Probe, Ready, Rep, RepClock, TraceOut};

/// Simulated clients.
pub const CLIENTS: u64 = 512;

/// Closed-loop think time between a reply and the client's next request.
pub const THINK: u64 = 2_000_000;

/// Load-generator PEs the clients are spread over.
pub const GENERATORS: u64 = 4;

/// One rep: every client sends `reqs` requests.
pub fn rep(seed: u64, reqs: u64, trace: bool) -> Rep {
    let plan = LoadPlan {
        clients: CLIENTS,
        reqs_per_client: reqs,
        seed,
        arrivals: Arrivals::Closed {
            think: Cycles::new(THINK),
        },
    };
    let clock = RepClock::start();
    let sys = System::boot_in(
        new_sim(trace),
        SystemConfig {
            // Kernel + m3fs + the kv service + the load generators.
            pes: 3 + GENERATORS as usize,
            fs_setup: vec![SetupNode::file(DB_PATH, initial_db())],
            ..SystemConfig::default()
        },
    );
    let info = sys
        .kernel()
        .create_root("kv-server", None)
        .expect("a PE for the kv service");
    let srv_env = Env::new(sys.kernel(), &info, sys.registry().clone());
    sys.sim().spawn_daemon("kv-server", async move {
        run_kv_server(srv_env).await.expect("kv server failed");
    });

    let expected = CLIENTS * reqs;
    let probe = Probe::new(expected);
    let ready = Ready::new(GENERATORS as usize);
    for g in 0..GENERATORS {
        let set = ClientSet::partition(&plan, g, GENERATORS);
        let (probe, ready) = (probe.clone(), ready.clone());
        sys.run_program(&format!("kv-load{g}"), move |env| async move {
            generate(&env, set, &probe, &ready).await;
            0
        });
    }
    sys.run();
    clock.finish(ready.at(), probe.take(), expected, || {
        let trace = trace.then(|| TraceOut::of_sim(sys.sim()));
        (Counters::of_system(&sys), trace)
    })
}

/// Connects, waits for the other load generators, then sends this one's
/// share of the requests in due order, one in flight. The load plan's schedule
/// starts when set-up ends.
async fn generate(env: &Env, mut set: ClientSet, probe: &Probe, ready: &Ready) {
    // The service registers after it has opened the database.
    let session = loop {
        match ClientSession::connect(env, SERVICE, 0).await {
            Ok(s) => break s,
            Err(e) if e.code() == Code::InvService => {
                env.sim().sleep(Cycles::new(1_000)).await;
            }
            Err(_) => return,
        }
    };
    let Ok((sels, _)) = session.obtain(1, &[OBTAIN_REQ_GATE]).await else {
        return;
    };
    let sgate = SendGate::bind(env, sels[0]);
    let t0 = ready.arrive(env.sim()).await;

    let sim = env.sim();
    while let Some(p) = set.next_request() {
        let due = t0 + p.due;
        if sim.now() < due {
            sim.sleep_until(due).await;
        }
        let sent = sim.now();
        let reply = sgate.call(&p.op.to_bytes()).await;
        let done = sim.now();
        let ok = reply
            .ok()
            .and_then(|msg| KvReply::from_bytes(&msg.payload).ok())
            .is_some_and(|r| check::kv_ok(&p.op, &r));
        probe.op(ok, due, done);
        probe.with_spans(|s| {
            s.late.push((sent - due).as_u64());
            s.call.push((done - sent).as_u64());
        });
        set.complete(p.client, p.due, done - t0);
    }
}
