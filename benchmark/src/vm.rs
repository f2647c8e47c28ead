//! `vm-overcommit`: 32 client VPEs time-share 4 PEs (8x overcommit) with
//! dirty-tracked context switches, each paging a 16-page address space
//! through an 8-frame resident cap. The only workload where the scheduler's
//! context switches and the vm pager do the work.

use m3::{System, SystemConfig};
use m3_apps::workload::file_content;
use m3_base::rand::Rng;
use m3_base::Perm;
use m3_fs::SetupNode;
use m3_kernel::protocol::PeRequest;
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::AddrSpace;
use m3_libos::vfs;
use m3_libos::{Env, Vpe};

use crate::check::{self, FileSig};
use crate::measure::{self, new_sim, Counters, Probe, Ready, Rep, RepClock, TraceOut};

/// Application PEs the clients share.
pub const CLIENT_PES: usize = 4;

/// Client VPEs (8 per PE).
pub const CLIENTS: u64 = 32;

/// Pages of each client's address space.
pub const PAGES: u64 = 16;

/// Resident DRAM frames per address space.
pub const RESIDENT: usize = 8;

/// Every this many accesses a client also reads the data file.
pub const FILE_EVERY: u64 = 16;

const FILE: &str = "/data";
const FILE_BYTES: usize = 2048;

/// One rep: every client makes `accesses` seeded one-byte reads and writes.
pub fn rep(seed: u64, accesses: u64, trace: bool) -> Rep {
    let data = file_content(seed, FILE_BYTES);
    let sig = FileSig::of(&data);
    let clock = RepClock::start();
    let sys = System::boot_in(
        new_sim(trace),
        SystemConfig {
            // Kernel + m3fs + the parent + the client PEs.
            pes: 3 + CLIENT_PES,
            fs_setup: vec![SetupNode::file(FILE, data)],
            overcommit: true,
            dirty_switches: true,
            vm_resident_pages: Some(RESIDENT),
            ..SystemConfig::default()
        },
    );
    let expected = CLIENTS * accesses;
    let probe = Probe::new(expected);
    let ready = Ready::new(1);
    {
        let (probe, ready) = (probe.clone(), ready.clone());
        sys.run_program("vm-parent", move |env| async move {
            if measure::mount(&env, &probe).await.is_err() {
                return 1;
            }
            ready.arrive(env.sim()).await;
            let mut vpes = Vec::new();
            for i in 0..CLIENTS {
                let t = env.sim().now();
                let Ok(vpe) = Vpe::new(&env, &format!("client{i}"), PeRequest::Any).await else {
                    return 1;
                };
                let cprobe = probe.clone();
                let started = vpe
                    .run(move |cenv| async move {
                        client(&cenv, &cprobe, seed, i, accesses, sig).await;
                        0
                    })
                    .await;
                let spent = (env.sim().now() - t).as_u64();
                probe.with_spans(|s| s.syscall_cycles += spent);
                if started.is_err() {
                    return 1;
                }
                vpes.push(vpe);
            }
            for vpe in &vpes {
                if !matches!(vpe.wait().await, Ok(0)) {
                    return 1;
                }
            }
            0
        });
    }
    sys.run();
    clock.finish(ready.at(), probe.take(), expected, || {
        let trace = trace.then(|| TraceOut::of_sim(sys.sim()));
        (Counters::of_system(&sys), trace)
    })
}

/// One client: seeded accesses over its address space, each read checked
/// against a shadow copy, plus a checked read of the data file every
/// [`FILE_EVERY`] accesses (a failed file check fails that access's op).
async fn client(env: &Env, probe: &Probe, seed: u64, id: u64, accesses: u64, sig: FileSig) {
    // The RPC reply gate is reserved before the first page fault: reserved
    // later, it can take the endpoint of a dropped TLB frame gate, and the
    // kernel's revoke of that frame (on eviction or a read-to-write
    // upgrade) then invalidates the reply endpoint, failing file reads.
    if measure::mount(env, probe).await.is_err() || env.reply_gate().await.is_err() {
        return;
    }
    let sim = env.sim();
    let mut aspace = AddrSpace::new(env, Perm::RW);
    let mut shadow = vec![0u8; (PAGES * PAGE_SIZE) as usize];
    let mut rng = Rng::new(seed ^ (id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for k in 0..accesses {
        let virt = rng.next_below(PAGES * PAGE_SIZE);
        let faults = aspace.page_faults();
        let t = sim.now();
        let mut ok = if rng.next_below(2) == 0 {
            let v = rng.next_u64() as u8;
            shadow[virt as usize] = v;
            aspace.write(virt, &[v]).await.is_ok()
        } else {
            let mut b = [0u8; 1];
            aspace.read(virt, &mut b).await.is_ok() && check::shadow_ok(&shadow, virt, b[0])
        };
        let done = sim.now();
        if aspace.page_faults() > faults {
            probe.with_spans(|s| s.fault_cycles += (done - t).as_u64());
        }
        if k % FILE_EVERY == FILE_EVERY - 1 {
            ok &= vfs::read_to_vec(env, FILE)
                .await
                .is_ok_and(|d| check::file_ok(&sig, &d));
        }
        probe.op(ok, t, done);
    }
    let misses = aspace.tlb_misses();
    probe.with_spans(|s| s.tlb_misses += misses);
}
