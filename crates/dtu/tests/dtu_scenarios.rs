//! DTU scenario tests: timing, contention, and edge semantics that only
//! show up with the NoC in the loop.

use m3_base::error::Code;
use m3_base::{EpId, PeId, Perm};
use m3_dtu::{DtuSystem, EpConfig, MemKind};
use m3_noc::{Noc, NocConfig, Topology};
use m3_sim::Sim;

fn setup(nodes: u32) -> (Sim, DtuSystem) {
    let sim = Sim::new();
    let noc = Noc::new(Topology::with_nodes(nodes), NocConfig::default());
    let sys = DtuSystem::new(sim.clone(), noc);
    (sim, sys)
}

fn recv_cfg(slots: usize) -> EpConfig {
    EpConfig::Receive {
        slots,
        slot_size: 256,
        allow_replies: true,
    }
}

#[test]
fn message_latency_grows_with_hop_distance() {
    // A 4x4 mesh: sending to a neighbour beats sending across the chip.
    let measure = |dst: u32| -> u64 {
        let (sim, sys) = setup(16);
        let kernel = sys.dtu(PeId::new(15)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(dst), EpId::new(0), recv_cfg(4))
            .unwrap();
        kernel
            .configure(
                PeId::new(0),
                EpId::new(0),
                EpConfig::Send {
                    pe: PeId::new(dst),
                    ep: EpId::new(0),
                    label: 0,
                    credits: None,
                    max_payload: 128,
                },
            )
            .unwrap();
        let tx = sys.dtu(PeId::new(0));
        let rx = sys.dtu(PeId::new(dst));
        let h = sim.spawn("rx", {
            let sim = sim.clone();
            async move {
                rx.recv(EpId::new(0)).await.unwrap();
                sim.now().as_u64()
            }
        });
        sim.spawn("tx", async move {
            tx.send(EpId::new(0), b"hop", None).await.unwrap();
        });
        sim.run();
        h.try_take().unwrap()
    };
    let near = measure(1); // one hop
    let far = measure(15); // six hops
    assert!(
        far >= near + 5 * 3,
        "five extra hops at 3 cycles each: near={near} far={far}"
    );
}

#[test]
fn concurrent_transfers_over_shared_links_serialize() {
    // Two 64 KiB RDMA reads from the same DRAM node: their shared links
    // force one to wait; total time exceeds a single transfer's clearly.
    let single = run_readers(1);
    let double = run_readers(2);
    assert!(
        double > single + single / 2,
        "contention must serialize: single={single} double={double}"
    );

    fn run_readers(n: u32) -> u64 {
        let (sim, sys) = setup(3);
        let dram = PeId::new(2);
        sys.add_memory(dram, MemKind::Dram, 1 << 20);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        for i in 0..n {
            kernel
                .configure(
                    PeId::new(i),
                    EpId::new(2),
                    EpConfig::Memory {
                        pe: dram,
                        offset: 0,
                        len: 1 << 20,
                        perm: Perm::R,
                    },
                )
                .unwrap();
            let dtu = sys.dtu(PeId::new(i));
            sim.spawn(format!("reader{i}"), async move {
                dtu.read_mem(EpId::new(2), 0, 64 * 1024).await.unwrap();
            });
        }
        sim.run();
        sim.now().as_u64()
    }
}

#[test]
fn remote_spm_access_supports_the_clone_path() {
    // VPE::run copies the parent's image into the child's SPM via a memory
    // endpoint pointing at another PE's scratchpad (§4.5.5).
    let (sim, sys) = setup(3);
    let spm = sys.add_memory(PeId::new(2), MemKind::Spm, 64 * 1024);
    let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
    kernel
        .configure(
            PeId::new(1),
            EpId::new(2),
            EpConfig::Memory {
                pe: PeId::new(2),
                offset: 0,
                len: 64 * 1024,
                perm: Perm::RW,
            },
        )
        .unwrap();
    let loader = sys.dtu(PeId::new(1));
    let h = sim.spawn("loader", async move {
        let image = vec![0xc3u8; 24 * 1024];
        loader.write_mem(EpId::new(2), 0, &image).await.unwrap();
        loader.read_mem(EpId::new(2), 100, 4).await.unwrap()
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), vec![0xc3; 4]);
    let mut edge = [0; 2];
    spm.read(24 * 1024 - 1, &mut edge);
    assert_eq!(edge, [0xc3, 0]);
    // The image covers six 4 KiB pages; the rest of the SPM stays unbacked.
    assert_eq!(spm.pages_allocated(), 6);
}

#[test]
fn reply_to_reconfigured_endpoint_is_dropped_not_misdelivered() {
    let (sim, sys) = setup(3);
    let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
    kernel
        .configure(PeId::new(2), EpId::new(0), recv_cfg(4))
        .unwrap();
    kernel
        .configure(
            PeId::new(1),
            EpId::new(0),
            EpConfig::Send {
                pe: PeId::new(2),
                ep: EpId::new(0),
                label: 0,
                credits: Some(2),
                max_payload: 128,
            },
        )
        .unwrap();
    kernel
        .configure(PeId::new(1), EpId::new(1), recv_cfg(4))
        .unwrap();

    let tx = sys.dtu(PeId::new(1));
    let rx = sys.dtu(PeId::new(2));
    let kernel2 = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
    let h = sim.spawn("flow", async move {
        tx.send(EpId::new(0), b"req", Some((EpId::new(1), 7)))
            .await
            .unwrap();
        let msg = rx.recv(EpId::new(0)).await.unwrap();
        // The kernel invalidates the reply endpoint before the reply is
        // sent (e.g. a revoke raced the RPC).
        kernel2
            .configure(PeId::new(1), EpId::new(1), EpConfig::Invalid)
            .unwrap();
        rx.reply(&msg, b"late").await.unwrap();
        rx.ack(EpId::new(0)).unwrap();
        // The reply must not be readable anywhere.
        tx.fetch(EpId::new(1)).unwrap_err().code()
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), Code::InvEp);
    assert_eq!(sim.stats().get("dtu.deposit_no_recv_ep"), 1);
}

#[test]
fn credit_refill_is_capped_at_the_budget() {
    let (sim, sys) = setup(3);
    let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
    kernel
        .configure(PeId::new(2), EpId::new(0), recv_cfg(8))
        .unwrap();
    kernel
        .configure(
            PeId::new(1),
            EpId::new(0),
            EpConfig::Send {
                pe: PeId::new(2),
                ep: EpId::new(0),
                label: 0,
                credits: Some(3),
                max_payload: 128,
            },
        )
        .unwrap();
    // Refilling beyond the budget clamps to it.
    kernel
        .configure(PeId::new(1), EpId::new(1), recv_cfg(4))
        .unwrap();
    kernel
        .refill_credits(PeId::new(1), EpId::new(0), 100)
        .unwrap();
    let tx = sys.dtu(PeId::new(1));
    assert_eq!(tx.credits(EpId::new(0)), Some(3));
    let _ = sim;
}

#[test]
fn send_does_not_block_the_sender_for_the_transfer() {
    // §4.5.6: message passing is asynchronous at the lowest level — the
    // sender is free after programming the registers, while a large RDMA
    // write blocks for the full transfer.
    let (sim, sys) = setup(3);
    sys.add_memory(PeId::new(2), MemKind::Dram, 1 << 20);
    let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
    kernel
        .configure(PeId::new(2), EpId::new(0), recv_cfg(4))
        .unwrap();
    kernel
        .configure(
            PeId::new(1),
            EpId::new(0),
            EpConfig::Send {
                pe: PeId::new(2),
                ep: EpId::new(0),
                label: 0,
                credits: None,
                max_payload: 200,
            },
        )
        .unwrap();
    kernel
        .configure(
            PeId::new(1),
            EpId::new(1),
            EpConfig::Memory {
                pe: PeId::new(2),
                offset: 0,
                len: 1 << 20,
                perm: Perm::RW,
            },
        )
        .unwrap();
    let dtu = sys.dtu(PeId::new(1));
    let h = sim.spawn("sender", {
        let sim = sim.clone();
        async move {
            let t0 = sim.now().as_u64();
            dtu.send(EpId::new(0), &[0u8; 128], None).await.unwrap();
            let send_time = sim.now().as_u64() - t0;
            let t1 = sim.now().as_u64();
            dtu.write_mem(EpId::new(1), 0, &vec![0u8; 64 * 1024])
                .await
                .unwrap();
            let write_time = sim.now().as_u64() - t1;
            (send_time, write_time)
        }
    });
    sim.run();
    let (send_time, write_time) = h.try_take().unwrap();
    assert!(
        send_time < 20,
        "send returns after command issue: {send_time}"
    );
    assert!(
        write_time >= 64 * 1024 / 8,
        "RDMA write blocks for the transfer: {write_time}"
    );
}
