//! The m3-vm subsystem (paper §7): demand paging with kernel-owned page
//! tables, a software TLB, and a clean-first pager with a per-VPE DRAM
//! swap region.

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::rand::Rng;
use m3_base::Perm;
use m3_fs::{mount_m3fs, SetupNode};
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::{AddrSpace, TLB_ENTRIES};
use m3_libos::vfs;

#[test]
fn demand_paging_allocates_frames_on_first_touch() {
    let sys = System::boot(SystemConfig::default());
    let free_before = sys.kernel().free_mem();
    let stats = sys.stats();
    let job = sys.run_program("vm", move |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        // Untouched memory reads as zeros (freshly allocated, zeroed
        // frames) — touching it *is* what allocates.
        let mut buf = [0xffu8; 16];
        aspace.read(0x4000, &mut buf).await.unwrap();
        assert_eq!(buf, [0u8; 16]);
        // Writes land and read back, across a page boundary.
        let data: Vec<u8> = (0..100).collect();
        aspace.write(PAGE_SIZE - 50, &data).await.unwrap();
        let mut back = vec![0u8; 100];
        aspace.read(PAGE_SIZE - 50, &mut back).await.unwrap();
        assert_eq!(back, data);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
    // Three distinct pages were touched (0x4000, and the two spanning the
    // boundary), each costing one page fault and one 4 KiB frame.
    assert_eq!(stats.get(m3_sim::keys::PAGE_FAULTS), 3);
    // The program exited: its frames were freed with it. (The m3fs
    // service's own region was allocated after boot, hence the offset.)
    let fs_region = SystemConfig::default().fs_blocks * 1024;
    assert_eq!(sys.kernel().free_mem(), free_before - fs_region);
}

#[test]
fn tlb_eviction_is_transparent() {
    let sys = System::boot(SystemConfig::default());
    let job = sys.run_program("vm", |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        // Touch twice as many pages as the TLB holds; every page keeps its
        // data even after its TLB entry (and capability handle) is evicted.
        let pages = 2 * TLB_ENTRIES as u64;
        for p in 0..pages {
            aspace.write(p * PAGE_SIZE, &[p as u8 + 1]).await.unwrap();
        }
        let misses_after_writes = aspace.tlb_misses();
        for p in 0..pages {
            let mut b = [0u8; 1];
            aspace.read(p * PAGE_SIZE, &mut b).await.unwrap();
            assert_eq!(b[0], p as u8 + 1, "page {p} lost its data");
        }
        // Re-reading evicted pages faults again in the TLB (but not in the
        // page table: the frames persist, so the data does).
        assert!(aspace.tlb_misses() > misses_after_writes);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn address_spaces_are_isolated_per_vpe() {
    let sys = System::boot(SystemConfig {
        pes: 6,
        ..SystemConfig::default()
    });
    // Two programs write different values to the same virtual address.
    let a = sys.run_program("vm-a", |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        aspace.write(0x1000, b"AAAA").await.unwrap();
        env.sim().sleep(m3_base::Cycles::new(50_000)).await;
        let mut b = [0u8; 4];
        aspace.read(0x1000, &mut b).await.unwrap();
        assert_eq!(&b, b"AAAA", "B's write must not be visible");
        0
    });
    let b = sys.run_program("vm-b", |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        aspace.write(0x1000, b"BBBB").await.unwrap();
        env.sim().sleep(m3_base::Cycles::new(50_000)).await;
        let mut buf = [0u8; 4];
        aspace.read(0x1000, &mut buf).await.unwrap();
        assert_eq!(&buf, b"BBBB");
        0
    });
    sys.run();
    assert_eq!(a.try_take(), Some(0));
    assert_eq!(b.try_take(), Some(0));
}

#[test]
fn read_only_spaces_reject_writes() {
    let sys = System::boot(SystemConfig::default());
    let job = sys.run_program("vm", |env| async move {
        let mut ro = AddrSpace::new(&env, Perm::R);
        let mut b = [0u8; 1];
        ro.read(0, &mut b).await.unwrap(); // faults the page in, readable
        let err = ro.write(0, &[1]).await.unwrap_err();
        assert_eq!(err.code(), Code::NoPerm);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn paging_under_pressure_is_byte_equivalent_to_flat_memory() {
    // The pager's end-to-end correctness property: with the resident set
    // squeezed to 3 frames, a seeded random read/write/unmap sequence over
    // an 8-page space — every access potentially an eviction, writeback,
    // or page-in — must behave byte-for-byte like a flat zero-initialised
    // memory. Multi-byte accesses straddle page boundaries on purpose.
    let space_pages = 8u64;
    let space = space_pages * PAGE_SIZE;
    for seed in [0x4d31_0001u64, 0x4d31_0002, 0x4d31_0003] {
        let sys = System::boot(SystemConfig {
            vm_resident_pages: Some(3),
            ..SystemConfig::default()
        });
        let stats = sys.stats();
        let job = sys.run_program("vm-prop", move |env| async move {
            let mut aspace = AddrSpace::new(&env, Perm::RW);
            let mut flat = vec![0u8; space as usize];
            let mut rng = Rng::new(seed);
            for _ in 0..150 {
                let len = 1 + rng.next_below(24) as usize;
                let virt = rng.next_below(space - len as u64);
                match rng.next_below(8) {
                    0..=3 => {
                        let mut data = vec![0u8; len];
                        rng.fill_bytes(&mut data);
                        aspace.write(virt, &data).await.unwrap();
                        flat[virt as usize..virt as usize + len].copy_from_slice(&data);
                    }
                    4..=6 => {
                        let mut buf = vec![0xa5u8; len];
                        aspace.read(virt, &mut buf).await.unwrap();
                        assert_eq!(
                            buf,
                            &flat[virt as usize..virt as usize + len],
                            "seed {seed:#x}: divergence at {virt:#x}+{len}"
                        );
                    }
                    _ => {
                        // Unmap drops the page *and* its swap copy; the
                        // model forgets the whole page to zeros.
                        let page = virt / PAGE_SIZE;
                        if aspace.unmap(page * PAGE_SIZE).await.is_ok() {
                            let start = (page * PAGE_SIZE) as usize;
                            flat[start..start + PAGE_SIZE as usize].fill(0);
                        }
                    }
                }
            }
            0
        });
        sys.run();
        assert_eq!(job.try_take(), Some(0), "seed {seed:#x}");
        assert!(
            stats.get(m3_sim::keys::PAGE_FAULTS) > 0,
            "the sweep must exercise the pager"
        );
    }
}

#[test]
fn unmap_frees_the_frame_and_forgets_the_data() {
    let sys = System::boot(SystemConfig::default());
    let job = sys.run_program("vm", |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        aspace.write(0x2000, b"secret").await.unwrap();
        aspace.unmap(0x2000).await.unwrap();
        // Unmapping twice fails.
        let err = aspace.unmap(0x2000).await.unwrap_err();
        assert_eq!(err.code(), Code::InvArgs);
        // Touching the page again demand-allocates a fresh zeroed frame.
        let mut b = [0xffu8; 6];
        aspace.read(0x2000, &mut b).await.unwrap();
        assert_eq!(b, [0u8; 6]);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn revoking_an_evicted_frame_spares_the_gate_reusing_its_endpoint() {
    // A dropped TLB frame gate frees its endpoint in the libos multiplexer,
    // but the kernel still holds the frame capability. The reply gate
    // reserved next gets that endpoint; evicting the page later revokes the
    // frame capability, which must not invalidate the reply gate.
    let sys = System::boot(SystemConfig {
        vm_resident_pages: Some(1),
        fs_setup: vec![SetupNode::file("/data", b"intact".to_vec())],
        ..SystemConfig::default()
    });
    let job = sys.run_program("reuse", |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        aspace.write(0, b"page 0").await.unwrap();
        drop(aspace);
        env.reply_gate().await.unwrap();
        // A one-frame resident set: faulting page 1 evicts page 0.
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        aspace.write(PAGE_SIZE, b"page 1").await.unwrap();
        mount_m3fs(&env).await.unwrap();
        vfs::read_to_vec(&env, "/data").await.unwrap().len() as i64
    });
    sys.run();
    assert_eq!(job.try_take(), Some(6));
    // Page 0 was dirty, so its eviction wrote it back to swap.
    let written_back = sys.sim().metrics().total(m3_sim::keys::WRITEBACK_BYTES);
    assert_eq!(written_back, PAGE_SIZE, "page 0 was never evicted");
}
