//! m3-vm end to end: demand paging, the DTU-fed page cache, and
//! mmap-style file access.
//!
//! The paper's §7 closes with "we want to support virtual memory to enable
//! copy-on-write, demand paging, etc. This can be done by managing the page
//! tables remotely" — this example drives the promoted subsystem: the
//! kernel owns the page tables, a fault is a typed DTU message, and under
//! memory pressure the pager evicts clean pages first and writes dirty
//! ones back to a per-VPE DRAM swap region.
//!
//! Run with: `cargo run --example paging`

use m3::{System, SystemConfig};
use m3_base::Perm;
use m3_fs::mount_m3fs;
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::AddrSpace;
use m3_libos::vfs::{self, MappedFile, OpenFlags};
use m3_libos::{Env, MemGate, PageCache};
use m3_sim::keys;

fn main() {
    // Cap each address space at 4 resident DRAM frames: touching more
    // working set than that forces the kernel pager to evict.
    let sys = System::boot(SystemConfig {
        vm_resident_pages: Some(4),
        ..SystemConfig::default()
    });
    let stats = sys.stats();

    let job = sys.run_program("paging", |env: Env| async move {
        // --- Demand paging: kernel page tables, fault-as-message ----------
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        for p in 0..8u64 {
            aspace.write(p * PAGE_SIZE, &[p as u8 + 1]).await.unwrap();
        }
        // 8 pages through 4 frames: the pager wrote dirty victims to swap,
        // and reading them back pages them in again.
        for p in 0..8u64 {
            let mut b = [0u8; 1];
            aspace.read(p * PAGE_SIZE, &mut b).await.unwrap();
            assert_eq!(b[0], p as u8 + 1, "page {p} survived eviction");
        }
        println!(
            "vm:     8 pages in 4 frames, {} faults ({} TLB misses) — data intact",
            aspace.page_faults(),
            aspace.tlb_misses()
        );

        // --- The DTU-fed page cache behind a MemGate ----------------------
        let mem = MemGate::alloc(&env, 16 * PAGE_SIZE, Perm::RW)
            .await
            .unwrap();
        let mut cache = PageCache::new(mem, 4);
        for i in 0..1024u64 {
            cache
                .write(i * 61 % (16 * PAGE_SIZE), &[i as u8])
                .await
                .unwrap();
        }
        cache.flush().await.unwrap();
        println!(
            "cache:  1024 scattered writes -> {} page fills, {} write-backs",
            cache.fills(),
            cache.writebacks()
        );

        // --- mmap-style file reads through per-extent page caches ---------
        mount_m3fs(&env).await.unwrap();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        vfs::write_all(&env, "/data.bin", &payload).await.unwrap();
        let mut file = vfs::open(&env, "/data.bin", OpenFlags::R).await.unwrap();
        let mut mapped = MappedFile::map(file.as_mut(), 4).await.unwrap();
        let mut window = [0u8; 64];
        let n = mapped.read(12_345, &mut window).await.unwrap();
        assert_eq!(&window[..n], &payload[12_345..12_345 + n]);
        println!(
            "mmap:   {}-byte file mapped, read 64 bytes at 12345 with {} page fills",
            mapped.size(),
            mapped.fills()
        );
        0
    });

    sys.run();
    assert_eq!(job.try_take(), Some(0));
    println!(
        "kernel: {} page faults, {} bytes written back to swap",
        stats.get(keys::PAGE_FAULTS),
        sys.sim().metrics().total(keys::WRITEBACK_BYTES)
    );
}
