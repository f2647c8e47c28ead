//! End-to-end runs of every §5.6/§5.8 benchmark on both systems, checking
//! that the workloads produce *correct output*, not just cycle counts.

use m3::{System, SystemConfig};
use m3_apps::{fft, lxapp, m3app, sqlwork, tarfmt, trace, workload};
use m3_fs::{mount_m3fs, SetupNode};
use m3_libos::vfs;
use m3_lx::{LxConfig, LxMachine};
use m3_sim::{keys, Sim};

fn m3_system(setup: Vec<SetupNode>, pes: usize) -> System {
    System::boot(SystemConfig {
        pes,
        fs_blocks: 16 * 1024,
        fs_setup: setup,
        ..SystemConfig::default()
    })
}

#[test]
fn m3_cat_tr_translates_the_file() {
    let spec = workload::cat_tr_input(11);
    let expected: Vec<u8> = spec.files[0]
        .1
        .iter()
        .map(|&b| if b == b'a' { b'b' } else { b })
        .collect();
    let sys = m3_system(spec.to_setup(), 6);
    let h = sys.run_program("cat_tr", |env| async move {
        mount_m3fs(&env).await.unwrap();
        m3app::cat_tr(&env, "/input.txt", "/output.txt")
            .await
            .unwrap() as i64
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 64 * 1024);
    // Verify the content with a second program.
    let h2 = sys.run_program("verify", move |env| async move {
        mount_m3fs(&env).await.unwrap();
        let out = vfs::read_to_vec(&env, "/output.txt").await.unwrap();
        assert_eq!(out, expected);
        assert!(!out.contains(&b'a'));
        0
    });
    sys.run();
    assert_eq!(h2.try_take().unwrap(), 0);
}

#[test]
fn lx_cat_tr_translates_the_file() {
    let spec = workload::cat_tr_input(11);
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    workload::preload_lx(&machine, &spec.to_setup());
    let (_, h) = machine.spawn_proc("cat_tr", |p| async move {
        lxapp::cat_tr(&p, "/input.txt", "/output.txt")
            .await
            .unwrap() as i64
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 64 * 1024);
    let fs = machine.fs().borrow();
    let ino = fs.resolve("/output.txt").unwrap();
    let out = fs.read(ino, 0, 64 * 1024).unwrap();
    assert!(!out.contains(&b'a'));
    assert!(out.contains(&b'b'));
}

#[test]
fn m3_tar_untar_roundtrip() {
    let spec = workload::tar_input(22);
    let mut setup = spec.to_setup();
    setup.push(SetupNode::dir("/out"));
    let sys = m3_system(setup, 6);
    let spec2 = spec.clone();
    let h = sys.run_program("tar", move |env| async move {
        mount_m3fs(&env).await.unwrap();
        let archived = m3app::tar_create(&env, "/src", "/archive.tar")
            .await
            .unwrap();
        assert!(archived > spec2.total_bytes());
        let extracted = m3app::tar_extract(&env, "/archive.tar", "/out")
            .await
            .unwrap();
        assert_eq!(extracted, spec2.total_bytes());
        // Every file must match the original bytes.
        for (path, content) in &spec2.files {
            let name = path.rsplit('/').next().unwrap();
            let out = vfs::read_to_vec(&env, &format!("/out/{name}"))
                .await
                .unwrap();
            assert_eq!(&out, content, "mismatch for {name}");
        }
        0
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 0);
}

#[test]
fn tar_archive_holds_every_byte_tar_reports() {
    // m3fs writes stop at the end of an extent. A 261,120-byte file puts
    // the end-of-archive blocks across the archive's first extent
    // boundary, where a single unchecked write used to drop the second.
    let crafted = workload::TreeSpec {
        dirs: vec!["/src".to_string()],
        files: vec![("/src/f.dat".to_string(), vec![7u8; 261_120])],
    };
    for spec in [workload::tar_input(22), crafted] {
        let sys = m3_system(spec.to_setup(), 6);
        let h = sys.run_program("tar", |env| async move {
            mount_m3fs(&env).await.unwrap();
            let total = m3app::tar_create(&env, "/src", "/a.tar").await.unwrap();
            let size = vfs::stat(&env, "/a.tar").await.unwrap().size;
            assert_eq!(size, total, "m3fs archive size");
            0
        });
        sys.run();
        assert_eq!(h.try_take().unwrap(), 0);

        let sim = Sim::new();
        let machine = LxMachine::new(&sim, LxConfig::xtensa());
        workload::preload_lx(&machine, &spec.to_setup());
        let (_, h) = machine.spawn_proc("tar", |p| async move {
            let total = lxapp::tar_create(&p, "/src", "/a.tar").await.unwrap();
            assert_eq!(
                p.stat("/a.tar").await.unwrap().size,
                total,
                "tmpfs archive size"
            );
            0
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }
}

#[test]
fn lx_tar_untar_roundtrip() {
    let spec = workload::tar_input(22);
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    let mut setup = spec.to_setup();
    setup.push(SetupNode::dir("/out"));
    workload::preload_lx(&machine, &setup);
    let spec2 = spec.clone();
    let (_, h) = machine.spawn_proc("tar", move |p| async move {
        lxapp::tar_create(&p, "/src", "/archive.tar").await.unwrap();
        let extracted = lxapp::tar_extract(&p, "/archive.tar", "/out")
            .await
            .unwrap();
        assert_eq!(extracted, spec2.total_bytes());
        0
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 0);
    let fs = machine.fs().borrow();
    for (path, content) in &spec.files {
        let name = path.rsplit('/').next().unwrap();
        let ino = fs.resolve(&format!("/out/{name}")).unwrap();
        assert_eq!(fs.size(ino), content.len() as u64);
        assert_eq!(&fs.read(ino, 0, content.len()).unwrap(), content);
    }
}

#[test]
fn find_results_agree_between_systems() {
    let spec = workload::find_tree(33);

    // M3.
    let sys = m3_system(spec.to_setup(), 6);
    let h = sys.run_program("find", |env| async move {
        mount_m3fs(&env).await.unwrap();
        let found = m3app::find(&env, "/", "log").await.unwrap();
        found.len() as i64
    });
    sys.run();
    let m3_count = h.try_take().unwrap();

    // Linux.
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    workload::preload_lx(&machine, &spec.to_setup());
    let (_, h) = machine.spawn_proc("find", |p| async move {
        lxapp::find(&p, "/", "log").await.unwrap().len() as i64
    });
    sim.run();
    let lx_count = h.try_take().unwrap();

    assert_eq!(m3_count, lx_count);
    assert!(m3_count >= 3);
}

#[test]
fn sqlite_returns_all_rows_on_both_systems() {
    let sys = m3_system(Vec::new(), 6);
    let h = sys.run_program("sqlite", |env| async move {
        mount_m3fs(&env).await.unwrap();
        m3app::sqlite(&env, "/test.db").await.unwrap() as i64
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 8);

    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    let (_, h) = machine.spawn_proc("sqlite", |p| async move {
        lxapp::sqlite(&p, "/test.db").await.unwrap() as i64
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 8);
}

#[test]
fn fft_pipeline_software_and_accel_produce_identical_spectra() {
    // Software run.
    let mut setup = vec![
        SetupNode::dir("/bin"),
        SetupNode::file("/bin/fft", vec![0x7f; 16 * 1024]),
    ];
    setup.push(SetupNode::dir("/res"));
    let sys = System::boot(SystemConfig {
        pes: 6,
        accel_pes: 1,
        fs_blocks: 16 * 1024,
        fs_setup: setup,
        ..SystemConfig::default()
    });
    m3app::register_fft_program(sys.registry());
    let h = sys.run_program("fft-sw", |env| async move {
        m3_fs::mount_m3fs(&env).await.unwrap();
        m3app::fft_pipeline(&env, None, "/res/sw.bin")
            .await
            .unwrap();
        m3app::fft_pipeline(&env, Some(m3_platform::PeType::FftAccel), "/res/accel.bin")
            .await
            .unwrap();
        0
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 0);

    let h2 = sys.run_program("verify", |env| async move {
        m3_fs::mount_m3fs(&env).await.unwrap();
        let sw = vfs::read_to_vec(&env, "/res/sw.bin").await.unwrap();
        let accel = vfs::read_to_vec(&env, "/res/accel.bin").await.unwrap();
        assert_eq!(sw.len(), 32 * 1024);
        assert_eq!(sw, accel, "accelerator must compute the same spectrum");
        // Spot-check against a locally computed FFT.
        let (mut re, mut im) = fft::gen_samples(fft::FIG7_POINTS, 0x5eed);
        fft::fft_in_place(&mut re, &mut im);
        let expect = fft::pack(&re, &im);
        assert_eq!(sw, expect);
        0
    });
    sys.run();
    assert_eq!(h2.try_take().unwrap(), 0);
}

#[test]
fn lx_fft_pipeline_produces_the_spectrum() {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    // /bin/fft must exist for exec.
    {
        let mut fs = machine.fs().borrow_mut();
        let ino = fs.create("/bin_fft").unwrap();
        fs.write(ino, 0, &vec![0x7f; 16 * 1024]).unwrap();
    }
    // exec_load looks the path up literally; use the flat name.
    let (_, h) = machine.spawn_proc("fft", |p| async move {
        // Redirect the binary path by linking it where lxapp expects it.
        p.link("/bin_fft", "/bin/fft").await.err(); // "/bin" missing: create
        p.mkdir("/bin").await.unwrap();
        p.link("/bin_fft", "/bin/fft").await.unwrap();
        lxapp::fft_pipeline(&p, "/result.bin").await.unwrap();
        0
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 0);
    let fs = machine.fs().borrow();
    let ino = fs.resolve("/result.bin").unwrap();
    let out = fs.read(ino, 0, 64 * 1024).unwrap();
    let (mut re, mut im) = fft::gen_samples(fft::FIG7_POINTS, 0x5eed);
    fft::fft_in_place(&mut re, &mut im);
    assert_eq!(out, fft::pack(&re, &im));
}

#[test]
fn trace_replay_runs_on_both_systems() {
    // One recorded trace, replayed through `OsApi` on M3 and on Linux. Its
    // `Wait` is the only application time on either system.
    let spec = workload::cat_tr_input(5);
    let mut ops = trace::file_read_trace("/input.txt", 64 * 1024, 4096);
    ops.extend(trace::file_write_trace("/copy.txt", 64 * 1024, 4096));
    ops.push(trace::TraceOp::Stat("/copy.txt".to_string()));
    ops.push(trace::TraceOp::Wait(10_000));

    let sys = m3_system(spec.to_setup(), 6);
    let m3_ops = ops.clone();
    let h = sys.run_program("replay", |env| async move {
        mount_m3fs(&env).await.unwrap();
        trace::replay(&env, &m3_ops).await.unwrap();
        vfs::stat(&env, "/copy.txt").await.unwrap().size as i64
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 64 * 1024);
    assert_eq!(sys.stats().get(keys::APP_CYCLES), 10_000);

    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    workload::preload_lx(&machine, &spec.to_setup());
    let (_, h) = machine.spawn_proc("replay", move |p| async move {
        trace::replay(&p, &ops).await.unwrap();
        p.stat("/copy.txt").await.unwrap().size as i64
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 64 * 1024);
    assert_eq!(machine.stats().get(keys::LX_APP_CYCLES), 10_000);
}

#[test]
fn archive_format_matches_reference_parser() {
    // The archive the m3 tar writes must parse with the pure-logic parser.
    let spec = workload::tar_input(44);
    let sys = m3_system(spec.to_setup(), 6);
    let spec2 = spec.clone();
    let h = sys.run_program("tar", move |env| async move {
        mount_m3fs(&env).await.unwrap();
        m3app::tar_create(&env, "/src", "/a.tar").await.unwrap();
        let bytes = vfs::read_to_vec(&env, "/a.tar").await.unwrap();
        let entries = tarfmt::parse_archive(&bytes).unwrap();
        assert_eq!(entries.len(), spec2.files.len());
        for ((entry, content), (path, expect)) in entries.iter().zip(&spec2.files) {
            assert_eq!(format!("/{}", entry.name), *path);
            assert_eq!(content, expect);
        }
        0
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 0);
}

#[test]
fn sql_pages_survive_the_m3_filesystem() {
    let sys = m3_system(Vec::new(), 6);
    let h = sys.run_program("sql", |env| async move {
        mount_m3fs(&env).await.unwrap();
        m3app::sqlite(&env, "/db").await.unwrap();
        let db = vfs::read_to_vec(&env, "/db").await.unwrap();
        let rows = sqlwork::decode_rows(&db).unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[7].1, "row-7");
        0
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 0);
}

#[test]
fn pipe_overlaps_reader_and_writer_across_pes() {
    // §5.6: "like Linux with multiple cores, M3 could achieve better
    // performance by letting reader and writer work in parallel." Verify
    // that a pipe transfer's wall time is far less than the serialized sum
    // of both sides' work.
    use m3_libos::pipe::{self, PipeRole, PipeWriter};
    use m3_libos::Vpe;

    let sys = m3_system(Vec::new(), 6);
    let h = sys.run_program("overlap", |env| async move {
        let total = 512 * 1024usize;
        let per_chunk_work = 2000u64; // simulated compute per 4 KiB on each side
        let chunks = (total / 4096) as u64;

        let child = Vpe::new(&env, "writer", m3_kernel::protocol::PeRequest::Same)
            .await
            .unwrap();
        let (end, desc) = pipe::create(&env, &child, PipeRole::Writer, 64 * 1024)
            .await
            .unwrap();
        let pipe::ParentEnd::Reader(mut reader) = end else {
            unreachable!()
        };
        child
            .run(move |cenv| async move {
                let Ok(mut w) = PipeWriter::attach(&cenv, desc).await else {
                    return 1;
                };
                let chunk = vec![1u8; 4096];
                for _ in 0..total / 4096 {
                    cenv.compute_app(m3_base::Cycles::new(2000)).await;
                    w.write(&chunk).await.unwrap();
                }
                w.close().await.unwrap();
                0
            })
            .await
            .unwrap();

        let t0 = env.sim().now();
        let mut buf = vec![0u8; 4096];
        while reader.read(&mut buf).await.unwrap() > 0 {
            env.compute_app(m3_base::Cycles::new(per_chunk_work)).await;
        }
        child.wait().await.unwrap();
        let wall = (env.sim().now() - t0).as_u64();

        // Both sides each burn chunks * 2000 cycles of pure compute; if they
        // ran serialized the wall time would exceed 2 * chunks * 2000. With
        // the pipe's credit window they overlap.
        let serial_compute = 2 * chunks * per_chunk_work;
        assert!(
            (wall as f64) < serial_compute as f64 * 0.95,
            "no overlap: wall={wall}, serialized compute alone={serial_compute}"
        );
        0
    });
    sys.run();
    assert_eq!(h.try_take().unwrap(), 0);
}
