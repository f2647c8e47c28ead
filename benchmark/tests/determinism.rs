//! Seeds and determinism: the same seed simulates the same thing, another
//! seed generates other inputs that pass the same checks, the PDES worker
//! count changes nothing simulated, and a wrong expectation fails ops.

use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use m3_benchmark::fs::{self, FsInput};
use m3_benchmark::{shards, Bench, Workload};

/// The executor gauges a rep reads are process-wide: tests that run reps
/// take turns, or one rep would count another's polls.
static REPS: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the gauges it left are still valid.
    REPS.lock().unwrap_or_else(PoisonError::into_inner)
}

const SEED: u64 = 7;

/// Not used while the benchmark was written.
const HELD_OUT_SEED: u64 = 1_000_003;

fn smoke_rep(w: Workload, seed: u64) -> m3_benchmark::measure::SimOut {
    Bench::new(w, seed)
        .rep(w.smoke_size(), false, shards::WORKERS)
        .sim
}

#[test]
fn same_seed_gives_identical_simulated_results() {
    let _turn = one_at_a_time();
    for w in Workload::ALL {
        let a = smoke_rep(w, SEED);
        let b = smoke_rep(w, SEED);
        assert!(a.correct(), "{}: {:?}", w.name(), a.tally);
        assert_eq!(a, b, "{}: reps of one seed differ", w.name());
    }
}

#[test]
fn held_out_seed_passes_every_check_with_other_inputs() {
    let _turn = one_at_a_time();
    for w in Workload::ALL {
        let out = smoke_rep(w, HELD_OUT_SEED);
        assert!(out.correct(), "{}: {:?}", w.name(), out.tally);
    }
    // The fs inputs change with the seed.
    let (a, b) = (FsInput::new(SEED), FsInput::new(HELD_OUT_SEED));
    assert_ne!(a.sigs, b.sigs, "file contents must follow the seed");
    assert_ne!(
        a.find.dirs, b.find.dirs,
        "the find tree must follow the seed"
    );
    // The request streams, access sequences and request order change with
    // the seed, and with them what is simulated.
    for w in [
        Workload::KvServe,
        Workload::VmOvercommit,
        Workload::ShardsPdes,
    ] {
        assert_ne!(
            smoke_rep(w, SEED).latency,
            smoke_rep(w, HELD_OUT_SEED).latency,
            "{}: the seed must change the inputs",
            w.name()
        );
    }
}

#[test]
fn shards_results_do_not_depend_on_the_worker_count() {
    let _turn = one_at_a_time();
    let size = Workload::ShardsPdes.smoke_size();
    let one = shards::rep(SEED, size, false, 1).sim;
    let two = shards::rep(SEED, size, false, 2).sim;
    assert!(one.correct());
    assert_eq!(one, two);
}

#[test]
fn a_wrong_expected_file_fails_ops() {
    let _turn = one_at_a_time();
    let mut input = FsInput::new(SEED);
    input.sigs[0].hash ^= 1;
    let input = Rc::new(input);
    let read = fs::read_rep(&input, SEED, 1, false).sim;
    // Each of the four readers reads the corrupted file once.
    assert_eq!(read.tally.failed, fs::PER_KIND as u64);
    assert!(!read.correct());
    let write = fs::write_rep(&input, 1, false).sim;
    // Each untar round verifies it once.
    assert_eq!(write.tally.failed, fs::PER_KIND as u64);
}
