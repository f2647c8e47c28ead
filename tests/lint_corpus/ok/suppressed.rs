//@path crates/sim/src/executor.rs
// Justified suppressions in every accepted position: trailing on the
// offending line, standalone (line comment) above it, and standalone
// block comment.

fn oracle() {
    let seen = HashMap::new(); // m3lint: allow(determinism): oracle only, iteration order never observed
    // m3lint: allow(determinism): wall-clock used for the host-side progress log, never for simulated time
    let t0 = Instant::now();
    drop((seen, t0));
}

/* m3lint: allow(determinism): host-side profiling shim, compiled out of sim builds */
fn profile() -> Instant { Instant::now() }
