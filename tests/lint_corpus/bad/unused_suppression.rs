//@path crates/sim/src/lib.rs
// A justified suppression left behind after its finding was fixed: it
// suppresses nothing now, and would silently hide the next finding that
// lands on the line below it.

fn shim() {
    // m3lint: allow(determinism): oracle map, iteration order never observed
    let m = BTreeMap::new();
    drop(m);
}
