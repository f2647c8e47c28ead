//! Regenerates every registered figure (run by `cargo bench`). Each entry
//! of `m3_bench::registry` is rendered once at full size and printed as
//! the same rows/series the paper reports, followed by the aggregate
//! number of *simulated* cycles behind it. No wall-clock timing: the
//! output is bit-identical across hosts and runs, so CI can diff it.

use m3_bench::registry::{Opts, FIGURES};

fn main() {
    println!("M3 (ASPLOS'16) reproduction — evaluation figures\n");
    for entry in FIGURES {
        let out = (entry.render)(Opts::default());
        println!("{}", out.table);
        println!(
            "[{}: {} aggregate simulated cycles]\n",
            entry.name, out.cycles
        );
    }
}
