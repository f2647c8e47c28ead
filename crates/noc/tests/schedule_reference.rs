//! Property: `Noc::schedule` reserves exactly the links a straightforward
//! model of the XY route would.
//!
//! The reference keeps one `BTreeMap<Link, Cycles>` entry per directed
//! link, walks `route()` behind the node's injection port (a self-link),
//! and applies the same wormhole arithmetic. Over seeded random transfer
//! sequences — bursts at one instant, scattered issue times, every size
//! class — both must return the same `Transfer` for every call.

use std::collections::BTreeMap;

use m3_base::cycles::{transfer_time, Cycles};
use m3_base::rand::Rng;
use m3_base::PeId;
use m3_noc::{route, Link, Noc, NocConfig, Topology, Transfer};

/// The link-reservation model `Noc::schedule` must agree with.
struct Reference {
    topo: Topology,
    cfg: NocConfig,
    busy_until: BTreeMap<Link, Cycles>,
}

impl Reference {
    fn new(topo: Topology, cfg: NocConfig) -> Reference {
        Reference {
            topo,
            cfg,
            busy_until: BTreeMap::new(),
        }
    }

    fn schedule(&mut self, now: Cycles, src: PeId, dst: PeId, bytes: u64) -> Transfer {
        let duration = transfer_time(bytes + self.cfg.packet_overhead, self.cfg.bytes_per_cycle);
        let at = self.topo.coord(src);
        let mut links = vec![Link { from: at, to: at }];
        links.extend(route(&self.topo, src, dst));
        let hops = links.len() as u32 - 1;
        let mut arrival = now;
        let mut waited = Cycles::ZERO;
        for link in links {
            let free_at = if self.cfg.contention {
                self.busy_until.get(&link).copied().unwrap_or(Cycles::ZERO)
            } else {
                Cycles::ZERO
            };
            let start = arrival.max(free_at);
            waited += start - arrival;
            if self.cfg.contention {
                self.busy_until.insert(link, start + duration);
            }
            arrival = start + self.cfg.hop_latency;
        }
        Transfer {
            completes_at: arrival + duration,
            waited,
            hops,
            bytes,
        }
    }
}

/// Issues `count` random transfers to both models and compares every one.
fn agree(topo: Topology, cfg: NocConfig, seed: u64, count: usize) {
    let noc = Noc::new(topo.clone(), cfg.clone());
    let mut reference = Reference::new(topo.clone(), cfg);
    let mut rng = Rng::new(seed);
    let nodes = u64::from(topo.node_count());
    let mut now = Cycles::ZERO;
    for i in 0..count {
        // Half the transfers leave at the same instant as the previous
        // one (contention), the rest after a random gap.
        if rng.next_below(2) == 0 {
            now += Cycles::new(rng.next_below(400));
        }
        let src = PeId::new(rng.next_below(nodes) as u32);
        let dst = PeId::new(rng.next_below(nodes) as u32);
        let bytes = match rng.next_below(3) {
            0 => rng.next_below(64),
            1 => rng.next_range(64, 4096),
            _ => rng.next_range(4096, 1 << 16),
        };
        let got = noc.schedule(now, src, dst, bytes);
        let want = reference.schedule(now, src, dst, bytes);
        assert_eq!(
            got, want,
            "seed {seed}, transfer {i}: {src} -> {dst}, {bytes} B at {now}"
        );
    }
}

#[test]
fn full_mesh_matches_the_link_map() {
    for seed in 0..8 {
        agree(Topology::new(4, 4, 16), NocConfig::default(), seed, 2_000);
    }
}

#[test]
fn partly_occupied_mesh_matches_the_link_map() {
    // 5x4 holding 17 nodes: XY routes cross the three empty positions of
    // the last row's right-hand side.
    for seed in 0..8 {
        agree(Topology::new(5, 4, 17), NocConfig::default(), seed, 2_000);
    }
    // A single row and a single column: routes along one axis only.
    agree(Topology::new(7, 1, 7), NocConfig::default(), 99, 1_000);
    agree(Topology::new(1, 6, 5), NocConfig::default(), 98, 1_000);
}

#[test]
fn uncontended_mesh_matches_the_link_map() {
    let cfg = NocConfig {
        contention: false,
        ..NocConfig::default()
    };
    for seed in 0..4 {
        agree(Topology::with_nodes(30), cfg.clone(), seed, 2_000);
    }
}
