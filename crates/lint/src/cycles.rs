//! The cycle-accounting rule.
//!
//! A simulator's credibility is its cost model (MGSim, PAPERS.md): every
//! mutation of architectural state — EP registers, ring buffers, credits,
//! link queues, run queues — must charge simulated cycles, or the timing
//! model silently diverges from the paper while the functional model keeps
//! passing tests.
//!
//! The rule applies to `crates/dtu`, `crates/noc`, and `crates/sched`
//! source. A `pub` fn *mutates* if it takes `&mut self` or calls
//! `borrow_mut()` in its body. It *charges* if its body (or, transitively,
//! a same-file fn it calls) reaches one of the charging primitives:
//! `sleep`, `sleep_until`, `advance`, `charge`, `schedule`, or constructs a
//! `Sleep` future. A fn that mutates without charging needs either a fix or
//! an explicit `// m3lint: allow(cycle-accounting): <why>` naming where the
//! cost is charged instead (the suppression goes on — or directly above —
//! the `fn` signature line).

use crate::lexer::Kind;
use crate::rules::FileClass;
use crate::tree::{Function, Tree};

/// Identifiers that charge simulated time (or are the charging primitive
/// itself, for fns named after one).
const CHARGE_IDENTS: &[&str] = &[
    "sleep",
    "sleep_until",
    "advance",
    "charge",
    "schedule",
    "Sleep",
];

/// Runs the rule over the file.
pub fn check(tree: &Tree, class: &FileClass, push: &mut impl FnMut(&'static str, usize, String)) {
    if !matches!(class.krate.as_str(), "dtu" | "noc" | "sched") || class.is_harness() {
        return;
    }
    let idents = tree.body_idents();
    // A fn charges if its own name is a primitive, its body names a
    // primitive, or its body names a same-file fn that charges.
    let charges = tree.reaches(
        &idents,
        |i| {
            CHARGE_IDENTS.contains(&tree.functions[i].name.as_str())
                || idents[i].iter().any(|id| CHARGE_IDENTS.contains(id))
        },
        |_| false,
    );

    for (i, f) in tree.functions.iter().enumerate() {
        if !f.is_pub || f.in_test || f.body.is_none() || charges[i] {
            continue;
        }
        if !mutates(tree, f, &idents[i]) {
            continue;
        }
        push(
            "cycle-accounting",
            f.sig_line,
            format!(
                "pub fn `{}` writes architectural state without reaching a \
                 cycle-charging call (sleep/advance/charge/schedule): charge the \
                 documented cost, or add `// m3lint: allow(cycle-accounting): <where \
                 the cost is charged instead>` on the signature line",
                f.name
            ),
        );
    }
}

/// Whether the fn writes state: a `&mut self` receiver or a `borrow_mut`
/// call in the body.
fn mutates(tree: &Tree, f: &Function, idents: &[&str]) -> bool {
    if idents.contains(&"borrow_mut") {
        return true;
    }
    // Look for `& [lifetime] mut self` in the signature (between the fn
    // name and the body).
    let Some((open, _)) = f.body else {
        return false;
    };
    // Find the fn's parameter list start: scan backwards from the body for
    // the signature span. Simpler: scan the whole span from sig start.
    let sig_start = tree
        .code
        .iter()
        .position(|t| t.line >= f.sig_line)
        .unwrap_or(0);
    let mut i = sig_start;
    while i + 2 < open {
        if tree.is_punct(i, '&') {
            let mut j = i + 1;
            if j < open && tree.code[j].kind == Kind::Lifetime {
                j += 1;
            }
            if j + 1 < open && tree.is_ident(j, "mut") && tree.is_ident(j + 1, "self") {
                return true;
            }
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::rules::{check_file, Finding};
    use std::path::PathBuf;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&PathBuf::from(path), src)
    }

    fn cycle_lines(f: &[Finding]) -> Vec<usize> {
        f.iter()
            .filter(|f| f.rule == "cycle-accounting")
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn free_mutation_is_flagged() {
        let src = "impl RingBuf {\n\
                   pub fn deposit(&mut self, m: Message) -> bool {\n\
                   self.queue.push_back(m); true\n\
                   }\n\
                   }\n";
        let f = check("crates/dtu/src/ringbuf.rs", src);
        assert_eq!(cycle_lines(&f), vec![2]);
        assert!(f[0].message.contains("deposit"));
    }

    #[test]
    fn direct_charge_is_fine() {
        let src = "impl Dtu {\n\
                   pub async fn send(&self) {\n\
                   self.state.borrow_mut().x += 1;\n\
                   self.sim.sleep(SEND_COST).await;\n\
                   }\n\
                   }\n";
        assert!(cycle_lines(&check("crates/dtu/src/dtu.rs", src)).is_empty());
    }

    #[test]
    fn transitive_charge_through_local_fn_is_fine() {
        let src = "impl Net {\n\
                   pub fn occupy(&mut self) { self.reserve(); }\n\
                   fn reserve(&mut self) { self.sim.advance(COST); }\n\
                   }\n";
        assert!(cycle_lines(&check("crates/noc/src/network.rs", src)).is_empty());
    }

    #[test]
    fn fn_named_schedule_is_a_charging_primitive() {
        let src = "impl Noc {\n\
                   pub fn schedule(&self, n: u64) -> Transfer {\n\
                   let mut inner = self.inner.borrow_mut();\n\
                   inner.busy_until = n; Transfer::new(n)\n\
                   }\n\
                   }\n";
        assert!(cycle_lines(&check("crates/noc/src/network.rs", src)).is_empty());
    }

    #[test]
    fn private_and_non_mutating_fns_are_exempt() {
        let src = "impl S {\n\
                   fn internal(&mut self) { self.x += 1; }\n\
                   pub fn read(&self) -> u32 { self.x }\n\
                   }\n";
        assert!(cycle_lines(&check("crates/sched/src/lib.rs", src)).is_empty());
    }

    #[test]
    fn suppression_on_signature_line_works() {
        let src = "impl Sched {\n\
                   // m3lint: allow(cycle-accounting): switch cost charged by kernel::perform_switch §4.4.3\n\
                   pub fn admit(&mut self, v: VpeId) {\n\
                   self.queue.push(v);\n\
                   }\n\
                   }\n";
        assert!(cycle_lines(&check("crates/sched/src/lib.rs", src)).is_empty());
    }

    #[test]
    fn outside_scope_crates_are_exempt() {
        let src = "pub fn mutate(x: &mut State) { x.v.borrow_mut().push(1); }\n";
        assert!(cycle_lines(&check("crates/kernel/src/kernel.rs", src)).is_empty());
        assert!(cycle_lines(&check("crates/dtu/tests/t.rs", src)).is_empty());
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   pub fn helper(s: &mut S) { s.q.borrow_mut().clear(); }\n\
                   }\n";
        assert!(cycle_lines(&check("crates/dtu/src/dtu.rs", src)).is_empty());
    }
}
