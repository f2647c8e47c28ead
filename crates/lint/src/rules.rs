//! The repo-specific rule set and the per-file checking engine.
//!
//! Eight rule families (DESIGN.md "Static analysis & invariants" and §5g):
//!
//! - **determinism** — simulation code must be bit-for-bit reproducible
//!   (DESIGN.md §4.1), so nondeterministically ordered collections, wall
//!   clocks, OS threads, and seeded-from-entropy RNGs are banned.
//! - **cost-citation** — every numeric constant in a cost/timing module must
//!   cite the paper section it was taken from (§4.2).
//! - **no-unwrap** — kernel, DTU, and filesystem code has a real error type
//!   (`m3_base::error::Error`); panicking on fallible paths is banned.
//! - **isolation** — the kernel-only DTU configuration surface (the
//!   `KernelToken`-gated setters) may only be *reached* from `crates/kernel`
//!   and test code, mirroring the paper's §4.4 isolation argument. Checked
//!   as a use-graph: naming a gated setter, wrapping one in a `pub` fn, or
//!   (inside `crates/dtu`) exposing a non-token path to one all count.
//! - **borrow-across-await** — a `RefCell` borrow guard must not be live
//!   across an `.await` point; see [`crate::borrow`].
//! - **cycle-accounting** — `pub` fns in dtu/noc/sched that write
//!   architectural state must reach a cycle-charging call; see
//!   [`crate::cycles`].
//! - **child-poll** — no combinator polls a child future outside
//!   `crates/sim` (no `poll_fn`, no `.poll(..)` call): the executor
//!   resumes a sleeping task in place only while no combinator is polling
//!   children (DESIGN.md §5d), and only `m3_sim`'s combinators turn that
//!   off around their child's poll.
//! - **suppression** — pseudo-rule for malformed suppressions themselves,
//!   and for justified ones that suppress no finding.
//!
//! All checks run on the spanned token stream from [`crate::lexer`] and the
//! block tree from [`crate::tree`], so string literals, comments, raw
//! strings and char literals can never confuse an identifier match.

use std::cell::Cell;
use std::path::Path;

use crate::lexer::{lex, Kind, Token};
use crate::tree::Tree;
use crate::{borrow, cycles, isolation};

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`check_file`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (usable in a suppression).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule identifiers, as accepted by `// m3lint: allow(<rule>): <why>`.
pub const RULES: &[&str] = &[
    "determinism",
    "cost-citation",
    "no-unwrap",
    "isolation",
    "borrow-across-await",
    "cycle-accounting",
    "child-poll",
];

/// Crates whose code runs inside the simulation and must be deterministic.
const SIM_CRATES: &[&str] = &[
    "sim", "noc", "dtu", "platform", "kernel", "libos", "fs", "lx", "apps", "bench", "core",
    "trace", "fault", "sched", "serve", "vm",
];

/// Crates where `unwrap()`/`expect()` are banned outside test code.
const NO_UNWRAP_CRATES: &[&str] = &["kernel", "dtu", "fs"];

/// Identifiers whose mere appearance violates the determinism rule.
const NONDETERMINISTIC_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "use BTreeMap (sorted, deterministic iteration) instead",
    ),
    (
        "HashSet",
        "use BTreeSet (sorted, deterministic iteration) instead",
    ),
    (
        "Instant",
        "use simulated time (Sim::now) instead of the wall clock",
    ),
    (
        "SystemTime",
        "use simulated time (Sim::now) instead of the wall clock",
    ),
    ("thread_rng", "use the seeded m3_base::rand::Rng instead"),
];

/// How a path is classified for rule scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// The crate the file belongs to (`"repro"` for the workspace root).
    pub krate: String,
    /// Under a `tests/` directory (integration tests).
    pub in_tests_dir: bool,
    /// Under a `benches/` directory.
    pub in_benches_dir: bool,
    /// Under an `examples/` directory.
    pub in_examples_dir: bool,
}

impl FileClass {
    /// Whether the file is any kind of sanctioned harness code (integration
    /// tests, benches, examples) rather than simulation source.
    pub fn is_harness(&self) -> bool {
        self.in_tests_dir || self.in_benches_dir || self.in_examples_dir
    }
}

/// Classifies a repo-relative path like `crates/dtu/src/dtu.rs`.
pub fn classify(path: &Path) -> FileClass {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    let krate = if comps.first() == Some(&"crates") && comps.len() > 1 {
        comps[1].to_string()
    } else {
        "repro".to_string()
    };
    FileClass {
        krate,
        in_tests_dir: comps.contains(&"tests"),
        in_benches_dir: comps.contains(&"benches"),
        in_examples_dir: comps.contains(&"examples"),
    }
}

/// A parsed `m3lint: allow(...)` suppression.
#[derive(Debug, Clone)]
struct Suppression {
    rules: Vec<String>,
    justified: bool,
    /// Line the suppression was written on.
    line: usize,
    /// Whether the comment shares its line with code (suppresses that line)
    /// or stands alone (suppresses the next line).
    trailing: bool,
}

/// The suppression-relevant text of a comment token: the text after `//`
/// (doc comments keep their extra slash/bang, so they never suppress), or
/// the interior of a block comment.
fn comment_payload<'s>(tok: &Token, src: &'s str) -> &'s str {
    let text = tok.text(src);
    if let Some(rest) = text.strip_prefix("//") {
        rest
    } else {
        text.strip_prefix("/*")
            .map(|t| t.strip_suffix("*/").unwrap_or(t))
            .unwrap_or(text)
    }
}

fn parse_suppression(tree: &Tree, tok: &Token) -> Option<Suppression> {
    // Only a comment that *starts* with the marker is a suppression; prose
    // that merely mentions the syntax (like this crate's docs) is not.
    let text = comment_payload(tok, tree.src).trim();
    let rest = text.strip_prefix("m3lint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let open = rest.strip_prefix('(')?;
    let close = open.find(')')?;
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = open[close + 1..].trim_start();
    let justified = match after.strip_prefix(':') {
        Some(just) => !just.trim().is_empty(),
        None => false,
    };
    let trailing = tree
        .lines
        .get(&tok.line)
        .map(|l| l.has_code)
        .unwrap_or(false);
    Some(Suppression {
        rules,
        justified,
        line: tok.line,
        trailing,
    })
}

/// Checks one file's source against every applicable rule.
///
/// `path` must be repo-relative (used for rule scoping and reporting).
pub fn check_file(path: &Path, source: &str) -> Vec<Finding> {
    let class = classify(path);
    let toks = lex(source);
    let tree = Tree::build(source, &toks);
    let file = path.display().to_string();

    // Collect suppressions first: map line number -> suppressed rules.
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for tok in &tree.comments {
        if let Some(sup) = parse_suppression(&tree, tok) {
            if !sup.justified {
                findings.push(Finding {
                    file: file.clone(),
                    line: sup.line,
                    rule: "suppression",
                    message: "m3lint suppression lacks a justification: write \
                              `// m3lint: allow(<rule>): <why this is sound>`"
                        .to_string(),
                });
            }
            for r in &sup.rules {
                if !RULES.contains(&r.as_str()) {
                    findings.push(Finding {
                        file: file.clone(),
                        line: sup.line,
                        rule: "suppression",
                        message: format!(
                            "unknown rule `{r}` in m3lint suppression (known: {})",
                            RULES.join(", ")
                        ),
                    });
                }
            }
            suppressions.push(sup);
        }
    }
    // Which suppressions silenced a finding; the rest are reported below.
    let used: Vec<Cell<bool>> = vec![Cell::new(false); suppressions.len()];
    let allowed = |rule: &str, line_no: usize| -> bool {
        let mut hit = false;
        for (s, used) in suppressions.iter().zip(&used) {
            if s.justified
                && s.rules.iter().any(|r| r == rule)
                && ((s.trailing && s.line == line_no) || (!s.trailing && s.line + 1 == line_no))
            {
                used.set(true);
                hit = true;
            }
        }
        hit
    };
    let mut push = |rule: &'static str, line_no: usize, message: String| {
        if !allowed(rule, line_no) {
            findings.push(Finding {
                file: file.clone(),
                line: line_no,
                rule,
                message,
            });
        }
    };

    let sim_scope = SIM_CRATES.contains(&class.krate.as_str()) || class.krate == "repro";
    // Determinism: simulation crates' src/ and benches/ (benches feed the
    // figures, which must be host-independent). Test code may use hashed
    // collections for oracles.
    let determinism_applies = sim_scope && !class.in_tests_dir && !class.in_examples_dir;
    // Robustness: kernel/dtu/fs src only; tests, benches, examples exempt.
    let no_unwrap_applies = NO_UNWRAP_CRATES.contains(&class.krate.as_str()) && !class.is_harness();
    // Cost accounting: any cost/timing module in a simulation crate.
    let file_name = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
    let costs_applies = sim_scope && matches!(file_name, "costs.rs" | "timing.rs");
    // The PDES coordinator is the one sanctioned `std::thread` user in the
    // simulation crates: it runs whole islands on worker threads while the
    // conservative window protocol keeps simulated time deterministic
    // (DESIGN.md §5i). Everywhere else in sim scope OS threads stay banned.
    let pdes_coordinator = class.krate == "sim" && file_name == "pdes.rs";
    // Child polls: simulation source outside crates/sim, whose combinators
    // cannot turn resumption in place off around the child's poll.
    let child_poll_applies = sim_scope && class.krate != "sim" && !class.is_harness();

    for (i, tok) in tree.code.iter().enumerate() {
        if tree.test_mask[i] || tok.kind != Kind::Ident {
            continue;
        }
        let text = tok.text(source);

        if determinism_applies {
            for (bad, fix) in NONDETERMINISTIC_IDENTS {
                if text == *bad {
                    push(
                        "determinism",
                        tok.line,
                        format!("`{bad}` is nondeterministic in simulation code: {fix}"),
                    );
                }
            }
            // `thread::spawn` / `std::thread`: a path of identifiers, so
            // check the token sequence, not a substring.
            let path_seq = |a: &str, b: &str| {
                text == a
                    && tree.code.len() > i + 3
                    && tree.is_punct(i + 1, ':')
                    && tree.is_punct(i + 2, ':')
                    && tree.is_ident(i + 3, b)
            };
            if (path_seq("thread", "spawn") || path_seq("std", "thread")) && !pdes_coordinator {
                push(
                    "determinism",
                    tok.line,
                    "OS threads break deterministic scheduling: use Sim::spawn tasks \
                     (std::thread is confined to the PDES coordinator, \
                     crates/sim/src/pdes.rs)"
                        .to_string(),
                );
            }
        }

        if no_unwrap_applies
            && (text == "unwrap" || text == "expect")
            && i > 0
            && tree.is_punct(i - 1, '.')
            && i + 1 < tree.code.len()
            && tree.code[i + 1].kind == Kind::OpenParen
        {
            push(
                "no-unwrap",
                tok.line,
                format!(
                    "`.{text}()` in {} code panics on fallible paths: \
                     return m3_base::error::Error instead",
                    class.krate
                ),
            );
        }

        if child_poll_applies {
            let method_call = text == "poll"
                && i > 0
                && tree.is_punct(i - 1, '.')
                && i + 1 < tree.code.len()
                && tree.code[i + 1].kind == Kind::OpenParen;
            if text == "poll_fn" || method_call {
                let what = if method_call { ".poll()" } else { "poll_fn" };
                push(
                    "child-poll",
                    tok.line,
                    format!(
                        "`{what}` polls a child future outside m3_sim: the executor may \
                         resume a sleep inside it in place, past anything the combinator \
                         does after `Pending`; write the combinator in crates/sim and poll \
                         the child under `Sim::poll_child` (DESIGN.md §5d)"
                    ),
                );
            }
        }
    }

    if costs_applies {
        check_cost_citations(&tree, &mut push);
    }

    isolation::check(&tree, &class, &mut push);
    borrow::check(&tree, &class, &mut push);
    cycles::check(&tree, &class, &mut push);

    // A justified suppression that silenced nothing hides the next real
    // finding on its line; one naming an unknown rule is flagged above.
    for (sup, used) in suppressions.iter().zip(&used) {
        let known = sup.rules.iter().all(|r| RULES.contains(&r.as_str()));
        if sup.justified && known && !used.get() {
            findings.push(Finding {
                file: file.clone(),
                line: sup.line,
                rule: "suppression",
                message: format!(
                    "m3lint suppression of `{}` suppresses nothing: delete it",
                    sup.rules.join(", ")
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    findings
}

/// Every `const` with a numeric initializer in a costs module must carry a
/// `§`-citation in a comment on the same line or in the doc block above.
fn check_cost_citations(tree: &Tree, push: &mut impl FnMut(&'static str, usize, String)) {
    for i in 0..tree.code.len() {
        if tree.test_mask[i] || !tree.is_ident(i, "const") {
            continue;
        }
        let line_no = tree.code[i].line;
        // Only `const` at the start of its line (optionally behind `pub`)
        // declares a cost constant; a `const` in an expression does not.
        let leading = tree.code[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == line_no)
            .all(|t| matches!(t.text(tree.src), "pub" | "(" | "crate" | ")"));
        if !leading {
            continue;
        }
        // `const fn` is a function, not a constant.
        if i + 1 < tree.code.len() && tree.is_ident(i + 1, "fn") {
            continue;
        }
        // Scan the declaration: `const NAME: Ty = init;` — a citation is
        // required only when the initializer contains a numeric literal
        // (re-exports and derived constants inherit theirs).
        let mut j = i + 1;
        let mut saw_eq = false;
        let mut numeric = false;
        while j < tree.code.len() {
            let t = &tree.code[j];
            if t.kind == Kind::Punct && t.text(tree.src) == ";" {
                break;
            }
            if t.kind == Kind::Punct && t.text(tree.src) == "=" {
                saw_eq = true;
            } else if saw_eq && t.kind == Kind::Num {
                numeric = true;
            }
            j += 1;
        }
        if !saw_eq || !numeric {
            continue;
        }
        if cited(tree, line_no) {
            continue;
        }
        push(
            "cost-citation",
            line_no,
            "numeric cost constant without a paper citation: add a \
             `§x.y` reference in its doc comment"
                .to_string(),
        );
    }
}

/// Whether the constant on `line_no` carries a `§` citation: in a trailing
/// comment on its own line, or in the contiguous comment/attribute block
/// directly above it.
fn cited(tree: &Tree, line_no: usize) -> bool {
    if let Some(info) = tree.lines.get(&line_no) {
        if info.comment.contains('§') {
            return true;
        }
    }
    let mut j = line_no;
    while j > 1 {
        j -= 1;
        let Some(info) = tree.lines.get(&j) else {
            return false; // fully blank line ends the doc block
        };
        if info.has_code && !info.starts_with_attr {
            return false;
        }
        if info.comment.contains('§') {
            return true;
        }
        if !info.has_code && info.comment.is_empty() {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&PathBuf::from(path), src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---------------- determinism ----------------

    #[test]
    fn determinism_flags_hashmap_in_sim_crate() {
        let f = check(
            "crates/sim/src/executor.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(rules_of(&f), vec!["determinism"]);
        assert!(f[0].message.contains("BTreeMap"));
    }

    #[test]
    fn determinism_flags_instant_and_systemtime() {
        let f = check(
            "crates/bench/benches/figures.rs",
            "let t = Instant::now();\nlet s = SystemTime::now();\n",
        );
        assert_eq!(rules_of(&f), vec!["determinism", "determinism"]);
    }

    #[test]
    fn determinism_flags_thread_spawn_and_thread_rng() {
        let f = check(
            "crates/noc/src/network.rs",
            "std::thread::spawn(|| {});\nlet r = rand::thread_rng();\n",
        );
        assert!(rules_of(&f).contains(&"determinism"));
        assert!(f.len() >= 2);
    }

    #[test]
    fn thread_is_confined_to_the_pdes_coordinator() {
        let src = "pub fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        // The coordinator module itself is sanctioned...
        assert!(rules_of(&check("crates/sim/src/pdes.rs", src)).is_empty());
        // ...but nowhere else in the sim crates, including the rest of
        // crates/sim and a pdes.rs that lives in another crate.
        assert_eq!(
            rules_of(&check("crates/sim/src/executor.rs", src)),
            vec!["determinism"]
        );
        assert_eq!(
            rules_of(&check("crates/noc/src/pdes.rs", src)),
            vec!["determinism"]
        );
    }

    // ---------------- child-poll ----------------

    #[test]
    fn child_poll_flags_combinators_outside_the_sim_crate() {
        let src = "fn race(cx: &mut Context) {\n\
                   let _ = std::future::poll_fn(|_| Poll::Ready(()));\n\
                   let _ = fut.as_mut().poll(cx);\n}\n";
        let f = check("crates/serve/src/race.rs", src);
        assert_eq!(rules_of(&f), vec!["child-poll", "child-poll"]);
        assert_eq!((f[0].line, f[1].line), (2, 3));
        // crates/sim polls its children under its own guard, and test
        // code is exempt.
        assert!(check("crates/sim/src/deadline.rs", src).is_empty());
        assert!(check("tests/sim_behavior.rs", src).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(check("crates/serve/src/race.rs", &in_test).is_empty());
        // A function named `poll`, or a field, is not a call on a child.
        let decl = "fn poll(self: Pin<&mut Self>) {}\nlet p = x.poll;\n";
        assert!(check("crates/serve/src/race.rs", decl).is_empty());
    }

    #[test]
    fn determinism_ignores_strings_and_comments() {
        let f = check(
            "crates/sim/src/lib.rs",
            "// HashMap would be wrong here\nlet s = \"HashMap\"; /* Instant */\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_ignores_raw_strings_and_byte_chars() {
        // Lexer edge cases: a raw string with a `#`-count mismatch inside,
        // and byte-char literals, must not leak identifiers into the rules.
        let src = "let a = r##\"HashMap \"# Instant\"##;\nlet b = b'H'; let c = b'\\n';\n";
        let f = check("crates/sim/src/lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_ignores_nested_block_comments() {
        let src = "/* outer /* HashMap inner */ SystemTime still comment */ fn f() {}\n";
        let f = check("crates/sim/src/lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(check("crates/fs/src/fs.rs", src).is_empty());
    }

    #[test]
    fn determinism_not_applied_outside_sim_crates() {
        let f = check(
            "crates/lint/src/rules.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn btreemap_is_fine() {
        let f = check(
            "crates/sim/src/executor.rs",
            "use std::collections::BTreeMap;\n",
        );
        assert!(f.is_empty());
    }

    // ---------------- no-unwrap ----------------

    #[test]
    fn no_unwrap_flags_kernel_dtu_fs() {
        for krate in ["kernel", "dtu", "fs"] {
            let f = check(&format!("crates/{krate}/src/x.rs"), "let v = y.unwrap();\n");
            assert_eq!(rules_of(&f), vec!["no-unwrap"], "{krate}");
        }
    }

    #[test]
    fn no_unwrap_flags_expect() {
        let f = check("crates/kernel/src/kernel.rs", "y.expect(\"boom\");\n");
        assert_eq!(rules_of(&f), vec!["no-unwrap"]);
    }

    #[test]
    fn no_unwrap_allows_unwrap_or_and_err_variants() {
        let src = "a.unwrap_or(0); b.unwrap_or_else(f); c.unwrap_err(); d.unwrap_or_default(); e.expect_err(\"x\");\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn no_unwrap_skips_tests_and_other_crates() {
        let src = "let v = y.unwrap();\n";
        assert!(check("crates/kernel/tests/t.rs", src).is_empty());
        assert!(check("crates/libos/src/gate.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        assert!(check("crates/dtu/src/dtu.rs", test_mod).is_empty());
    }

    #[test]
    fn no_unwrap_ignores_doc_examples() {
        let src = "/// ```\n/// x.unwrap();\n/// ```\npub fn f() {}\n";
        assert!(check("crates/dtu/src/dtu.rs", src).is_empty());
    }

    // ---------------- cost-citation ----------------

    #[test]
    fn cost_citation_requires_section_mark() {
        let src = "/// DRAM access latency.\npub const DRAM: u64 = 40;\n";
        let f = check("crates/kernel/src/costs.rs", src);
        assert_eq!(rules_of(&f), vec!["cost-citation"]);
    }

    #[test]
    fn cost_citation_satisfied_by_doc_block() {
        let src = "/// DRAM access latency (paper §4.2, Table 1).\npub const DRAM: u64 = 40;\n";
        assert!(check("crates/kernel/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_satisfied_by_trailing_comment() {
        let src = "pub const DRAM: u64 = 40; // §4.2\n";
        assert!(check("crates/lx/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_applies_to_timing_modules() {
        let src = "pub const DELIVER: u64 = 3;\n";
        let f = check("crates/dtu/src/timing.rs", src);
        assert_eq!(rules_of(&f), vec!["cost-citation"]);
    }

    #[test]
    fn cost_citation_ignores_non_numeric_consts() {
        let src = "pub const NAME: &str = \"m3\";\npub const ALIAS: u64 = OTHER;\n";
        assert!(check("crates/kernel/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_ignores_digits_in_identifiers() {
        // `X2` contains a digit but is an identifier, not a literal: the
        // old line scanner flagged this; the token engine must not.
        let src = "pub const ALIAS: u64 = OTHER_V2;\n";
        assert!(check("crates/kernel/src/costs.rs", src).is_empty());
    }

    #[test]
    fn sched_crate_is_in_simulation_scope() {
        // The scheduler orders run queues: hashed iteration there would
        // change which VPE a vacant PE claims, so determinism applies...
        let f = check(
            "crates/sched/src/lib.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(rules_of(&f), vec!["determinism"]);
        // ...and its switch costs are model constants needing citations.
        let src = "pub const CTX_SAVE_FIXED: u64 = 80;\n";
        let f = check("crates/sched/src/costs.rs", src);
        assert_eq!(rules_of(&f), vec!["cost-citation"]);
    }

    #[test]
    fn cost_citation_only_in_cost_modules() {
        let src = "pub const SLOTS: usize = 8;\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
    }

    // ---------------- isolation ----------------

    #[test]
    fn isolation_flags_kernel_surface_outside_kernel() {
        for ident in [
            "KernelToken",
            "claim_kernel_token",
            "set_privileged",
            "refill_credits",
        ] {
            let src = format!("use m3_dtu::{ident};\n");
            let f = check("crates/libos/src/gate.rs", &src);
            assert_eq!(rules_of(&f), vec!["isolation"], "{ident}");
        }
    }

    #[test]
    fn isolation_allows_kernel_dtu_and_tests() {
        let src = "let t = dtu.claim_kernel_token();\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
        assert!(check("crates/dtu/src/dtu.rs", src).is_empty());
        assert!(check("tests/system_integration.rs", src).is_empty());
        assert!(check("crates/bench/benches/micro.rs", src).is_empty());
    }

    // ---------------- suppressions ----------------

    #[test]
    fn trailing_suppression_with_justification() {
        let src = "let m = HashMap::new(); // m3lint: allow(determinism): oracle only, order never observed\n";
        assert!(check("crates/sim/src/executor.rs", src).is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "// m3lint: allow(no-unwrap): infallible by construction, len checked above\nlet v = y.unwrap();\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_justification_is_rejected() {
        let src = "let m = HashMap::new(); // m3lint: allow(determinism)\n";
        let f = check("crates/sim/src/executor.rs", src);
        let rules = rules_of(&f);
        assert!(rules.contains(&"suppression"), "{f:?}");
        assert!(
            rules.contains(&"determinism"),
            "unjustified suppression must not suppress"
        );
    }

    #[test]
    fn suppression_with_empty_justification_is_rejected() {
        let src = "let m = HashMap::new(); // m3lint: allow(determinism):   \n";
        let f = check("crates/sim/src/executor.rs", src);
        assert!(rules_of(&f).contains(&"suppression"));
    }

    #[test]
    fn suppression_of_unknown_rule_is_rejected() {
        let src = "// m3lint: allow(nonsense): because\nlet x = 1;\n";
        let f = check("crates/sim/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec!["suppression"]);
    }

    #[test]
    fn suppression_that_suppresses_nothing_is_rejected() {
        let src = "// m3lint: allow(determinism): oracle map\nlet m = BTreeMap::new();\n";
        let f = check("crates/sim/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec!["suppression"]);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("suppresses nothing"), "{f:?}");
    }

    #[test]
    fn suppression_out_of_its_rule_scope_suppresses_nothing() {
        // no-unwrap does not apply to sim code, so the allow is dead.
        let src = "let v = y.unwrap(); // m3lint: allow(no-unwrap): len checked above\n";
        let f = check("crates/sim/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec!["suppression"]);
    }

    #[test]
    fn suppression_counts_as_used_if_any_rule_fires() {
        let src = "let m = HashMap::new(); // m3lint: allow(determinism, no-unwrap): oracle map\n";
        assert!(check("crates/sim/src/executor.rs", src).is_empty());
    }

    #[test]
    fn suppression_only_covers_named_rule() {
        let src = "let m = HashMap::new(); let v = y.unwrap(); // m3lint: allow(determinism): oracle map\n";
        let f = check("crates/kernel/src/kernel.rs", src);
        assert_eq!(rules_of(&f), vec!["no-unwrap"]);
    }

    #[test]
    fn suppression_covers_multiple_rules() {
        let src = "let m = HashMap::new(); let v = y.unwrap(); // m3lint: allow(determinism, no-unwrap): test harness shim\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn doc_comment_does_not_suppress() {
        let src =
            "/// m3lint: allow(determinism): prose, not a suppression\nlet m = HashMap::new();\n";
        let f = check("crates/sim/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec!["determinism"]);
    }

    #[test]
    fn block_comment_suppression_works() {
        let src =
            "let m = HashMap::new(); /* m3lint: allow(determinism): oracle, order unused */\n";
        assert!(check("crates/sim/src/executor.rs", src).is_empty());
    }

    #[test]
    fn new_rules_are_suppressible_by_name() {
        for rule in ["borrow-across-await", "cycle-accounting"] {
            assert!(RULES.contains(&rule));
        }
    }

    #[test]
    fn finding_display_format() {
        let f = check(
            "crates/sim/src/executor.rs",
            "use std::collections::HashMap;\n",
        );
        let s = f[0].to_string();
        assert!(s.contains("crates/sim/src/executor.rs:1:"));
        assert!(s.contains("[determinism]"));
    }
}
