//! The isolation rule (v2): a use-graph check of the kernel-only surface.
//!
//! The paper's §4.4 isolation argument rests on the DTU configuration
//! registers being writable only by the kernel's privileged DTU. In the
//! reproduction that surface is the `KernelToken` capability and its
//! methods. Three things violate it:
//!
//! 1. **Naming** a gated identifier outside `crates/kernel`, `crates/dtu`,
//!    and sanctioned test/bench/example code.
//! 2. **Wrapping**: a `pub` fn outside the kernel whose body reaches a
//!    gated identifier re-exports the capability to its callers, even if
//!    the fn's own name is innocent.
//! 3. **Backdoors inside `crates/dtu`**: a `pub` fn *not* on
//!    `impl KernelToken` (and not the sanctioned `claim_kernel_token`
//!    constructor) from which a gated *mutator* is reachable through
//!    same-file calls — that would let unprivileged code configure
//!    endpoints without holding the token.

use crate::lexer::Kind;
use crate::rules::FileClass;
use crate::tree::Tree;

/// The kernel-only DTU configuration surface. `has_message` is part of the
/// token API too but shares its name with the *unprivileged*
/// `Dtu::has_message`, so it is deliberately not name-gated.
const GATED_IDENTS: &[&str] = &[
    "KernelToken",
    "claim_kernel_token",
    "set_privileged",
    "refill_credits",
    "save_state",
    "restore_state",
    "stash_config",
    "set_current_ctx",
    "drop_saved",
    "saved_has_message",
    "arrival_notify",
    "ctx_doorbell",
    "ep_config",
];

/// The subset that mutates DTU state; used for the in-dtu backdoor check.
const GATED_MUTATORS: &[&str] = &[
    "set_privileged",
    "refill_credits",
    "save_state",
    "restore_state",
    "stash_config",
    "set_current_ctx",
    "drop_saved",
    "ctx_doorbell",
    "configure",
];

/// Runs the rule over the file.
pub fn check(tree: &Tree, class: &FileClass, push: &mut impl FnMut(&'static str, usize, String)) {
    if class.is_harness() || matches!(class.krate.as_str(), "kernel" | "lint") {
        return;
    }
    let idents = tree.body_idents();
    if class.krate == "dtu" {
        check_dtu_backdoors(tree, &idents, push);
        return;
    }

    // 1. Use sites.
    for (i, tok) in tree.code.iter().enumerate() {
        if tree.test_mask[i] || tok.kind != Kind::Ident {
            continue;
        }
        let text = tok.text(tree.src);
        if GATED_IDENTS.contains(&text) {
            push(
                "isolation",
                tok.line,
                format!(
                    "`{text}` is part of the kernel-only DTU configuration surface \
                     (paper §4.4): only crates/kernel and test code may name it"
                ),
            );
        }
    }

    // 2. Wrappers: a pub fn whose body names a gated identifier leaks the
    // capability outward even if the use site itself were justified.
    for (f, idents) in tree.functions.iter().zip(&idents) {
        if !f.is_pub || f.in_test {
            continue;
        }
        if let Some(used) = idents.iter().find(|t| GATED_IDENTS.contains(t)) {
            push(
                "isolation",
                f.sig_line,
                format!(
                    "pub fn `{}` wraps the kernel-only surface (`{used}`) and \
                     re-exports it to unprivileged callers",
                    f.name
                ),
            );
        }
    }
}

/// Inside `crates/dtu`: a pub fn off `impl KernelToken` must not reach a
/// gated mutator through same-file calls.
fn check_dtu_backdoors(
    tree: &Tree,
    idents: &[Vec<&str>],
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let is_token_fn = |idx: usize| -> bool {
        let f = &tree.functions[idx];
        f.impl_of.as_deref() == Some("KernelToken") || f.name == "claim_kernel_token"
    };
    // A non-token fn reaches a mutator directly or via a same-file
    // non-token fn that does.
    let reaches = tree.reaches(
        idents,
        |i| idents[i].iter().any(|id| GATED_MUTATORS.contains(id)),
        is_token_fn,
    );

    for (i, f) in tree.functions.iter().enumerate() {
        if !f.is_pub || f.in_test || is_token_fn(i) || !reaches[i] {
            continue;
        }
        push(
            "isolation",
            f.sig_line,
            format!(
                "pub fn `{}` reaches a KernelToken-gated mutator without going \
                 through the token: unprivileged code could configure endpoints \
                 (paper §4.4)",
                f.name
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{check_file, Finding};
    use std::path::PathBuf;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&PathBuf::from(path), src)
    }

    fn iso(f: &[Finding]) -> Vec<(usize, String)> {
        f.iter()
            .filter(|f| f.rule == "isolation")
            .map(|f| (f.line, f.message.clone()))
            .collect()
    }

    #[test]
    fn extended_surface_is_gated() {
        for ident in [
            "save_state",
            "restore_state",
            "stash_config",
            "drop_saved",
            "ctx_doorbell",
        ] {
            let src = format!("fn f(t: &T) {{ t.{ident}(); }}\n");
            let f = check("crates/libos/src/gate.rs", &src);
            assert!(!iso(&f).is_empty(), "{ident}");
        }
    }

    #[test]
    fn pub_wrapper_is_flagged_twice() {
        // Once for the use site, once for the pub fn that re-exports it.
        let src = "pub fn backdoor(d: &Dtu) {\n\
                   d.claim_kernel_token().set_privileged(p, true);\n\
                   }\n";
        let f = check("crates/libos/src/gate.rs", src);
        let msgs = iso(&f);
        assert!(msgs.iter().any(|(l, _)| *l == 2), "{msgs:?}");
        assert!(
            msgs.iter().any(|(l, m)| *l == 1 && m.contains("wraps")),
            "{msgs:?}"
        );
    }

    #[test]
    fn private_fn_use_is_one_finding() {
        let src = "fn helper(d: &Dtu) { d.claim_kernel_token(); }\n";
        let f = check("crates/libos/src/gate.rs", src);
        assert_eq!(iso(&f).len(), 1);
    }

    #[test]
    fn dtu_backdoor_wrapper_is_flagged() {
        let src = "impl KernelToken {\n\
                   pub fn save_state(&self, pe: PeId) {}\n\
                   }\n\
                   impl Dtu {\n\
                   pub fn sneak_save(&self, pe: PeId) {\n\
                   self.tok.save_state(pe);\n\
                   }\n\
                   }\n";
        let f = check("crates/dtu/src/dtu.rs", src);
        let msgs = iso(&f);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].1.contains("sneak_save"));
    }

    #[test]
    fn dtu_token_methods_and_constructor_are_fine() {
        let src = "impl KernelToken {\n\
                   pub fn save_state(&self, pe: PeId) { self.inner.stash(pe); }\n\
                   pub fn set_privileged(&self, pe: PeId, p: bool) {}\n\
                   }\n\
                   impl Dtu {\n\
                   pub fn claim_kernel_token(&self) -> KernelToken { KernelToken::new() }\n\
                   pub fn send(&self) { self.charge(); }\n\
                   }\n";
        assert!(iso(&check("crates/dtu/src/dtu.rs", src)).is_empty());
    }

    #[test]
    fn dtu_transitive_backdoor_is_flagged() {
        let src = "impl Dtu {\n\
                   fn inner_helper(&self) { self.tok.refill_credits(e, 4); }\n\
                   pub fn refill(&self) { self.inner_helper(); }\n\
                   }\n";
        let f = check("crates/dtu/src/dtu.rs", src);
        let msgs = iso(&f);
        assert!(msgs.iter().any(|(_, m)| m.contains("`refill`")), "{msgs:?}");
    }

    #[test]
    fn has_message_is_not_gated() {
        // `Dtu::has_message` (unprivileged message poll) shares its name
        // with `KernelToken::has_message`; name-gating it would false-
        // positive every receive loop.
        let src = "fn poll(d: &Dtu) { while !d.has_message(EP) {} }\n";
        assert!(iso(&check("crates/libos/src/gate.rs", src)).is_empty());
    }

    #[test]
    fn tests_and_benches_are_sanctioned() {
        let src = "fn f(d: &Dtu) { d.claim_kernel_token().save_state(pe); }\n";
        assert!(iso(&check("crates/dtu/tests/t.rs", src)).is_empty());
        assert!(iso(&check("crates/bench/benches/micro.rs", src)).is_empty());
        assert!(iso(&check("tests/system_integration.rs", src)).is_empty());
    }
}
