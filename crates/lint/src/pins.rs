//! Rule family 4: **pinned invariants** — source patterns that encode
//! past security fixes. The share-confinement leak fixed in PR 6 (a
//! singleton ring stage hands one curious peer a complete additive
//! share set) is guarded by two expressions in `ring/plan.rs`; if a
//! refactor deletes either, this rule fails the lint directly instead
//! of waiting for a soak to stumble over the leak.
//!
//! The bulk `f64` decode added with the slice-level codec sizes one
//! allocation from a length read off the wire; the two expressions that
//! bound it first are pinned the same way.
//!
//! A pin is a (file, function, required token sequence) triple. Token
//! sequences are matched against the function's body tokens at any
//! nesting depth, so formatting changes cannot break a pin — only
//! removing the expression can.

use syn::token::TokenTree;

use crate::walk::Workspace;
use crate::{Finding, Rule};

/// One pinned pattern.
pub struct Pin {
    /// Path suffix of the file that must contain the pattern.
    pub file_suffix: &'static str,
    /// Function whose body must contain the pattern.
    pub fn_name: &'static str,
    /// The required token sequence, as space-separated token texts.
    /// Group delimiters match structurally: `( 2 )` matches a paren
    /// group whose content is the literal `2`.
    pub pattern: &'static [&'static str],
    /// What the pattern guards.
    pub why: &'static str,
}

/// Production pins: the PR 6 Ring-SAC share-confinement fix and the
/// bulk-decode bounds check.
pub const PRODUCTION: &[Pin] = &[
    Pin {
        file_suffix: "crates/simnet/src/codec.rs",
        fn_name: "de_f64_seq",
        pattern: &[".", "checked_mul", "(", "8", ")"],
        why: "bulk f64 decode: the byte count of a declared element count is computed \
              without wrapping, so a hostile prefix cannot alias a small one",
    },
    Pin {
        file_suffix: "crates/simnet/src/codec.rs",
        fn_name: "de_f64_seq",
        pattern: &["self", ".", "take", "(", "nbytes", ")", "?"],
        why: "bulk f64 decode: all 8*n input bytes are taken (bounds-checked against the \
              remaining input) before the output vector is allocated from n",
    },
    Pin {
        file_suffix: "crates/secagg/src/ring/plan.rs",
        fn_name: "stage_k",
        pattern: &[".", "max", "(", "2", ")"],
        why: "Ring-SAC privacy floor: every stage threshold k_m >= 2, so no peer ever holds \
              a complete share set of a neighbour (PR 6 share-confinement fix)",
    },
    Pin {
        file_suffix: "crates/secagg/src/ring/plan.rs",
        fn_name: "new",
        pattern: &[".", "max", "(", "2", ")"],
        why: "Ring-SAC stage layout floor: stage count keeps every stage >= 2 members, \
              refusing singleton stages (PR 6 share-confinement fix)",
    },
];

/// Runs the pin pass: every pin must match, a missing pin is a finding.
pub fn check(ws: &Workspace, pins: &[Pin]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pin in pins {
        let mut found = false;
        let mut file_seen = false;
        for f in ws.functions() {
            if !f.file.rel_path.ends_with(pin.file_suffix) || f.f.ident != pin.fn_name {
                continue;
            }
            file_seen = true;
            if let Some(block) = &f.f.block {
                if contains_sequence(&block.trees, pin.pattern) {
                    found = true;
                    break;
                }
            }
        }
        if !found {
            findings.push(Finding {
                rule: Rule::Pin,
                file: pin.file_suffix.to_string(),
                line: 0,
                item: pin.fn_name.to_string(),
                msg: if file_seen {
                    format!(
                        "pinned security-fix pattern `{}` missing from `{}` — {}",
                        pin.pattern.join(" "),
                        pin.fn_name,
                        pin.why
                    )
                } else {
                    format!(
                        "pinned function `{}` not found in `{}` — pin cannot be checked ({})",
                        pin.fn_name, pin.file_suffix, pin.why
                    )
                },
            });
        }
    }
    findings
}

/// Whether `toks` (at any nesting depth) contains the token sequence.
/// `(`/`)`-style entries in the pattern step into/out of groups.
fn contains_sequence(toks: &[TokenTree], pattern: &[&str]) -> bool {
    if matches_at_any_start(toks, pattern) {
        return true;
    }
    toks.iter().any(|t| {
        t.as_group()
            .is_some_and(|g| contains_sequence(&g.stream.trees, pattern))
    })
}

fn matches_at_any_start(toks: &[TokenTree], pattern: &[&str]) -> bool {
    (0..toks.len()).any(|start| matches_here(&toks[start..], pattern))
}

fn matches_here(toks: &[TokenTree], pattern: &[&str]) -> bool {
    let Some((first, rest)) = pattern.split_first() else {
        return true;
    };
    let Some(t) = toks.first() else {
        return false;
    };
    match (*first, t) {
        ("(", TokenTree::Group(g)) => {
            // The group must contain the prefix of `rest` up to the
            // matching ")" and the remainder must follow the group.
            let Some(close) = rest.iter().position(|p| *p == ")") else {
                return false;
            };
            let inner = &rest[..close];
            let after = &rest[close + 1..];
            matches_exact(&g.stream.trees, inner) && matches_here(&toks[1..], after)
        }
        (p, TokenTree::Ident(i)) if i.text == p => matches_here(&toks[1..], rest),
        (p, TokenTree::Literal(l)) if l.text == p => matches_here(&toks[1..], rest),
        (p, TokenTree::Punct(pc)) if p.len() == 1 && p.starts_with(pc.ch) => {
            matches_here(&toks[1..], rest)
        }
        _ => false,
    }
}

fn matches_exact(toks: &[TokenTree], pattern: &[&str]) -> bool {
    toks.len() == pattern.len() && matches_here(toks, pattern)
}
