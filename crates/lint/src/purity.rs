//! Rule family 1: **sans-IO / determinism purity**.
//!
//! The protocol crates run identically under the deterministic simnet
//! and the real TCP runtime; that only holds if nothing in them reads a
//! wall clock, OS entropy, a socket, a thread, or writes to stdout.
//! Seeded randomness (`StdRng::seed_from_u64` / `from_seed`) is part of
//! the recorded schedule and stays allowed — only the *nondeterministic*
//! entry points are banned.
//!
//! Scope: non-test code in [`PURITY_CRATES`], excluding `src/bin/`
//! binaries (CLI drivers legitimately print and measure time).

use crate::scan::{self, Hit};
use crate::walk::Workspace;
use crate::{Finding, Rule};

/// Crates whose `src` must stay sans-IO end to end.
pub const PURITY_CRATES: &[&str] = &["raft", "hierraft", "secagg", "fed", "simnet", "check"];

/// Individual files inside IO crates that must nonetheless stay pure.
/// The async reactor keeps its bounded send queue and its deadline heap
/// free of clocks/sockets so their behaviour is unit-testable without a
/// live reactor; the IO lives in `mod.rs`/`conn.rs`/`sys.rs`.
pub const PURITY_FILES: &[&str] = &[
    "crates/net/src/reactor/queue.rs",
    "crates/net/src/reactor/timer.rs",
];

fn in_scope(file: &crate::walk::SourceFile) -> bool {
    PURITY_CRATES.contains(&file.crate_name.as_str())
        || PURITY_FILES.contains(&file.rel_path.as_str())
}

/// Identifiers that reach nondeterminism no matter how they are pathed.
const BANNED_IDENTS: &[(&str, &str)] = &[
    ("Instant", "wall clock (breaks deterministic replay)"),
    ("SystemTime", "wall clock (breaks deterministic replay)"),
    ("thread_rng", "OS entropy (unseeded randomness)"),
    ("OsRng", "OS entropy (unseeded randomness)"),
    ("from_entropy", "OS entropy (unseeded randomness)"),
];

/// Stdout/stderr macros: protocol code reports through counters and
/// effects, never the console.
const BANNED_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// `std::` module paths that are IO or scheduling, not computation.
const BANNED_PATHS: &[(&str, &str)] = &[("std", "net"), ("std", "thread")];

/// Runs the purity rule over every non-test function, type body, and
/// verbatim item of the protocol crates.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen_protocol_file = false;
    let mut seen_files: Vec<&str> = Vec::new();
    for f in ws.functions() {
        if !in_scope(f.file) || f.test_only || f.file.is_bin() {
            continue;
        }
        seen_protocol_file = true;
        if PURITY_FILES.contains(&f.file.rel_path.as_str())
            && !seen_files.contains(&f.file.rel_path.as_str())
        {
            seen_files.push(f.file.rel_path.as_str());
        }
        let mut hits = Vec::new();
        scan_stream(&f.f.sig, &mut hits);
        if let Some(block) = &f.f.block {
            scan_stream(block, &mut hits);
        }
        for h in hits {
            findings.push(Finding {
                rule: Rule::Purity,
                file: f.file.rel_path.clone(),
                line: h.line,
                item: f.qual_name(),
                msg: h.what,
            });
        }
    }
    // Type bodies and verbatim items (consts, statics) can smuggle the
    // same nondeterminism in field types or initializers.
    for file in &ws.files {
        if !in_scope(file) || file.is_bin() {
            continue;
        }
        scan_non_fn_items(&file.ast.items, false, &mut |item, stream| {
            let mut hits = Vec::new();
            scan_stream(stream, &mut hits);
            for h in hits {
                findings.push(Finding {
                    rule: Rule::Purity,
                    file: file.rel_path.clone(),
                    line: h.line,
                    item: item.to_string(),
                    msg: h.what,
                });
            }
        });
    }
    if !seen_protocol_file {
        findings.push(Finding {
            rule: Rule::SelfCheck,
            file: "<workspace>".to_string(),
            line: 0,
            item: "purity".to_string(),
            msg: "purity rule scanned no protocol functions — scope rot".to_string(),
        });
    }
    // Pinned pure files must actually be scanned — a rename would
    // otherwise silently drop them from the rule's scope. Only enforced
    // when the owning crate is present (fixture workspaces are partial).
    if ws.files.iter().any(|f| f.crate_name == "net") {
        for want in PURITY_FILES {
            if !seen_files.contains(want) {
                findings.push(Finding {
                    rule: Rule::SelfCheck,
                    file: (*want).to_string(),
                    line: 0,
                    item: "purity".to_string(),
                    msg: "pinned pure file scanned no functions — scope rot".to_string(),
                });
            }
        }
    }
    findings
}

fn scan_stream(stream: &syn::TokenStream, hits: &mut Vec<Hit>) {
    let mut raw = Vec::new();
    scan::ident_refs(
        stream,
        &BANNED_IDENTS.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        &mut raw,
    );
    for h in &mut raw {
        if let Some((_, why)) = BANNED_IDENTS.iter().find(|(n, _)| *n == h.what) {
            h.what = format!("references `{}`: {}", h.what, why);
        }
    }
    hits.append(&mut raw);
    let mut macros = Vec::new();
    scan::macro_calls(stream, BANNED_MACROS, &mut macros);
    for mut h in macros {
        h.what = format!(
            "console output `{}`: protocol code reports through counters/effects",
            h.what
        );
        hits.push(h);
    }
    let mut paths = Vec::new();
    scan::path_refs(stream, BANNED_PATHS, &mut paths);
    for mut h in paths {
        h.what = format!(
            "reaches `{}`: IO/scheduling outside the sans-IO boundary",
            h.what
        );
        hits.push(h);
    }
}

/// Visits struct/enum bodies and verbatim item streams outside test
/// code, attributing each to its item name.
fn scan_non_fn_items(
    items: &[syn::Item],
    in_test: bool,
    f: &mut dyn FnMut(&str, &syn::TokenStream),
) {
    for item in items {
        match item {
            syn::Item::Struct(s) if !in_test && !is_test_marked(&s.attrs) => {
                f(&s.ident, &s.body);
            }
            syn::Item::Enum(e) if !in_test && !is_test_marked(&e.attrs) => {
                f(&e.ident, &e.body);
            }
            syn::Item::Verbatim(v) if !in_test => {
                f("<item>", v);
            }
            syn::Item::Mod(m) => {
                if let Some(content) = &m.content {
                    let test = in_test || is_test_marked(&m.attrs) || m.ident == "tests";
                    scan_non_fn_items(content, test, f);
                }
            }
            syn::Item::Impl(im) => {
                // Non-fn impl items (assoc consts) ride along as Verbatim.
                let test = in_test || is_test_marked(&im.attrs);
                scan_non_fn_items(&im.items, test, f);
            }
            _ => {}
        }
    }
}

fn is_test_marked(attrs: &[syn::Attribute]) -> bool {
    attrs
        .iter()
        .any(|a| a.is_cfg_test() || a.path_ident() == Some("test"))
}
