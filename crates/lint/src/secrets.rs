//! Rule family 3: **secret-flow confinement** in `p2pfl-secagg`.
//!
//! The paper's k-of-n secrecy argument rests on one structural fact:
//! raw model weights never cross the wire — only `divide()`-produced
//! additive shares (and their digests) do. This pass codifies that as a
//! per-function taint check: a value derived from `self.model` (or a
//! `model` parameter) may appear inside a `SacMsg::...` / `RingMsg::...`
//! constructor — or a `RoundEvent::...` one, the round core's vocabulary
//! that the two adaptors turn into those messages field for field — only
//! after passing through one of the [`APPROVED`] masking/sharing
//! functions. The `RingShareConfinement` oracle checks
//! the same property dynamically; this rule makes the obvious
//! violations (cleartext weights in a message) unrepresentable in
//! merged code.
//!
//! The taint model is intentionally simple and local: sources are the
//! `self.model` field and `model`-named bindings; `let` chains
//! propagate taint within a function; an approved call anywhere in a
//! value's prefix (`divide(tainted)`) or postfix chain
//! (`tainted.digest()`) launders it. Cross-function flows are covered
//! by the rule running over *every* secagg function — a helper that
//! smuggles weights into a message is itself flagged.

use std::collections::BTreeSet;

use syn::token::{Delimiter, TokenStream, TokenTree};

use crate::walk::Workspace;
use crate::{Finding, Rule};

/// Functions whose output is safe to put on the wire even when fed raw
/// weights: share-splitting, masking, and commitment digests, plus
/// shape accessors that reveal only the (public) dimension.
pub const APPROVED: &[&str] = &[
    "divide",
    "divide_masked",
    "divide_scaled",
    "digest",
    "dim",
    "len",
    "is_empty",
];

/// Floor on sink sites in the production crate. It has 136 today (the
/// core's event constructors, both adaptors' two-way mappings and the
/// wire enums' own `Payload` matches; 84 before the adaptors existed);
/// losing either adaptor from the scan drops it below this, adding a
/// message only raises it.
pub const MIN_SINK_SITES: usize = 100;

/// Secret-flow configuration.
pub struct Config {
    /// The crate holding the secure-aggregation engines.
    pub crate_name: &'static str,
    /// Wire-message type names whose constructors are the sinks.
    pub sinks: Vec<&'static str>,
    /// Field/binding names that carry raw weights.
    pub source_idents: Vec<&'static str>,
    /// Fewest sink constructor sites the crate must show. The pass
    /// reports scope rot below this, so a refactor that moves message
    /// construction somewhere the scan no longer looks (another crate, a
    /// macro, a renamed type) cannot pass by having nothing to check.
    pub min_sink_sites: usize,
}

impl Config {
    /// The production configuration.
    pub fn production() -> Config {
        Config {
            crate_name: "secagg",
            // The core builds `RoundEvent`s; each adaptor's `encode`
            // moves their fields into the wire enum.
            sinks: vec!["SacMsg", "RingMsg", "RoundEvent"],
            source_idents: vec!["model"],
            min_sink_sites: MIN_SINK_SITES,
        }
    }
}

/// Runs the secret-flow pass.
pub fn check(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sink_sites = 0usize;
    for f in ws.functions() {
        if f.file.crate_name != cfg.crate_name || f.test_only || f.file.is_bin() {
            continue;
        }
        let Some(body) = &f.f.block else { continue };

        // Taint seeds: `model`-named parameters, plus `self.model` which
        // is matched structurally during the scan.
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        if let Some(inputs) = f.f.inputs() {
            let names = param_names(inputs);
            for n in names {
                if cfg.source_idents.contains(&n.as_str()) {
                    tainted.insert(n);
                }
            }
        }

        // Propagate through `let` bindings to a fixpoint (bounded).
        for _ in 0..4 {
            let before = tainted.len();
            propagate_lets(&body.trees, cfg, &mut tainted);
            if tainted.len() == before {
                break;
            }
        }

        // Check every sink constructor group.
        let mut sinks = Vec::new();
        find_sinks(&body.trees, cfg, &mut sinks);
        sink_sites += sinks.len();
        for (variant, group_line, group) in sinks {
            if let Some(line) = first_taint(&group.stream.trees, cfg, &tainted) {
                findings.push(Finding {
                    rule: Rule::SecretFlow,
                    file: f.file.rel_path.clone(),
                    line: if line > 0 { line } else { group_line },
                    item: f.qual_name(),
                    msg: format!(
                        "model-derived value flows into wire constructor `{variant}` without an approved masking/sharing call ({})",
                        APPROVED.join("/")
                    ),
                });
            }
        }
    }
    // Scope-rot self-check: the engines build wire messages; finding
    // fewer sink sites than they are known to have means the pass is no
    // longer looking at all of them.
    if sink_sites < cfg.min_sink_sites && ws.files.iter().any(|f| f.crate_name == cfg.crate_name) {
        findings.push(Finding {
            rule: Rule::SelfCheck,
            file: "<workspace>".to_string(),
            line: 0,
            item: "secret-flow".to_string(),
            msg: format!(
                "{sink_sites} wire-message constructor sites found in the secagg crate, \
                 expected at least {} — scope rot",
                cfg.min_sink_sites
            ),
        });
    }
    findings
}

/// Extracts parameter names from an argument-list token stream:
/// idents immediately followed by `:` at paren depth 0.
fn param_names(inputs: &TokenStream) -> Vec<String> {
    let toks = &inputs.trees;
    let mut names = Vec::new();
    let mut angle = 0usize;
    for i in 0..toks.len() {
        match toks[i].as_punct() {
            Some('<') => angle += 1,
            Some('>') => angle = angle.saturating_sub(1),
            _ => {}
        }
        if angle > 0 {
            continue;
        }
        let Some(name) = toks[i].as_ident() else {
            continue;
        };
        let prev_ok = i == 0 || toks[i - 1].is_punct(',') || toks[i - 1].as_ident() == Some("mut");
        if prev_ok && toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            names.push(name.to_string());
        }
    }
    names
}

/// One pass over `let <ident> = <expr>;` statements at every group
/// level, adding `ident` to the taint set when `expr` carries taint.
fn propagate_lets(toks: &[TokenTree], cfg: &Config, tainted: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            // Pattern: let [mut] NAME [: ty] = expr ;
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(TokenTree::as_ident) {
                // Find the `=` (skipping a `: Type` ascription) and the
                // terminating `;` at this level.
                let mut k = j + 1;
                let mut eq = None;
                while let Some(t) = toks.get(k) {
                    if t.is_punct('=')
                        && !toks.get(k + 1).is_some_and(|n| n.is_punct('='))
                        && !toks
                            .get(k.wrapping_sub(1))
                            .is_some_and(|p| matches!(p.as_punct(), Some('!' | '<' | '>')))
                    {
                        eq = Some(k);
                        break;
                    }
                    if t.is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(eq) = eq {
                    let end = (eq + 1..toks.len())
                        .find(|&k| toks[k].is_punct(';'))
                        .unwrap_or(toks.len());
                    if first_taint(&toks[eq + 1..end], cfg, tainted).is_some() {
                        tainted.insert(name.to_string());
                    }
                    i = end;
                    continue;
                }
            }
        }
        // Descend into nested blocks/closures.
        if let TokenTree::Group(g) = &toks[i] {
            propagate_lets(&g.stream.trees, cfg, tainted);
        }
        i += 1;
    }
}

/// Finds `Sink::Variant { ... }` / `Sink::Variant ( ... )` constructor
/// groups, descending into nested groups.
fn find_sinks<'a>(
    toks: &'a [TokenTree],
    cfg: &Config,
    out: &mut Vec<(String, usize, &'a syn::Group)>,
) {
    for i in 0..toks.len() {
        if let TokenTree::Group(g) = &toks[i] {
            find_sinks(&g.stream.trees, cfg, out);
        }
        let Some(sink) = toks[i].as_ident() else {
            continue;
        };
        if !cfg.sinks.contains(&sink) {
            continue;
        }
        if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':')))
        {
            continue;
        }
        let Some(variant) = toks.get(i + 3).and_then(TokenTree::as_ident) else {
            continue;
        };
        if let Some(TokenTree::Group(g)) = toks.get(i + 4) {
            if matches!(g.delimiter, Delimiter::Brace | Delimiter::Parenthesis) {
                out.push((format!("{sink}::{variant}"), g.line, g));
            }
        }
    }
}

/// Returns the line of the first tainted value in `toks` that is not
/// laundered by an approved call, or `None` if the region is clean.
fn first_taint(toks: &[TokenTree], cfg: &Config, tainted: &BTreeSet<String>) -> Option<usize> {
    let mut i = 0;
    while i < toks.len() {
        // Approved prefix call: `approved(...)` — everything inside the
        // argument group is laundered, skip it.
        if let Some(name) = toks[i].as_ident() {
            if APPROVED.contains(&name)
                && toks.get(i + 1).is_some_and(|t| {
                    t.as_group()
                        .is_some_and(|g| g.delimiter == Delimiter::Parenthesis)
                })
            {
                i += 2;
                continue;
            }
            // A source mention: `self.model`, a tainted local, or a
            // source ident field access.
            let is_source = if name == "self" {
                toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(i + 2)
                        .and_then(TokenTree::as_ident)
                        .is_some_and(|f| cfg.source_idents.contains(&f))
            } else {
                tainted.contains(name)
            };
            if is_source {
                let line = toks[i].line();
                // Postfix laundering: walk the `.method(...)` chain; if
                // any link is approved, the value is clean.
                let mut j = if name == "self" { i + 3 } else { i + 1 };
                let mut laundered = false;
                while toks.get(j).is_some_and(|t| t.is_punct('.')) {
                    let Some(m) = toks.get(j + 1).and_then(TokenTree::as_ident) else {
                        break;
                    };
                    match crate::scan::call_args_after(toks, j + 2) {
                        Some(args) => {
                            if APPROVED.contains(&m) {
                                laundered = true;
                            }
                            j = args + 1;
                        }
                        None => {
                            // Bare field access continues the chain.
                            j += 2;
                        }
                    }
                }
                if !laundered {
                    return Some(line);
                }
                i = j;
                continue;
            }
        }
        if let TokenTree::Group(g) = &toks[i] {
            if let Some(line) = first_taint(&g.stream.trees, cfg, tainted) {
                return Some(line);
            }
        }
        i += 1;
    }
    None
}
