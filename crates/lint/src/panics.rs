//! Rule family 2: **wire-path panic-freedom**.
//!
//! Builds an intra-workspace call graph and walks it from the hostile-
//! input roots — the binary codec decode surface, the `FrameBuffer`
//! feed, the reactor's socket loop, and every actor callback
//! (`on_start`/`on_message`/`on_timer`, plus raft's `Node::handle`).
//! Any `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!`, or
//! `unimplemented!` inside a reachable function is a finding: a peer
//! that can steer execution into one of these has a remote crash.
//!
//! Byte-level decode files ([`Config::decode_layer`]) are held to a
//! stricter standard: slice indexing and `assert!` also flag there,
//! because the decode layer faces raw attacker bytes and must be total.
//! Protocol layers above it may keep invariant asserts — those guard
//! locally-established state, and the dynamic gates (p2pfl-check,
//! soaks) exercise them.
//!
//! Call-graph resolution is name-based: `Type::method(...)` paths
//! resolve exactly; a path through a name that is no workspace type —
//! a generic parameter, as in the round core's `W::layout(...)` — resolves
//! to every impl of a workspace trait's method of that name, so a generic
//! caller reaches all of its instantiations' code; bare `f(...)` calls
//! resolve to workspace free functions named `f`; `.m(...)` dot calls
//! resolve to every workspace
//! method named `m` *except* names on [`Config::dot_blocklist`] —
//! std-trait names (`sum`, `extend`, ...) that would otherwise alias
//! iterator/collection calls onto unrelated workspace methods. That
//! makes the analysis an over-approximation everywhere except the
//! blocklist, which is small and audited.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use syn::token::{TokenStream, TokenTree};

use crate::scan;
use crate::walk::Workspace;
use crate::{Finding, Rule};

/// Selects root functions: all present fields must match.
#[derive(Debug)]
pub struct RootMatcher {
    /// Crate directory name (`net`, `simnet`, ...), if constrained.
    pub crate_name: Option<&'static str>,
    /// Workspace-relative path suffix, if constrained.
    pub file_suffix: Option<&'static str>,
    /// Impl self type, if constrained.
    pub self_ty: Option<&'static str>,
    /// Function name, if constrained.
    pub fn_name: Option<&'static str>,
}

/// Panic-rule configuration.
pub struct Config {
    /// Hostile-input entry points.
    pub roots: Vec<RootMatcher>,
    /// File suffixes forming the byte-level decode layer (stricter
    /// rules: indexing + asserts).
    pub decode_layer: Vec<&'static str>,
    /// Method names excluded from dot-call edge resolution because they
    /// collide with std trait/collection methods.
    pub dot_blocklist: Vec<&'static str>,
    /// Functions that must be reachable from the roots under these names
    /// — if one is renamed away, the lint reports scope rot instead of
    /// passing silently. (A root matcher that matches no function at all
    /// is reported the same way.)
    pub required_roots: Vec<&'static str>,
}

impl Config {
    /// The production configuration for this workspace.
    pub fn production() -> Config {
        Config {
            roots: vec![
                // The whole binary codec: decode AND encode must be total.
                RootMatcher {
                    crate_name: Some("simnet"),
                    file_suffix: Some("src/codec.rs"),
                    self_ty: None,
                    fn_name: None,
                },
                // The reactor's single event loop: every byte any peer
                // sends is processed inside this call tree.
                root_fn("net", "reactor_loop"),
                // Actor callbacks: every message a peer sends lands here.
                root_cb("on_start"),
                root_cb("on_message"),
                root_cb("on_timer"),
                // Raft's synchronous entry point and WAL recovery.
                RootMatcher {
                    crate_name: Some("raft"),
                    file_suffix: None,
                    self_ty: Some("RaftNode"),
                    fn_name: Some("handle"),
                },
                RootMatcher {
                    crate_name: Some("raft"),
                    file_suffix: None,
                    self_ty: Some("FileStorage"),
                    fn_name: Some("load"),
                },
            ],
            decode_layer: vec!["crates/simnet/src/codec.rs", "crates/net/src/"],
            dot_blocklist: vec![
                // Iterator/collection methods; workspace types also name
                // methods like these, but every such workspace method is
                // still tracked via `Type::method(...)` path calls.
                "sum", "get", "insert", "push", "extend", "take", "len", "is_empty", "contains",
                "remove", "iter", "next", "clone", "min", "max", "abs",
                // std collisions hit by the reactor: `str::parse` and
                // poller/condvar `wait` vs Args/Json::parse and
                // Deployment::wait (all path-called where it matters).
                "parse", "wait",
            ],
            required_roots: vec![
                "BinDeserializer::take",
                "FrameBuffer::next_frame",
                "reactor_loop",
                "RaftNode::handle",
                // Both aggregation engines are `RoundCore<W>`: one actor
                // callback, and behind it the one place a received
                // `SacMsg` is judged.
                "RoundCore::on_message",
                "RoundCore::dispatch",
                "HierActor::on_message",
            ],
        }
    }
}

fn root_fn(crate_name: &'static str, fn_name: &'static str) -> RootMatcher {
    RootMatcher {
        crate_name: Some(crate_name),
        file_suffix: None,
        self_ty: None,
        fn_name: Some(fn_name),
    }
}

fn root_cb(fn_name: &'static str) -> RootMatcher {
    RootMatcher {
        crate_name: None,
        file_suffix: None,
        self_ty: None,
        fn_name: Some(fn_name),
    }
}

/// Output of the panic pass.
pub struct Output {
    /// Findings (panic-capable tokens in reachable functions).
    pub findings: Vec<Finding>,
    /// Number of functions reachable from the roots.
    pub reachable_fns: usize,
}

struct FnNode {
    rel_path: String,
    crate_name: String,
    self_ty: Option<String>,
    trait_name: Option<String>,
    name: String,
    body: Option<TokenStream>,
}

impl FnNode {
    fn qual(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Runs the panic-freedom pass.
pub fn check(ws: &Workspace, cfg: &Config) -> Output {
    // 1. Collect every non-test function as a graph node.
    let mut nodes: Vec<FnNode> = Vec::new();
    for f in ws.functions() {
        if f.test_only {
            continue;
        }
        nodes.push(FnNode {
            rel_path: f.file.rel_path.clone(),
            crate_name: f.file.crate_name.clone(),
            self_ty: f.self_ty.clone(),
            trait_name: f.trait_name.clone(),
            name: f.f.ident.clone(),
            body: f.f.block.clone(),
        });
    }

    // 2. Name-resolution tables.
    let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        match &n.self_ty {
            Some(t) => {
                by_method.entry(n.name.as_str()).or_default().push(i);
                by_typed
                    .entry((t.as_str(), n.name.as_str()))
                    .or_default()
                    .push(i);
            }
            None => free_fns.entry(n.name.as_str()).or_default().push(i),
        }
    }
    // Impls of workspace-declared trait methods, by method name: what a
    // call through a generic parameter (`W::layout(..)`) can land in. A
    // trait's own declaration walks as `(self_ty = Trait, name)`.
    let known_types: BTreeSet<&str> = nodes.iter().filter_map(|n| n.self_ty.as_deref()).collect();
    let mut trait_impls: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if let Some(tr) = n.trait_name.as_deref() {
            if by_typed.contains_key(&(tr, n.name.as_str())) {
                trait_impls.entry(n.name.as_str()).or_default().push(i);
            }
        }
    }

    // 3. Edges from call-shaped token patterns.
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        let Some(body) = &n.body else { continue };
        let mut calls = Vec::new();
        collect_calls(body, &mut calls);
        for c in calls {
            match c {
                Call::Qualified(ty, name) => {
                    let ty = if ty == "Self" {
                        n.self_ty.clone().unwrap_or(ty)
                    } else {
                        ty
                    };
                    if let Some(tgts) = by_typed.get(&(ty.as_str(), name.as_str())) {
                        edges[i].extend(tgts.iter().copied());
                        continue;
                    }
                    // `module::function(...)` paths.
                    if let Some(tgts) = free_fns.get(name.as_str()) {
                        edges[i].extend(tgts.iter().copied());
                    }
                    // `W::method(...)` through a generic parameter.
                    if !known_types.contains(ty.as_str()) {
                        if let Some(tgts) = trait_impls.get(name.as_str()) {
                            edges[i].extend(tgts.iter().copied());
                        }
                    }
                }
                Call::Bare(name) => {
                    if let Some(tgts) = free_fns.get(name.as_str()) {
                        edges[i].extend(tgts.iter().copied());
                    }
                }
                Call::Method(name) => {
                    if cfg.dot_blocklist.contains(&name.as_str()) {
                        continue;
                    }
                    if let Some(tgts) = by_method.get(name.as_str()) {
                        edges[i].extend(tgts.iter().copied());
                    }
                }
            }
        }
    }

    // 4. Reachability from the roots, remembering one witness path.
    let mut queue = VecDeque::new();
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut reached = vec![false; nodes.len()];
    let mut root_matched = vec![false; cfg.roots.len()];
    for (i, n) in nodes.iter().enumerate() {
        for (r, matched) in cfg.roots.iter().zip(&mut root_matched) {
            if root_matches(r, n) {
                *matched = true;
                if !reached[i] {
                    reached[i] = true;
                    queue.push_back(i);
                }
            }
        }
    }
    while let Some(i) = queue.pop_front() {
        for &j in &edges[i] {
            if !reached[j] {
                reached[j] = true;
                parent[j] = Some(i);
                queue.push_back(j);
            }
        }
    }

    // 5. Flag panic-capable tokens in reachable functions.
    let mut findings = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if !reached[i] {
            continue;
        }
        let Some(body) = &n.body else { continue };
        let strict = cfg
            .decode_layer
            .iter()
            .any(|d| n.rel_path.starts_with(d) || n.rel_path.ends_with(d));
        let mut hits = Vec::new();
        scan::method_calls(body, &["unwrap", "expect"], &mut hits);
        scan::macro_calls(
            body,
            &["panic", "unreachable", "todo", "unimplemented"],
            &mut hits,
        );
        if strict {
            scan::macro_calls(body, &["assert", "assert_eq", "assert_ne"], &mut hits);
            scan::index_exprs(body, &mut hits);
        }
        if hits.is_empty() {
            continue;
        }
        let via = witness_path(&nodes, &parent, i);
        for h in hits {
            findings.push(Finding {
                rule: Rule::WirePanic,
                file: n.rel_path.clone(),
                line: h.line,
                item: n.qual(),
                msg: format!(
                    "{} reachable from hostile input (via {})",
                    h.what,
                    via.join(" -> ")
                ),
            });
        }
    }

    // 6. Scope-rot self-check: every configured root must still select
    // something, and the functions the analysis depends on must still be
    // reachable under their expected names.
    let rot = |what: String| Finding {
        rule: Rule::SelfCheck,
        file: "<workspace>".to_string(),
        line: 0,
        item: "wire-panic".to_string(),
        msg: format!("{what} — scope rot"),
    };
    for (r, matched) in cfg.roots.iter().zip(&root_matched) {
        if !matched {
            findings.push(rot(format!("root {r:?} matches no function")));
        }
    }
    for req in &cfg.required_roots {
        let found = nodes
            .iter()
            .enumerate()
            .any(|(i, n)| reached[i] && n.qual() == *req);
        if !found {
            findings.push(rot(format!(
                "expected wire root/function `{req}` not found"
            )));
        }
    }

    Output {
        reachable_fns: reached.iter().filter(|r| **r).count(),
        findings,
    }
}

fn root_matches(r: &RootMatcher, n: &FnNode) -> bool {
    r.crate_name.is_none_or(|c| n.crate_name == c)
        && r.file_suffix.is_none_or(|s| n.rel_path.ends_with(s))
        && r.self_ty.is_none_or(|t| n.self_ty.as_deref() == Some(t))
        && r.fn_name.is_none_or(|f| n.name == f)
}

/// Reconstructs the BFS witness path root → ... → `i` (shortened to the
/// last few hops for readability).
fn witness_path(nodes: &[FnNode], parent: &[Option<usize>], i: usize) -> Vec<String> {
    let mut path = vec![nodes[i].qual()];
    let mut cur = i;
    while let Some(p) = parent[cur] {
        path.push(nodes[p].qual());
        cur = p;
        if path.len() > 6 {
            path.push("...".to_string());
            break;
        }
    }
    path.reverse();
    path
}

/// A call-shaped token pattern.
enum Call {
    /// `Type::name(...)` or `module::name(...)`.
    Qualified(String, String),
    /// `name(...)` with no path or receiver.
    Bare(String),
    /// `.name(...)`.
    Method(String),
}

fn collect_calls(stream: &TokenStream, out: &mut Vec<Call>) {
    scan::each_level(stream, &mut |toks| {
        for i in 0..toks.len() {
            let Some(name) = toks[i].as_ident() else {
                continue;
            };
            // `name ( ... )` or `name::<T>( ... )` — qualified, method,
            // or bare depending on what precedes. Macro invocations
            // (`name!(...)`) never match: the `!` sits between the
            // ident and the group.
            if scan::call_args_after(toks, i + 1).is_none() {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let prev2 = i.checked_sub(2).map(|p| &toks[p]);
            let prev3 = i.checked_sub(3).map(|p| &toks[p]);
            if prev.is_some_and(|t| t.is_punct('.')) {
                out.push(Call::Method(name.to_string()));
            } else if prev.is_some_and(|t| t.is_punct(':'))
                && prev2.is_some_and(|t| t.is_punct(':'))
            {
                if let Some(ty) = prev3.and_then(TokenTree::as_ident) {
                    out.push(Call::Qualified(ty.to_string(), name.to_string()));
                }
            } else {
                out.push(Call::Bare(name.to_string()));
            }
        }
    });
}
