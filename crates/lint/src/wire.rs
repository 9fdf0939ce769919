//! The wire-surface registry lint, migrated from xtask's line scanner
//! onto the syn AST walk. Every wire-facing type — an enum or struct
//! that crosses a socket or a storage file — must (a) carry
//! `serde::Serialize` *and* `serde::Deserialize` derives, and (b)
//! appear in a registered round-trip test file, so a type added to the
//! wire surface without a codec round-trip test fails CI instead of
//! failing in production.
//!
//! "Wire-facing" is any `pub enum`/`pub struct` whose name ends in
//! `Msg`, plus the explicit [`EXTRA_WIRE_TYPES`] manifest of payload
//! and persistence types. Unlike the old line scanner, the AST walk
//! sees derives regardless of formatting and correctly skips
//! `#[cfg(test)]` modules.

use std::path::Path;

use crate::walk::Workspace;
use crate::{Finding, Rule};

/// Types that cross the wire or the storage layer without a `Msg`
/// suffix. Grow this list when adding a new payload/persistence type.
pub const EXTRA_WIRE_TYPES: &[&str] = &[
    "Blob",         // simnet's generic payload
    "NodeId",       // embedded in every routed message
    "TimerId",      // persisted inside simnet traces
    "Entry",        // raft log entries, shipped in AppendEntries
    "LogCmd",       // command half of an entry
    "PersistOp",    // raft write-ahead records (FileStorage)
    "FedConfig",    // replicated FedAvg-layer membership
    "SubCmd",       // subgroup log commands
    "SubMembers",   // replicated aggregation roster (self-healing)
    "SacEngine",    // engine selector, replicated inside FedConfig
    "WeightVector", // SAC share payloads
    "FaultPlan",    // declarative fault schedules (chaos + check replay)
    "FaultEntry",
    "FaultAction",
    "PoisonMode",     // Byzantine update-poisoning selector inside FaultAction
    "RobustCombiner", // combining rule selector, replicated inside FedConfig
    "CxStep",         // p2pfl-check counterexample schedules (JSON)
    "Counterexample", // ditto
    "FedCmd",         // FedAvg-layer log commands (round markers + topology)
    "TopologyCmd",    // elastic split/merge/admit/depart operations
    "Topology",       // the versioned elastic layout, shipped in syncs/acks
    "ElasticGroup",   // one subgroup of a Topology
    "SubSnapshot",    // what a compacted subgroup log folds to (InstallSnapshot, FileStorage)
    "FedSnapshot",    // ditto for the FedAvg-layer log
];

/// Files in which a wire type must be mentioned to count as having a
/// registered round-trip test.
pub const REGISTRIES: &[&str] = &[
    "crates/net/tests/codec_props.rs", // binary codec round-trips
    "crates/check/src/schedule.rs",    // counterexample JSON round-trips
];

/// Message enums the scanner must keep finding; losing one is a lint
/// bug, not a clean pass.
const MUST_FIND: &[&str] = &["RaftMsg", "SacMsg", "HierMsg"];

/// Wire-lint result.
pub struct WireReport {
    /// Violations (missing derives / missing registry entries /
    /// self-check failures).
    pub findings: Vec<Finding>,
    /// Wire-facing types checked.
    pub checked: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

fn is_wire_type(name: &str) -> bool {
    name.ends_with("Msg") || EXTRA_WIRE_TYPES.contains(&name)
}

/// Runs the wire-surface lint over a loaded workspace. `registries`
/// maps registry path → file contents (loaded by [`run_at`], injected
/// directly by fixture tests).
pub fn check(ws: &Workspace, registries: &[(String, String)]) -> WireReport {
    let mut findings = Vec::new();
    let mut checked = 0usize;
    let mut found_names: Vec<&str> = Vec::new();
    for t in ws.type_decls() {
        if t.test_only || !t.vis_pub || !is_wire_type(t.ident) {
            continue;
        }
        checked += 1;
        found_names.push(t.ident);
        let derive_idents: Vec<String> = t
            .attrs
            .iter()
            .filter(|a| a.path_ident() == Some("derive"))
            .flat_map(|a| {
                let mut idents = Vec::new();
                a.tokens.visit(&mut |tok| {
                    if let Some(id) = tok.as_ident() {
                        idents.push(id.to_string());
                    }
                });
                idents
            })
            .collect();
        let has_serde = derive_idents.iter().any(|i| i == "Serialize")
            && derive_idents.iter().any(|i| i == "Deserialize");
        if !has_serde {
            findings.push(Finding {
                rule: Rule::WireSurface,
                file: t.file.rel_path.clone(),
                line: t.line,
                item: t.ident.to_string(),
                msg: "wire type lacks serde::Serialize / serde::Deserialize derives".to_string(),
            });
        }
        if !registries.iter().any(|(_, text)| text.contains(t.ident)) {
            findings.push(Finding {
                rule: Rule::WireSurface,
                file: t.file.rel_path.clone(),
                line: t.line,
                item: t.ident.to_string(),
                msg: format!(
                    "wire type has no registered round-trip test (add one to {})",
                    REGISTRIES.join(" or ")
                ),
            });
        }
    }
    for must in MUST_FIND {
        if !found_names.contains(must) {
            findings.push(Finding {
                rule: Rule::SelfCheck,
                file: "<workspace>".to_string(),
                line: 0,
                item: "wire-surface".to_string(),
                msg: format!("scanner no longer finds `{must}` — scope rot"),
            });
        }
    }
    for (path, err) in &ws.parse_errors {
        findings.push(Finding {
            rule: Rule::SelfCheck,
            file: path.clone(),
            line: 0,
            item: "<parse>".to_string(),
            msg: format!("file does not parse, wire surface may be under-scanned: {err}"),
        });
    }
    WireReport {
        findings,
        checked,
        files_scanned: ws.files.len(),
    }
}

/// Loads the workspace and registry files at `root` and runs the
/// wire-surface lint.
pub fn run_at(root: &Path) -> std::io::Result<WireReport> {
    let ws = Workspace::load(root)?;
    let registries: Vec<(String, String)> = REGISTRIES
        .iter()
        .map(|r| {
            (
                (*r).to_string(),
                std::fs::read_to_string(root.join(r)).unwrap_or_default(),
            )
        })
        .collect();
    Ok(check(&ws, &registries))
}
