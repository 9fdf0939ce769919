//! The lint allowlist: the only sanctioned way to ship code that trips
//! a rule. Every entry carries a justification string, matching is by
//! (rule, file suffix, item) so entries survive line drift, and two
//! policy checks keep the list honest:
//!
//! * **hard cap** — at most [`MAX_ENTRIES`] entries; a workspace that
//!   needs more has a design problem, not an allowlist problem;
//! * **staleness** — an entry that suppresses nothing fails the lint,
//!   so fixed violations cannot leave a dangling hole behind.

use crate::{Finding, Rule};

/// Hard cap on allowlist size.
pub const MAX_ENTRIES: usize = 5;

/// One sanctioned suppression.
pub struct AllowEntry {
    /// Rule family the entry applies to.
    pub rule: Rule,
    /// Workspace-relative path suffix the finding's file must end with.
    pub file_suffix: &'static str,
    /// Item name to match, or `"*"` to cover the whole file.
    pub item: &'static str,
    /// Why this violation is sound. Shown in lint output.
    pub justification: &'static str,
}

/// The production allowlist.
pub const ALLOWLIST: &[AllowEntry] = &[
    AllowEntry {
        rule: Rule::Purity,
        file_suffix: "crates/fed/src/parallel.rs",
        item: "*",
        justification: "deterministic fork-join training: std::thread::scope over a fixed \
                        partition, results joined in index order — bit-identical to the serial \
                        path, pinned by the fan-out-vs-plain-loop equivalence tests",
    },
    AllowEntry {
        rule: Rule::WirePanic,
        file_suffix: "crates/secagg/src/ring/plan.rs",
        item: "RingPlan::stage_of",
        justification: "expect on a constructor-established invariant: RingPlan::new builds \
                        stages as a partition of 0..n, so every id has a stage; the plan is \
                        never built from wire input",
    },
    AllowEntry {
        rule: Rule::WirePanic,
        file_suffix: "crates/raft/src/storage.rs",
        item: "FileStorage::record",
        justification: "durability loss is fatal by design: a node whose write-ahead log stops \
                        persisting must halt rather than vote/ack from volatile state (raft \
                        safety argument requires stable storage)",
    },
];

/// Splits findings into (active, suppressed-with-justification), and
/// appends policy findings for oversize or stale allowlists.
pub fn apply(
    findings: Vec<Finding>,
    allowlist: &[AllowEntry],
) -> (Vec<Finding>, Vec<(Finding, String)>) {
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; allowlist.len()];
    for f in findings {
        let hit = allowlist.iter().enumerate().find(|(_, a)| {
            a.rule == f.rule
                && f.file.ends_with(a.file_suffix)
                && (a.item == "*" || a.item == f.item)
        });
        match hit {
            Some((idx, a)) => {
                used[idx] = true;
                suppressed.push((f, a.justification.to_string()));
            }
            None => active.push(f),
        }
    }
    if allowlist.len() > MAX_ENTRIES {
        active.push(Finding {
            rule: Rule::SelfCheck,
            file: "<allowlist>".to_string(),
            line: 0,
            item: "policy".to_string(),
            msg: format!(
                "allowlist has {} entries, cap is {MAX_ENTRIES}: fix violations instead of \
                 growing the list",
                allowlist.len()
            ),
        });
    }
    for (idx, a) in allowlist.iter().enumerate() {
        if !used[idx] {
            active.push(Finding {
                rule: Rule::SelfCheck,
                file: "<allowlist>".to_string(),
                line: 0,
                item: "policy".to_string(),
                msg: format!(
                    "stale allowlist entry ({} / {} / {}): it suppresses nothing — remove it",
                    a.rule, a.file_suffix, a.item
                ),
            });
        }
    }
    (active, suppressed)
}
