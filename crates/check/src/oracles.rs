//! The invariant oracle catalog.
//!
//! Each oracle is a pure function over inspection accessors — it never
//! mutates protocol state — and returns the first [`Violation`] it finds.
//! [`crate::models`] compose these per deployment; DESIGN.md's "Invariant
//! catalog" maps each oracle to the paper claim it guards.

use crate::Violation;
use p2pfl_raft::{Command, RaftNode, Role};
use p2pfl_secagg::{RoundCore, RoundEvent, SacPhase, WeightVector, Wire};
use p2pfl_simnet::NodeId;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Numerical tolerance for mask-cancellation and averaging checks. The
/// masked scheme adds and subtracts uniform masks of bounded magnitude, so
/// float error stays well below this at checker scale.
pub const TOL: f64 = 1e-6;

/// **ElectionSafety** — at most one leader per term within one Raft layer.
pub fn election_safety<'a, C: Command>(
    layer: &str,
    nodes: impl IntoIterator<Item = (NodeId, &'a RaftNode<C>)>,
) -> Result<(), Violation> {
    let mut leader_of_term: BTreeMap<u64, NodeId> = BTreeMap::new();
    for (id, node) in nodes {
        if node.role() != Role::Leader {
            continue;
        }
        if let Some(prev) = leader_of_term.insert(node.term(), id) {
            if prev != id {
                return Err(Violation::new(
                    "ElectionSafety",
                    format!(
                        "{layer}: nodes {prev} and {id} are both leader in term {}",
                        node.term()
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// **LogMatching** — across any two logs of one layer, entries with equal
/// `(index, term)` carry equal commands, and the committed prefixes agree
/// wherever both logs still hold the entry (compacted indices are skipped —
/// the snapshot already passed this check when it was taken).
pub fn log_matching<C>(layer: &str, nodes: &[(NodeId, &RaftNode<C>)]) -> Result<(), Violation>
where
    C: Command + PartialEq + std::fmt::Debug,
{
    for (ai, (a_id, a)) in nodes.iter().enumerate() {
        for (b_id, b) in nodes.iter().skip(ai + 1) {
            let hi = a.log().last_index().min(b.log().last_index());
            let lo = a
                .log()
                .snapshot_index()
                .max(b.log().snapshot_index())
                .saturating_add(1);
            let committed = a.commit_index().min(b.commit_index());
            for idx in lo..=hi {
                let (Some(ea), Some(eb)) = (a.log().get(idx), b.log().get(idx)) else {
                    continue;
                };
                if ea.term == eb.term && ea.cmd != eb.cmd {
                    return Err(Violation::new(
                        "LogMatching",
                        format!(
                            "{layer}: {a_id} and {b_id} disagree on command at index {idx} term {}",
                            ea.term
                        ),
                    ));
                }
                if idx <= committed && (ea.term != eb.term || ea.cmd != eb.cmd) {
                    return Err(Violation::new(
                        "LogMatching",
                        format!(
                            "{layer}: committed entry {idx} differs between {a_id} (term {}) and {b_id} (term {})",
                            ea.term, eb.term
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// **FedConfigReplication** — a peer's live FedAvg-layer config must be
/// exactly what folding the committed `SubCmd::FedConfig` entries of its own
/// subgroup log (newest version wins, ties to the later entry — the apply
/// rule of `hierraft`) over the founding config yields (paper Sec. V-A1).
pub fn fed_config_replication(
    peers: &[(
        NodeId,
        &p2pfl_hierraft::FedConfig,
        &RaftNode<p2pfl_hierraft::SubCmd>,
    )],
) -> Result<(), Violation> {
    use p2pfl_hierraft::SubCmd;
    use p2pfl_raft::LogCmd;
    for (id, live, sub) in peers {
        let mut expected: Option<&p2pfl_hierraft::FedConfig> = None;
        for entry in sub.log().iter() {
            if entry.index > sub.commit_index() {
                break;
            }
            if let LogCmd::App(SubCmd::FedConfig(c)) = &entry.cmd {
                if expected.is_none_or(|e| c.version >= e.version) {
                    expected = Some(c);
                }
            }
        }
        if let Some(exp) = expected {
            if live.version >= exp.version {
                // The peer may be ahead of its own log (it learned a newer
                // config before the entry committed locally); it must never
                // be behind it, and at equal versions must match exactly.
                if live.version == exp.version && **live != *exp {
                    return Err(Violation::new(
                        "FedConfigReplication",
                        format!(
                            "{id}: live fed config v{} differs from committed entry of the same version",
                            live.version
                        ),
                    ));
                }
            } else {
                return Err(Violation::new(
                    "FedConfigReplication",
                    format!(
                        "{id}: live fed config v{} is behind committed v{}",
                        live.version, exp.version
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// One share partition copy seen somewhere in the system — held by a peer
/// or still in flight to one.
pub struct ShareCopy<'a> {
    /// Contributor position `j` the partition belongs to.
    pub from_pos: usize,
    /// Partition index `p`.
    pub idx: usize,
    /// The partition value.
    pub value: Cow<'a, WeightVector>,
    /// The peer that holds the copy, or will once it is delivered.
    pub holder: NodeId,
    /// Where the copy was observed (for violation messages).
    pub site: String,
}

/// Collects every share partition copy of `round`: those held by the
/// given actors and those still in flight among `pending` (from
/// [`p2pfl_simnet::Sim::pending_deliveries`]).
pub fn share_copies<'a, W: Wire>(
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
    pending: impl IntoIterator<Item = (NodeId, NodeId, &'a W::Msg)>,
    round: u64,
) -> Vec<ShareCopy<'a>> {
    let mut out = Vec::new();
    for (id, a) in actors {
        if a.round != round {
            continue;
        }
        for (&j, parts) in a.held_blocks() {
            for (&p, v) in parts {
                out.push(ShareCopy {
                    from_pos: j,
                    idx: p,
                    value: Cow::Borrowed(v),
                    holder: id,
                    site: format!("held by {id}"),
                });
            }
        }
    }
    for (src, dst, msg) in pending {
        let RoundEvent::Share {
            round: r,
            from_pos,
            parts,
        } = W::decode(msg.clone())
        else {
            continue;
        };
        if r != round {
            continue;
        }
        for (p, v) in parts {
            out.push(ShareCopy {
                from_pos,
                idx: p,
                value: Cow::Owned(v),
                holder: dst,
                site: format!("in flight {src}->{dst}"),
            });
        }
    }
    out
}

/// **SacMaskCancellation** — paper Sec. IV / Alg. 1–2. Two parts:
///
/// 1. *Replica consistency*: every copy of partition `(j, p)` in the system
///    (held or in flight) is identical — replication must duplicate, never
///    re-randomize.
/// 2. *Cancellation*: contributor `j` divides its model into `parts_of(j)`
///    partitions (the size of its successor stage); whenever all of them
///    are visible somewhere, they sum back to `j`'s input model — the
///    masks cancel exactly.
pub fn mask_cancellation(
    copies: &[ShareCopy<'_>],
    models: &[&WeightVector],
    parts_of: impl Fn(usize) -> usize,
) -> Result<(), Violation> {
    let mut by_key: BTreeMap<(usize, usize), Vec<&ShareCopy<'_>>> = BTreeMap::new();
    for c in copies {
        by_key.entry((c.from_pos, c.idx)).or_default().push(c);
    }
    for ((j, p), reps) in &by_key {
        for r in &reps[1..] {
            if reps[0].value.linf_distance(&r.value) > TOL {
                return Err(Violation::new(
                    "SacMaskCancellation",
                    format!(
                        "replica divergence for partition (j={j}, p={p}): {} vs {}",
                        reps[0].site, r.site
                    ),
                ));
            }
        }
    }
    for (j, model) in models.iter().enumerate() {
        let m = parts_of(j);
        let parts: Vec<&WeightVector> = (0..m)
            .filter_map(|p| by_key.get(&(j, p)).map(|reps| &*reps[0].value))
            .collect();
        if parts.len() < m {
            continue; // not fully visible yet — nothing to check
        }
        let sum = WeightVector::sum(parts);
        if sum.linf_distance(model) > TOL {
            return Err(Violation::new(
                "SacMaskCancellation",
                format!(
                    "partitions of contributor {j} sum to distance {} from its model",
                    sum.linf_distance(model)
                ),
            ));
        }
    }
    Ok(())
}

/// **KofNReconstructability** — paper Alg. 4. When the leader reports
/// `Done`, the frozen contributor set is a valid subset of positions, the
/// leader holds all `n` `(stage, partition)` totals of the grid, every
/// stage's share assignment is non-degenerate under its threshold, and the
/// published result is the plain mean of the contributors' input models.
pub fn kofn_result<'a, W: Wire>(
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
    models: &[&WeightVector],
) -> Result<(), Violation> {
    let n = models.len();
    for (id, a) in actors {
        let cfg = a.sac_config();
        if cfg.position != cfg.leader_pos || a.phase != SacPhase::Done {
            continue;
        }
        let Some(result) = a.result.as_ref() else {
            return Err(Violation::new(
                "KofNReconstructability",
                format!("{id}: phase Done with no result"),
            ));
        };
        if a.contributors.is_empty() || a.contributors.iter().any(|&c| c >= n) {
            return Err(Violation::new(
                "KofNReconstructability",
                format!("{id}: bad contributor set {:?}", a.contributors),
            ));
        }
        let plan = a.plan();
        if a.held_totals().len() != plan.total_partitions() {
            return Err(Violation::new(
                "KofNReconstructability",
                format!(
                    "{id}: Done with {} of {} totals",
                    a.held_totals().len(),
                    plan.total_partitions()
                ),
            ));
        }
        for (t, i) in plan.grid() {
            if plan.assigned(t, i).is_empty() {
                return Err(Violation::new(
                    "KofNReconstructability",
                    format!("{id}: stage {t} member {i} has an empty block assignment"),
                ));
            }
        }
        let expected = WeightVector::mean(a.contributors.iter().map(|&c| models[c]));
        if result.linf_distance(&expected) > TOL {
            return Err(Violation::new(
                "KofNReconstructability",
                format!(
                    "{id}: result is distance {} from the mean of contributors {:?}",
                    result.linf_distance(&expected),
                    a.contributors
                ),
            ));
        }
    }
    Ok(())
}

/// **RingShareConfinement** — the staged layout's receiver-side privacy
/// invariant (the reviewable core of the `k_m >= 2` stage-threshold
/// floor): no peer may ever be in a position to assemble all `m` additive
/// shares of another contributor's model, counting both the blocks it
/// already holds and in-flight shares addressed to it. A full share set
/// sums back to the contributor's individual model; any strict subset is
/// information-theoretically independent of it. On the one-stage layout
/// the floor is absent and the property is whatever the operator's `k`
/// buys: it holds for every `k >= 2` and is exactly what `k = 1` gives up.
pub fn ring_share_confinement<'a, W: Wire>(
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
    copies: &[ShareCopy<'_>],
    parts_of: impl Fn(usize) -> usize,
) -> Result<(), Violation> {
    let pos_of: BTreeMap<NodeId, usize> = actors
        .into_iter()
        .map(|(id, a)| (id, a.sac_config().position))
        .collect();
    let mut views: BTreeMap<(NodeId, usize), BTreeSet<usize>> = BTreeMap::new();
    for c in copies {
        views
            .entry((c.holder, c.from_pos))
            .or_default()
            .insert(c.idx);
    }
    for ((holder, j), idxs) in &views {
        let m = parts_of(*j);
        if m >= 2 && pos_of.get(holder).copied() != Some(*j) && idxs.len() >= m {
            return Err(Violation::new(
                "RingShareConfinement",
                format!("{holder} can assemble all {m} shares of contributor {j}"),
            ));
        }
    }
    Ok(())
}

/// **StageAnonymity** — no peer (leader or follower) may adopt a frozen
/// contributor set that isolates a single contributor in a ring stage:
/// that stage's totals sum to the lone peer's individual model, shrinking
/// the anonymity set from "contributors" to "contributors per stage".
/// Single-stage plans are exempt — there the stage sum is the published
/// round aggregate, the disclosure every secure average makes.
pub fn ring_stage_anonymity<'a, W: Wire>(
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
) -> Result<(), Violation> {
    for (id, a) in actors {
        if let Some(frozen) = a.frozen_set() {
            if let Some(t) = a.plan().lone_contributor_stage(|p| frozen.contains(&p)) {
                return Err(Violation::new(
                    "StageAnonymity",
                    format!("{id}: frozen set {frozen:?} isolates stage {t} to one contributor"),
                ));
            }
        }
    }
    Ok(())
}

/// **EngineAgreement** — no round may mix aggregation engines *or*
/// combining rules. Both selectors travel inside the replicated
/// [`p2pfl_hierraft::FedConfig`], which advances atomically under the
/// version max-advance rule, so any two peers whose live configs are at
/// the same version must agree on the engine and the robust combiner
/// (paper Sec. V-A1 extended with the two selectors).
pub fn engine_agreement(peers: &[(NodeId, &p2pfl_hierraft::FedConfig)]) -> Result<(), Violation> {
    type Choice = (
        NodeId,
        p2pfl_secagg::SacEngine,
        p2pfl_hierraft::RobustCombiner,
    );
    let mut choice_of_version: BTreeMap<u64, Choice> = BTreeMap::new();
    for (id, cfg) in peers {
        match choice_of_version.get(&cfg.version) {
            Some(&(prev, engine, _)) if engine != cfg.engine => {
                return Err(Violation::new(
                    "EngineAgreement",
                    format!(
                        "config v{}: {prev} runs {engine:?} but {id} runs {:?}",
                        cfg.version, cfg.engine
                    ),
                ));
            }
            Some(&(prev, _, combiner)) if combiner != cfg.combiner => {
                return Err(Violation::new(
                    "EngineAgreement",
                    format!(
                        "config v{}: {prev} combines with {combiner:?} but {id} with {:?}",
                        cfg.version, cfg.combiner
                    ),
                ));
            }
            Some(_) => {}
            None => {
                choice_of_version.insert(cfg.version, (*id, cfg.engine, cfg.combiner));
            }
        }
    }
    Ok(())
}

/// **RoundTermination** — a *supervised* round (one with a configured
/// round deadline) must terminate. Once the system is quiescent — no
/// deliveries or timers pending, so nothing can ever change state again —
/// a leader that started a round must sit in `Done` or `Failed`, never
/// mid-round: the supervisor's abort/retry machinery must convert every
/// dead end into one of the two terminal verdicts.
pub fn round_termination<'a, W: Wire>(
    quiescent: bool,
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
) -> Result<(), Violation> {
    if !quiescent {
        return Ok(());
    }
    for (id, a) in actors {
        let cfg = a.sac_config();
        if cfg.round_deadline.is_none() || cfg.position != cfg.leader_pos || a.round == 0 {
            continue;
        }
        if !matches!(a.phase, SacPhase::Done | SacPhase::Failed(_)) {
            return Err(Violation::new(
                "RoundTermination",
                format!(
                    "{id}: quiescent with round {} still open in phase {:?}",
                    a.round, a.phase
                ),
            ));
        }
    }
    Ok(())
}

/// **DegradedLiveness** — sub-threshold degradation is sound:
///
/// * a leader that finished `Done` holds a well-formed degraded config —
///   roster size `n' >= 2`, `k = min(k0, n')`, and at least `k`
///   contributors — whether or not aborts happened on the way;
/// * a leader may report `Failed` only after at least one abort: the
///   supervisor never gives up on a round it did not first try to salvage.
pub fn degraded_liveness<'a, W: Wire>(
    k0: usize,
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
) -> Result<(), Violation> {
    for (id, a) in actors {
        let cfg = a.sac_config();
        if cfg.round_deadline.is_none() || cfg.position != cfg.leader_pos {
            continue;
        }
        match &a.phase {
            SacPhase::Done => {
                let n = cfg.group.len();
                if n < 2 {
                    return Err(Violation::new(
                        "DegradedLiveness",
                        format!("{id}: Done with a degenerate roster of {n}"),
                    ));
                }
                if cfg.k != k0.min(n) {
                    return Err(Violation::new(
                        "DegradedLiveness",
                        format!("{id}: Done with k = {} instead of min({k0}, {n})", cfg.k),
                    ));
                }
                if a.contributors.len() < cfg.k {
                    return Err(Violation::new(
                        "DegradedLiveness",
                        format!(
                            "{id}: Done with {} contributors, below threshold {}",
                            a.contributors.len(),
                            cfg.k
                        ),
                    ));
                }
            }
            SacPhase::Failed(reason) if a.aborts == 0 => {
                return Err(Violation::new(
                    "DegradedLiveness",
                    format!("{id}: failed without ever aborting ({reason})"),
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// **ByzantineBoundedInfluence** — the Byzantine-robustness claim for one
/// SAC subgroup with a known malicious subset:
///
/// 1. *Conviction is effective*: a position whose share block failed its
///    hash commitment never appears in the frozen contributor set.
/// 2. *Influence is bounded*: every coordinate of the leader's published
///    result lies inside the honest contributors' per-coordinate envelope
///    `[min, max]` (the convexity bound `B` — an adversary that escaped
///    detection still cannot drag the aggregate outside the honest hull).
pub fn byzantine_bounded_influence<'a, W: Wire>(
    actors: impl IntoIterator<Item = (NodeId, &'a RoundCore<W>)>,
    models: &[&WeightVector],
    byzantine: &BTreeSet<usize>,
) -> Result<(), Violation> {
    for (id, a) in actors {
        let cfg = a.sac_config();
        if cfg.position != cfg.leader_pos || a.phase != SacPhase::Done {
            continue;
        }
        if let Some(&b) = a
            .contributors
            .iter()
            .find(|&&b| a.byzantine_detected.contains(&cfg.group[b]))
        {
            return Err(Violation::new(
                "ByzantineBoundedInfluence",
                format!("{id}: position {b} contributed after failing its commitment check"),
            ));
        }
        let Some(result) = a.result.as_ref() else {
            continue; // kofn_result reports the missing result
        };
        let honest: Vec<&WeightVector> = a
            .contributors
            .iter()
            .filter(|c| !byzantine.contains(c))
            .map(|&c| models[c])
            .collect();
        if honest.is_empty() {
            continue;
        }
        for d in 0..result.dim() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for m in &honest {
                lo = lo.min(m.as_slice()[d]);
                hi = hi.max(m.as_slice()[d]);
            }
            let x = result.as_slice()[d];
            if x < lo - TOL || x > hi + TOL {
                return Err(Violation::new(
                    "ByzantineBoundedInfluence",
                    format!(
                        "{id}: result coordinate {d} = {x} escapes the honest envelope \
                         [{lo}, {hi}] (contributors {:?})",
                        a.contributors
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// **EquivocationDetection** — soundness of the config-echo witness
/// protocol with a known malicious subset:
///
/// 1. *No false convictions*: every peer a node holds in its Byzantine set
///    really is in the deployment's malicious subset — an honest peer is
///    never convicted, no matter the interleaving (Raft keeps honest
///    peers' applied configs identical per version, so only a fabricated
///    echo can conflict).
/// 2. *Detection convicts*: a node that counted a conflicting echo has
///    convicted at least one peer.
pub fn equivocation_detection<'a>(
    actors: impl IntoIterator<Item = (NodeId, &'a p2pfl_hierraft::HierActor)>,
    byzantine: &BTreeSet<NodeId>,
) -> Result<(), Violation> {
    for (id, a) in actors {
        if let Some(p) = a.byzantine_peers.iter().find(|p| !byzantine.contains(p)) {
            return Err(Violation::new(
                "EquivocationDetection",
                format!("{id}: convicted honest peer {p} as Byzantine"),
            ));
        }
        if a.equivocations_detected > 0 && a.byzantine_peers.is_empty() {
            return Err(Violation::new(
                "EquivocationDetection",
                format!(
                    "{id}: observed {} conflicting echoes but convicted no one",
                    a.equivocations_detected
                ),
            ));
        }
    }
    Ok(())
}

/// **StorageRoundTrip** — wraps a `verify_storage_roundtrip` result
/// (restoring the node from its persist stream must yield a bisimilar
/// node) into a [`Violation`].
pub fn storage_roundtrip(node: NodeId, result: Result<(), String>) -> Result<(), Violation> {
    result.map_err(|e| Violation::new("StorageRoundTrip", format!("{node}: {e}")))
}

/// **TopologyConvergence** — the elastic layout safety claims, checkable
/// on *every* reachable state (not just quiescent ones):
///
/// 1. *Agreement*: two peers that adopted the same layout version hold the
///    identical layout — topologies replicate through the FedAvg log, so
///    a version names exactly one layout.
/// 2. *Partition*: within any adopted layout, no peer lives in two
///    subgroups.
/// 3. *Convergence*: from the freshest adopted layout, iterating the
///    deterministic planner (`plan` → `apply` each command) reaches a
///    [`p2pfl_hierraft::Topology::converged`] fixpoint within a bounded
///    number of passes, never loses or invents a member along the way, and
///    only an empty plan may coexist with a non-converged layout when
///    there is genuinely nothing to do (single runt group).
pub fn topology_convergence<'a>(
    peers: impl IntoIterator<Item = (NodeId, &'a p2pfl_hierraft::Topology)>,
    bounds: p2pfl_hierraft::ElasticBounds,
) -> Result<(), Violation> {
    let peers: Vec<_> = peers.into_iter().collect();
    let mut by_version: BTreeMap<u64, (NodeId, &p2pfl_hierraft::Topology)> = BTreeMap::new();
    for &(id, t) in &peers {
        if let Some(&(prev, seen)) = by_version.get(&t.version) {
            if seen != t {
                return Err(Violation::new(
                    "TopologyConvergence",
                    format!(
                        "{prev} and {id} adopted different layouts at version {}",
                        t.version
                    ),
                ));
            }
        } else {
            by_version.insert(t.version, (id, t));
        }
        for g in &t.groups {
            for &m in &g.members {
                let homes = t.groups.iter().filter(|h| h.members.contains(&m)).count();
                if homes != 1 {
                    return Err(Violation::new(
                        "TopologyConvergence",
                        format!("{id} v{}: peer {m} lives in {homes} subgroups", t.version),
                    ));
                }
            }
        }
    }
    let Some((&_, &(id, freshest))) = by_version.iter().next_back() else {
        return Ok(());
    };
    let mut t = freshest.clone();
    let members = t.all_members();
    // Each pass retires or repairs at least one out-of-band group, so the
    // fixpoint must arrive within one pass per group plus slack for the
    // groups a pass itself mints.
    let budget = 2 * t.groups.len() + members.len() + 4;
    for _ in 0..budget {
        if t.converged(bounds) {
            return Ok(());
        }
        let cmds = t.plan(bounds);
        if cmds.is_empty() {
            return Err(Violation::new(
                "TopologyConvergence",
                format!("{id} v{}: not converged but the planner is idle", t.version),
            ));
        }
        for cmd in &cmds {
            if let Err(e) = t.apply(cmd) {
                return Err(Violation::new(
                    "TopologyConvergence",
                    format!(
                        "{id} v{}: planner command {cmd:?} rejected: {e:?}",
                        t.version
                    ),
                ));
            }
        }
        if t.all_members() != members {
            return Err(Violation::new(
                "TopologyConvergence",
                format!("{id} v{}: rebalancing changed the membership", t.version),
            ));
        }
    }
    Err(Violation::new(
        "TopologyConvergence",
        format!(
            "{id} v{}: planner failed to converge within {budget} passes",
            freshest.version
        ),
    ))
}

/// **NoMaskReuseAcrossRekey** — every roster transition a peer adopts
/// derives a mask-domain key it has never used before, and the recorded
/// history matches the transition counter (a transition that skipped its
/// key derivation would silently reuse the previous mask stream).
pub fn no_mask_reuse_across_rekey<'a>(
    actors: impl IntoIterator<Item = (NodeId, &'a p2pfl_hierraft::HierActor)>,
) -> Result<(), Violation> {
    for (id, a) in actors {
        if a.rekey_history.len() as u64 != a.rekeys {
            return Err(Violation::new(
                "NoMaskReuseAcrossRekey",
                format!(
                    "{id}: {} re-keys but {} recorded mask domains",
                    a.rekeys,
                    a.rekey_history.len()
                ),
            ));
        }
        let mut seen = BTreeSet::new();
        for &k in &a.rekey_history {
            if !seen.insert(k) {
                return Err(Violation::new(
                    "NoMaskReuseAcrossRekey",
                    format!("{id}: mask domain {k:#x} reused across re-keys"),
                ));
            }
        }
    }
    Ok(())
}
