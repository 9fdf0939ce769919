//! Declarative, seeded fault schedules.
//!
//! A [`FaultPlan`] is a list of timed fault windows — probabilistic message
//! loss, delay spikes, duplication, reordering, asymmetric partitions, node
//! blackouts — plus instantaneous crash/restart events. The same plan value
//! is interpreted by two transports:
//!
//! * the simulator ([`crate::Sim::apply_fault_plan`]) applies link faults at
//!   send time on the virtual clock and schedules crash/restart events;
//! * `p2pfl-net` wraps its reactor's send path with the same
//!   [`LinkFaults`] interpreter, mapping wall-clock time elapsed since the
//!   peer was spawned onto the plan's [`SimTime`] axis, and its drivers
//!   execute the plan's crash/restart events as process kill/recover.
//!
//! All randomness comes from a single seed stored in the plan, so a failing
//! chaos run reproduces from its logged seed. Times are relative to when the
//! plan is applied (virtual time zero in the simulator, peer spawn on the
//! real transport).

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of fault, active inside its entry's time window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FaultAction {
    /// Drop each message independently with this probability.
    Loss {
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Add `extra` (+ uniform up to `jitter`) to every message's delivery.
    Delay {
        /// Deterministic extra delay added to every send.
        extra: SimDuration,
        /// Additional uniform random delay in `[0, jitter)`.
        jitter: SimDuration,
    },
    /// Deliver an extra copy of each message with this probability.
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// Hold back each message with the given probability for a random slice
    /// of `window`, letting later sends overtake it.
    Reorder {
        /// Per-message reorder probability in `[0, 1]`.
        probability: f64,
        /// Maximum hold-back duration.
        window: SimDuration,
    },
    /// Asymmetric partition: drop messages from any node in `src` to any
    /// node in `dst` (the reverse direction is unaffected).
    Partition {
        /// Senders whose traffic is cut.
        src: Vec<NodeId>,
        /// Destinations that stop hearing from `src`.
        dst: Vec<NodeId>,
    },
    /// Asymmetric lossy link: drop messages from any node in `src` to any
    /// node in `dst` with the given probability, while the reverse
    /// direction stays clean. Unlike [`FaultAction::Partition`] the cut is
    /// probabilistic, so some traffic still gets through — the shape that
    /// provokes failure-detector false positives (A hears B, B half-hears
    /// A).
    LinkLoss {
        /// Senders whose outbound traffic is degraded.
        src: Vec<NodeId>,
        /// Destinations that only partially hear from `src`.
        dst: Vec<NodeId>,
        /// Per-message drop probability in `[0, 1]` for matching sends.
        probability: f64,
    },
    /// Cut all traffic to and from one node while leaving it running.
    Blackout {
        /// The isolated node.
        node: NodeId,
    },
    /// Kill the node's process at the window start (`until` is ignored).
    Crash {
        /// The node to kill.
        node: NodeId,
    },
    /// Bring a previously crashed node back at the window start.
    Restart {
        /// The node to revive.
        node: NodeId,
    },
    /// Byzantine: the node scales every masked share it *sends* by
    /// `factor`, while its broadcast commitments stay honest — the runtime
    /// promotion of the mutation self-check's `ShareSkew` mutant. Receivers
    /// with commitment verification enabled detect the mismatch and evict
    /// the sender.
    ShareSkew {
        /// The malicious contributor.
        node: NodeId,
        /// Multiplier applied to each outgoing share partition.
        factor: f64,
    },
    /// Byzantine: the node corrupts its local model update *before* secret
    /// sharing. The shares themselves are internally consistent, so this is
    /// undetectable cryptographically and must be absorbed by robust
    /// combining at the FedAvg layer.
    PoisonUpdate {
        /// The malicious contributor.
        node: NodeId,
        /// How the update is corrupted.
        mode: PoisonMode,
    },
    /// Byzantine: a subgroup leader advertises conflicting replicated
    /// configs (`FedConfig` digests) to different followers via the config
    /// echo channel. Raft keeps the committed truth consistent, so honest
    /// followers that compare echoes detect the equivocation.
    Equivocate {
        /// The equivocating leader.
        node: NodeId,
    },
    /// Byzantine: a leader proposes a roster (`SubMembers`) naming a peer
    /// outside the configured subgroup. Honest followers refuse to apply
    /// it.
    BogusRoster {
        /// The node injecting the bogus roster.
        node: NodeId,
    },
}

/// How a Byzantine peer corrupts its model update ([`FaultAction::PoisonUpdate`]).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PoisonMode {
    /// Negate every parameter (gradient-ascent attack).
    SignFlip,
    /// Scale every parameter by `factor` (norm-boost attack).
    NormBoost {
        /// Multiplier, typically large (e.g. 25–100).
        factor: f64,
    },
}

/// The Byzantine behaviors a [`FaultPlan`] assigns one node at one instant
/// — the content-level companion to [`LinkFaults::on_send`]'s link-level
/// verdicts. Both transports derive it from the same plan via
/// [`FaultPlan::byzantine`], so adversarial behavior replays identically on
/// the simulator and over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ByzantineSpec {
    /// Scale outgoing shares by this factor ([`FaultAction::ShareSkew`]).
    pub share_skew: Option<f64>,
    /// Corrupt the local update ([`FaultAction::PoisonUpdate`]).
    pub poison: Option<PoisonMode>,
    /// Advertise conflicting configs ([`FaultAction::Equivocate`]).
    pub equivocate: bool,
    /// Propose out-of-subgroup rosters ([`FaultAction::BogusRoster`]).
    pub bogus_roster: bool,
}

impl ByzantineSpec {
    /// Whether any Byzantine behavior is active.
    pub fn is_byzantine(&self) -> bool {
        self.share_skew.is_some() || self.poison.is_some() || self.equivocate || self.bogus_roster
    }
}

/// A fault active from `from` until `until` (open-ended when `None`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultEntry {
    /// Window start (inclusive), relative to plan application.
    pub from: SimTime,
    /// Window end (exclusive); `None` means until the end of the run.
    /// Ignored for [`FaultAction::Crash`] / [`FaultAction::Restart`],
    /// which are instantaneous events at `from`.
    pub until: Option<SimTime>,
    /// What goes wrong during the window.
    pub action: FaultAction,
}

impl FaultEntry {
    fn active_at(&self, now: SimTime) -> bool {
        self.from <= now && self.until.is_none_or(|u| now < u)
    }
}

/// An instantaneous process-level event extracted from a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessEvent {
    /// When it happens, relative to plan application.
    pub at: SimTime,
    /// Which node it happens to.
    pub node: NodeId,
    /// Kill or revive.
    pub fault: ProcessFault,
}

/// The two process-level fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessFault {
    /// The node's process dies; volatile state is lost.
    Crash,
    /// The node's process comes back (recovering persisted state, if any).
    Restart,
}

/// A seeded, declarative schedule of faults.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision the plan's interpreter makes.
    pub seed: u64,
    /// The scheduled faults, in no particular order.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given interpreter seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
        }
    }

    fn with(mut self, from: SimTime, until: Option<SimTime>, action: FaultAction) -> Self {
        self.entries.push(FaultEntry {
            from,
            until,
            action,
        });
        self
    }

    /// Adds an i.i.d. message-loss window.
    pub fn loss(self, from: SimTime, until: SimTime, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.with(from, Some(until), FaultAction::Loss { probability })
    }

    /// Adds a delay-spike window (`extra` plus uniform jitter).
    pub fn delay(
        self,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
        jitter: SimDuration,
    ) -> Self {
        self.with(from, Some(until), FaultAction::Delay { extra, jitter })
    }

    /// Adds a duplication window.
    pub fn duplicate(self, from: SimTime, until: SimTime, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.with(from, Some(until), FaultAction::Duplicate { probability })
    }

    /// Adds a reordering window.
    pub fn reorder(
        self,
        from: SimTime,
        until: SimTime,
        probability: f64,
        window: SimDuration,
    ) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.with(
            from,
            Some(until),
            FaultAction::Reorder {
                probability,
                window,
            },
        )
    }

    /// Adds an asymmetric partition window cutting `src -> dst` traffic.
    pub fn partition(
        self,
        from: SimTime,
        until: SimTime,
        src: Vec<NodeId>,
        dst: Vec<NodeId>,
    ) -> Self {
        self.with(from, Some(until), FaultAction::Partition { src, dst })
    }

    /// Adds an asymmetric lossy-link window: `src -> dst` sends drop with
    /// `probability`, the reverse direction is untouched.
    pub fn link_loss(
        self,
        from: SimTime,
        until: SimTime,
        src: Vec<NodeId>,
        dst: Vec<NodeId>,
        probability: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.with(
            from,
            Some(until),
            FaultAction::LinkLoss {
                src,
                dst,
                probability,
            },
        )
    }

    /// Adds a full blackout window for one node (all its links cut).
    pub fn blackout(self, from: SimTime, until: SimTime, node: NodeId) -> Self {
        self.with(from, Some(until), FaultAction::Blackout { node })
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, None, FaultAction::Crash { node })
    }

    /// Schedules a restart of `node` at `at`.
    pub fn restart(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, None, FaultAction::Restart { node })
    }

    /// Adds a share-skew window: `node` scales its outgoing shares by
    /// `factor` while committing to the honest values.
    pub fn share_skew(
        self,
        from: SimTime,
        until: Option<SimTime>,
        node: NodeId,
        factor: f64,
    ) -> Self {
        self.with(from, until, FaultAction::ShareSkew { node, factor })
    }

    /// Adds a poisoned-update window: `node` corrupts its local model
    /// before sharing it.
    pub fn poison(
        self,
        from: SimTime,
        until: Option<SimTime>,
        node: NodeId,
        mode: PoisonMode,
    ) -> Self {
        self.with(from, until, FaultAction::PoisonUpdate { node, mode })
    }

    /// Adds an equivocation window: `node` (as leader) advertises
    /// conflicting configs to different followers.
    pub fn equivocate(self, from: SimTime, until: Option<SimTime>, node: NodeId) -> Self {
        self.with(from, until, FaultAction::Equivocate { node })
    }

    /// Adds a bogus-roster window: `node` proposes rosters naming peers
    /// outside the configured subgroup.
    pub fn bogus_roster(self, from: SimTime, until: Option<SimTime>, node: NodeId) -> Self {
        self.with(from, until, FaultAction::BogusRoster { node })
    }

    /// The Byzantine behaviors the plan assigns `node` at `now` (relative
    /// to plan application). Both the simulator-backed runner and the TCP
    /// drivers consult this one query, so a plan's adversarial content is
    /// interpreted identically on both transports.
    pub fn byzantine(&self, node: NodeId, now: SimTime) -> ByzantineSpec {
        let mut spec = ByzantineSpec::default();
        for e in &self.entries {
            if !e.active_at(now) {
                continue;
            }
            match e.action {
                FaultAction::ShareSkew { node: n, factor } if n == node => {
                    spec.share_skew = Some(factor);
                }
                FaultAction::PoisonUpdate { node: n, mode } if n == node => {
                    spec.poison = Some(mode);
                }
                FaultAction::Equivocate { node: n } if n == node => spec.equivocate = true,
                FaultAction::BogusRoster { node: n } if n == node => spec.bogus_roster = true,
                _ => {}
            }
        }
        spec
    }

    /// The nodes with any Byzantine behavior scheduled anywhere in the
    /// plan, deduplicated.
    pub fn byzantine_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for e in &self.entries {
            let n = match e.action {
                FaultAction::ShareSkew { node, .. }
                | FaultAction::PoisonUpdate { node, .. }
                | FaultAction::Equivocate { node }
                | FaultAction::BogusRoster { node } => node,
                _ => continue,
            };
            if !out.contains(&n) {
                out.push(n);
            }
        }
        out
    }

    /// The plan's crash/restart events, sorted by time (ties keep entry
    /// order). Drivers for real transports execute these themselves; the
    /// simulator turns them into scheduled events.
    pub fn process_events(&self) -> Vec<ProcessEvent> {
        let mut evs: Vec<ProcessEvent> = self
            .entries
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::Crash { node } => Some(ProcessEvent {
                    at: e.from,
                    node,
                    fault: ProcessFault::Crash,
                }),
                FaultAction::Restart { node } => Some(ProcessEvent {
                    at: e.from,
                    node,
                    fault: ProcessFault::Restart,
                }),
                _ => None,
            })
            .collect();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// Whether the plan contains any entry that can discard a message
    /// (loss, partition, or blackout windows). Plans without such entries
    /// preserve every send, so aggregation digests must match a fault-free
    /// run bit for bit.
    pub fn can_drop_messages(&self) -> bool {
        self.entries.iter().any(|e| {
            matches!(
                e.action,
                FaultAction::Loss { .. }
                    | FaultAction::LinkLoss { .. }
                    | FaultAction::Partition { .. }
                    | FaultAction::Blackout { .. }
            )
        })
    }

    /// Generates a randomized link-chaos plan over `horizon`: a handful of
    /// delay-spike, duplication, and reordering windows, plus — when `lossy`
    /// — loss windows and short single-node blackouts. Crash/restart events
    /// are deliberately left to the caller, which knows which roles (leader,
    /// follower, representative) it wants to hit.
    pub fn randomized(seed: u64, nodes: &[NodeId], horizon: SimTime, lossy: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa_417);
        let mut plan = FaultPlan::new(seed);
        let span = horizon.as_nanos().max(1);
        let window = |rng: &mut StdRng| {
            let a = rng.random::<u64>() % span;
            let b = rng.random::<u64>() % span;
            (
                SimTime::from_nanos(a.min(b)),
                SimTime::from_nanos(a.max(b) + 1),
            )
        };
        for _ in 0..1 + rng.random::<u64>() % 3 {
            let (from, until) = window(&mut rng);
            let extra = SimDuration::from_millis(1 + rng.random::<u64>() % 20);
            let jitter = SimDuration::from_millis(rng.random::<u64>() % 10);
            plan = plan.delay(from, until, extra, jitter);
        }
        for _ in 0..1 + rng.random::<u64>() % 2 {
            let (from, until) = window(&mut rng);
            plan = plan.duplicate(from, until, 0.05 + rng.random::<f64>() * 0.25);
        }
        for _ in 0..1 + rng.random::<u64>() % 2 {
            let (from, until) = window(&mut rng);
            let w = SimDuration::from_millis(1 + rng.random::<u64>() % 30);
            plan = plan.reorder(from, until, 0.05 + rng.random::<f64>() * 0.2, w);
        }
        if lossy {
            for _ in 0..1 + rng.random::<u64>() % 2 {
                let (from, until) = window(&mut rng);
                plan = plan.loss(from, until, 0.01 + rng.random::<f64>() * 0.1);
            }
            if !nodes.is_empty() && rng.random::<f64>() < 0.5 {
                let victim = nodes[(rng.random::<u64>() % nodes.len() as u64) as usize];
                let start = SimTime::from_nanos(rng.random::<u64>() % span);
                let len = SimDuration::from_nanos(1 + rng.random::<u64>() % (span / 8).max(1));
                plan = plan.blackout(start, start + len, victim);
            }
        }
        plan
    }
}

/// Why [`LinkFaults`] discarded a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDropCause {
    /// A loss window sampled a drop.
    Loss,
    /// A partition or blackout window cut the link.
    Partitioned,
}

/// The per-send decision produced by [`LinkFaults::on_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVerdict {
    /// How many copies to deliver (0 = dropped, 2+ = duplicated).
    pub copies: u32,
    /// Extra delay to add to each delivered copy.
    pub extra_delay: SimDuration,
    /// Set when `copies == 0`.
    pub cause: Option<LinkDropCause>,
}

impl LinkVerdict {
    /// The verdict for a healthy link: one copy, no extra delay.
    pub fn clean() -> Self {
        LinkVerdict {
            copies: 1,
            extra_delay: SimDuration::ZERO,
            cause: None,
        }
    }
}

/// The link-level interpreter of a [`FaultPlan`]: stateful (it owns the
/// plan's RNG) and consulted once per send by whichever transport hosts it.
#[derive(Debug)]
pub struct LinkFaults {
    entries: Vec<FaultEntry>,
    origin: SimTime,
    rng: StdRng,
}

impl LinkFaults {
    /// Builds the interpreter for `plan`, seeding its RNG from the plan.
    /// Plan times are interpreted relative to time zero; use
    /// [`LinkFaults::new_at`] when applying a plan mid-run.
    pub fn new(plan: &FaultPlan) -> Self {
        Self::new_at(plan, SimTime::ZERO)
    }

    /// Builds the interpreter with the plan's time axis anchored at
    /// `origin`: an entry with `from = 10ms` activates at `origin + 10ms`.
    pub fn new_at(plan: &FaultPlan, origin: SimTime) -> Self {
        LinkFaults {
            entries: plan.entries.clone(),
            origin,
            rng: StdRng::seed_from_u64(plan.seed ^ 0x11_4b_fa_17),
        }
    }

    /// Decides the fate of one `src -> dst` message sent at `now`.
    /// Loopback sends (`src == dst`) must not be routed through here —
    /// both transports deliver those locally, outside the fault layer.
    pub fn on_send(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> LinkVerdict {
        let now = SimTime::from_nanos(now.as_nanos().saturating_sub(self.origin.as_nanos()));
        let mut verdict = LinkVerdict::clean();
        for e in &self.entries {
            if !e.active_at(now) {
                continue;
            }
            match &e.action {
                FaultAction::Partition { src: s, dst: d } => {
                    if s.contains(&src) && d.contains(&dst) {
                        return LinkVerdict {
                            copies: 0,
                            extra_delay: SimDuration::ZERO,
                            cause: Some(LinkDropCause::Partitioned),
                        };
                    }
                }
                FaultAction::Blackout { node } => {
                    if src == *node || dst == *node {
                        return LinkVerdict {
                            copies: 0,
                            extra_delay: SimDuration::ZERO,
                            cause: Some(LinkDropCause::Partitioned),
                        };
                    }
                }
                FaultAction::Loss { probability } => {
                    if self.rng.random::<f64>() < *probability {
                        return LinkVerdict {
                            copies: 0,
                            extra_delay: SimDuration::ZERO,
                            cause: Some(LinkDropCause::Loss),
                        };
                    }
                }
                FaultAction::LinkLoss {
                    src: s,
                    dst: d,
                    probability,
                } => {
                    if s.contains(&src)
                        && d.contains(&dst)
                        && self.rng.random::<f64>() < *probability
                    {
                        return LinkVerdict {
                            copies: 0,
                            extra_delay: SimDuration::ZERO,
                            cause: Some(LinkDropCause::Loss),
                        };
                    }
                }
                FaultAction::Duplicate { probability } => {
                    if self.rng.random::<f64>() < *probability {
                        verdict.copies += 1;
                    }
                }
                FaultAction::Delay { extra, jitter } => {
                    verdict.extra_delay = verdict.extra_delay + *extra;
                    if jitter.as_nanos() > 0 {
                        let j = self.rng.random::<u64>() % jitter.as_nanos();
                        verdict.extra_delay = verdict.extra_delay + SimDuration::from_nanos(j);
                    }
                }
                FaultAction::Reorder {
                    probability,
                    window,
                } => {
                    if window.as_nanos() > 0 && self.rng.random::<f64>() < *probability {
                        let j = self.rng.random::<u64>() % window.as_nanos();
                        verdict.extra_delay = verdict.extra_delay + SimDuration::from_nanos(j);
                    }
                }
                // Process events and content-level Byzantine behaviors are
                // not link faults: the former are executed by the drivers,
                // the latter by the actors via [`FaultPlan::byzantine`].
                FaultAction::Crash { .. }
                | FaultAction::Restart { .. }
                | FaultAction::ShareSkew { .. }
                | FaultAction::PoisonUpdate { .. }
                | FaultAction::Equivocate { .. }
                | FaultAction::BogusRoster { .. } => {}
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn windows_gate_activity() {
        let plan = FaultPlan::new(1).loss(SimTime::from_millis(10), SimTime::from_millis(20), 1.0);
        let mut lf = LinkFaults::new(&plan);
        assert_eq!(lf.on_send(SimTime::from_millis(5), n(0), n(1)).copies, 1);
        assert_eq!(lf.on_send(SimTime::from_millis(10), n(0), n(1)).copies, 0);
        assert_eq!(lf.on_send(SimTime::from_millis(19), n(0), n(1)).copies, 0);
        // `until` is exclusive.
        assert_eq!(lf.on_send(SimTime::from_millis(20), n(0), n(1)).copies, 1);
    }

    #[test]
    fn partition_is_asymmetric_and_blackout_is_total() {
        let plan = FaultPlan::new(2)
            .partition(SimTime::ZERO, SimTime::from_secs(1), vec![n(0)], vec![n(1)])
            .blackout(SimTime::ZERO, SimTime::from_secs(1), n(3));
        let mut lf = LinkFaults::new(&plan);
        let t = SimTime::from_millis(1);
        assert_eq!(
            lf.on_send(t, n(0), n(1)).cause,
            Some(LinkDropCause::Partitioned)
        );
        assert_eq!(
            lf.on_send(t, n(1), n(0)).copies,
            1,
            "reverse direction open"
        );
        assert_eq!(lf.on_send(t, n(3), n(2)).copies, 0, "blackout cuts egress");
        assert_eq!(lf.on_send(t, n(2), n(3)).copies, 0, "blackout cuts ingress");
        assert_eq!(lf.on_send(t, n(2), n(1)).copies, 1);
    }

    #[test]
    fn link_loss_is_one_way() {
        // A -> B drops everything; B -> A (and unrelated links) stay clean.
        let plan = FaultPlan::new(6).link_loss(
            SimTime::ZERO,
            SimTime::from_secs(1),
            vec![n(0)],
            vec![n(1)],
            1.0,
        );
        let mut lf = LinkFaults::new(&plan);
        let t = SimTime::from_millis(1);
        let v = lf.on_send(t, n(0), n(1));
        assert_eq!(v.copies, 0);
        assert_eq!(v.cause, Some(LinkDropCause::Loss));
        assert_eq!(lf.on_send(t, n(1), n(0)).copies, 1, "reverse stays clean");
        assert_eq!(lf.on_send(t, n(0), n(2)).copies, 1, "other dsts clean");
        assert!(plan.can_drop_messages());
    }

    #[test]
    fn link_loss_is_probabilistic_per_matching_send() {
        let plan = FaultPlan::new(7).link_loss(
            SimTime::ZERO,
            SimTime::from_secs(1),
            vec![n(0)],
            vec![n(1)],
            0.5,
        );
        let mut lf = LinkFaults::new(&plan);
        let t = SimTime::from_millis(1);
        let dropped = (0..200)
            .filter(|_| lf.on_send(t, n(0), n(1)).copies == 0)
            .count();
        assert!(
            (40..160).contains(&dropped),
            "p=0.5 should drop roughly half, got {dropped}/200"
        );
    }

    #[test]
    fn duplicate_and_delay_compose() {
        let plan = FaultPlan::new(3)
            .duplicate(SimTime::ZERO, SimTime::from_secs(1), 1.0)
            .delay(
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimDuration::from_millis(7),
                SimDuration::ZERO,
            );
        let mut lf = LinkFaults::new(&plan);
        let v = lf.on_send(SimTime::from_millis(1), n(0), n(1));
        assert_eq!(v.copies, 2);
        assert_eq!(v.extra_delay, SimDuration::from_millis(7));
    }

    #[test]
    fn same_seed_same_verdicts() {
        let plan = FaultPlan::new(44)
            .loss(SimTime::ZERO, SimTime::from_secs(1), 0.5)
            .reorder(
                SimTime::ZERO,
                SimTime::from_secs(1),
                0.5,
                SimDuration::from_millis(10),
            );
        let run = || {
            let mut lf = LinkFaults::new(&plan);
            (0..64)
                .map(|i| lf.on_send(SimTime::from_millis(i), n(0), n(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn process_events_sorted_and_typed() {
        let plan = FaultPlan::new(5)
            .restart(SimTime::from_millis(30), n(2))
            .crash(SimTime::from_millis(10), n(2))
            .loss(SimTime::ZERO, SimTime::from_secs(1), 0.1);
        let evs = plan.process_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].fault, ProcessFault::Crash);
        assert_eq!(evs[0].at, SimTime::from_millis(10));
        assert_eq!(evs[1].fault, ProcessFault::Restart);
        assert!(plan.can_drop_messages());
        assert!(!FaultPlan::new(0)
            .duplicate(SimTime::ZERO, SimTime::from_secs(1), 0.5)
            .can_drop_messages());
    }

    #[test]
    fn byzantine_spec_is_windowed_and_per_node() {
        let plan = FaultPlan::new(8)
            .share_skew(
                SimTime::from_millis(10),
                Some(SimTime::from_millis(20)),
                n(1),
                0.5,
            )
            .poison(SimTime::ZERO, None, n(1), PoisonMode::SignFlip)
            .equivocate(SimTime::ZERO, None, n(2))
            .bogus_roster(SimTime::ZERO, None, n(2));
        let at = |ms| SimTime::from_millis(ms);
        assert_eq!(plan.byzantine(n(1), at(15)).share_skew, Some(0.5));
        assert_eq!(
            plan.byzantine(n(1), at(25)).share_skew,
            None,
            "window closed"
        );
        assert_eq!(
            plan.byzantine(n(1), at(25)).poison,
            Some(PoisonMode::SignFlip)
        );
        assert!(plan.byzantine(n(2), at(0)).equivocate);
        assert!(plan.byzantine(n(2), at(0)).bogus_roster);
        assert!(!plan.byzantine(n(0), at(15)).is_byzantine(), "honest node");
        assert_eq!(plan.byzantine_nodes(), vec![n(1), n(2)]);
        // Byzantine entries never drop or mutate link-level verdicts.
        assert!(!plan.can_drop_messages());
        let mut lf = LinkFaults::new(&plan);
        assert_eq!(lf.on_send(at(15), n(1), n(0)), LinkVerdict::clean());
    }

    #[test]
    fn randomized_plans_are_reproducible_and_respect_lossiness() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let a = FaultPlan::randomized(9, &nodes, SimTime::from_secs(2), false);
        let b = FaultPlan::randomized(9, &nodes, SimTime::from_secs(2), false);
        assert_eq!(a, b);
        assert!(
            !a.can_drop_messages(),
            "clean generator must preserve messages"
        );
        assert!(!a.entries.is_empty());
        let c = FaultPlan::randomized(9, &nodes, SimTime::from_secs(2), true);
        assert!(c.can_drop_messages());
    }
}
