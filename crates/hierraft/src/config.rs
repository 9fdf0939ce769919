//! Types shared across the two-layer Raft: layer commands, the replicated
//! FedAvg-layer configuration, the wrapped message enum, and per-peer
//! configuration.

use crate::elastic::{ElasticBounds, Topology, TopologyCmd};
use p2pfl_fed::RobustCombiner;
use p2pfl_raft::{Command, RaftMsg};
use p2pfl_secagg::SacEngine;
use p2pfl_simnet::{NodeId, Payload, SimDuration};

/// The FedAvg-layer configuration that subgroup leaders periodically commit
/// into their subgroup logs (paper Sec. V-A1: "IP addresses and IDs of
/// peers in FedAvg layer").
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FedConfig {
    /// The founding FedAvg-layer membership. A joining node seeds its
    /// FedAvg-layer Raft log from this set; replaying the replicated
    /// membership-change entries then yields `current`.
    pub founding: Vec<NodeId>,
    /// The membership as of this commit.
    pub current: Vec<NodeId>,
    /// Which secure-aggregation engine the deployment runs. Replicated so
    /// that every subgroup member agrees on the engine for a round — the
    /// whole `FedConfig` advances atomically under the version max-advance
    /// rule, so a subgroup can never mix engines within one round.
    pub engine: SacEngine,
    /// Which FedAvg-layer combining rule the deployment applies to group
    /// averages. Replicated on the same atomic path as `engine`, so every
    /// peer agrees per round on how Byzantine group averages are absorbed.
    pub combiner: RobustCombiner,
    /// Monotone version counter.
    pub version: u64,
}

impl FedConfig {
    /// A cheap FNV-1a digest over the whole config, used by the config
    /// echo protocol to cross-check that a leader advertised the same
    /// config to every follower (equivocation detection).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u64| {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.version);
        eat(self.engine as u64);
        eat(self.combiner as u64);
        eat(self.founding.len() as u64);
        for m in &self.founding {
            eat(m.0 as u64);
        }
        for m in &self.current {
            eat(m.0 as u64);
        }
        h
    }
}

/// The replicated *aggregation roster* of one subgroup: which members the
/// round supervisor currently includes in SAC rounds. Replicated through
/// the subgroup Raft log on the same path as [`FedConfig`] (paper Sec. V),
/// so it is durable and survives leader failover. Distinct from the Raft
/// cluster itself — evicting a peer from the roster shrinks `n'` for
/// aggregation without touching Raft quorum, and a revived peer is
/// re-admitted by a new roster version rather than a membership change.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SubMembers {
    /// Members currently included in aggregation rounds.
    pub members: Vec<NodeId>,
    /// Monotone version counter (same max-advance rule as [`FedConfig`]).
    pub version: u64,
}

/// What a subgroup log folds to: the snapshot blob a [`crate::HierActor`]
/// cuts its subgroup log into, persists through `PersistOp::Compact` and
/// ships in `InstallSnapshot`. Each field is the latest value by version;
/// a restored follower adopts each under its usual max-advance rule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubSnapshot {
    /// Latest replicated FedAvg-layer configuration.
    pub fed_config: FedConfig,
    /// Latest replicated aggregation roster.
    pub sub_members: SubMembers,
    /// Latest adopted elastic layout.
    pub topology: Topology,
}

/// What the FedAvg-layer log folds to (see [`SubSnapshot`]): the last
/// committed round marker and the layout the topology commands built.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FedSnapshot {
    /// The last [`FedCmd::Round`] marker applied, if any.
    pub last_round: Option<u64>,
    /// The layout after every applied [`FedCmd::Topology`] command.
    pub topology: Topology,
}

/// Commands carried by a *subgroup* (SAC-layer) Raft log.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SubCmd {
    /// The replicated FedAvg-layer configuration.
    FedConfig(FedConfig),
    /// The replicated aggregation roster (failure-detector evictions and
    /// re-admissions).
    Members(SubMembers),
    /// An opaque application command (used by tests and the aggregation
    /// system to sequence round numbers).
    App(u64),
    /// The adopted elastic layout, re-committed by subgroup leaders so
    /// followers that hold no FedAvg-layer seat still learn topology
    /// transitions through their own subgroup log (same durable path as
    /// [`FedConfig`], same version max-advance rule).
    Topology(Topology),
}

impl Command for SubCmd {
    fn wire_bytes(&self) -> u64 {
        match self {
            // 8B version + 1B engine + 1B combiner + 8B lengths.
            SubCmd::FedConfig(c) => 18 + 8 * (c.founding.len() + c.current.len()) as u64,
            SubCmd::Members(m) => 16 + 8 * m.members.len() as u64,
            SubCmd::App(_) => 8,
            SubCmd::Topology(t) => topology_wire_bytes(t),
        }
    }
}

/// 8B version + 8B next id + per group: 8B gid + 8B length + 4B per member.
fn topology_wire_bytes(t: &Topology) -> u64 {
    16 + t
        .groups
        .iter()
        .map(|g| 16 + 4 * g.members.len() as u64)
        .sum::<u64>()
}

/// Commands carried by the *FedAvg-layer* Raft log: round-control markers
/// sequenced by the aggregation system, and elastic-topology operations —
/// the federation Raft is the single serialization point for layout
/// changes, so every peer adopts the same plan in the same order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FedCmd {
    /// An opaque round-control marker (round numbers).
    Round(u64),
    /// A replicated elastic-topology operation (split, merge, admission,
    /// departure). See [`crate::Topology`].
    Topology(TopologyCmd),
}

impl Command for FedCmd {
    fn wire_bytes(&self) -> u64 {
        match self {
            FedCmd::Round(_) => 8,
            FedCmd::Topology(TopologyCmd::Split { left, right, .. }) => {
                8 + 4 * (left.len() + right.len()) as u64
            }
            FedCmd::Topology(TopologyCmd::Merge { .. }) => 16,
            FedCmd::Topology(TopologyCmd::Admit { .. }) => 12,
            FedCmd::Topology(TopologyCmd::Depart { .. }) => 4,
        }
    }
}

/// Every message a two-layer peer can receive.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum HierMsg {
    /// Subgroup-layer Raft traffic.
    Sub(RaftMsg<SubCmd>),
    /// FedAvg-layer Raft traffic.
    Fed(RaftMsg<FedCmd>),
    /// A newly elected subgroup leader asks the FedAvg leader to admit it,
    /// replacing its subgroup's previous (crashed) representative.
    JoinRequest {
        /// The joining subgroup leader.
        from: NodeId,
        /// The member it replaces, if the joiner knows one.
        replaces: Option<NodeId>,
    },
    /// Response to a join request.
    JoinAck {
        /// Whether the join was accepted (sender was the FedAvg leader).
        accepted: bool,
        /// If rejected, the sender's best guess of the FedAvg leader —
        /// the paper's "connect to the FedAvg leader directly or through
        /// other FedAvg-layer followers".
        leader: Option<NodeId>,
    },
    /// Explicit liveness probe from a subgroup leader to a member it
    /// suspects (the Raft heartbeat went quiet).
    Probe {
        /// Correlation sequence number.
        seq: u64,
    },
    /// Response to a probe; any receipt revives the sender in the prober's
    /// failure detector.
    ProbeAck {
        /// Echoed sequence number.
        seq: u64,
    },
    /// Best-effort notice to a peer that the failure detector confirmed it
    /// dead and it was evicted from the aggregation roster. A peer that is
    /// in fact alive (asymmetric partition) answers with a `ProbeAck`,
    /// which revives it and triggers re-admission.
    Evict {
        /// Human-readable cause, for logs and traces.
        reason: String,
    },
    /// Equivocation witness: each peer broadcasts the digest of the
    /// [`FedConfig`] it applied at `version` to its subgroup. Raft keeps
    /// the committed config consistent, so two echoes for the same version
    /// with different digests prove the advertising leader equivocated.
    ConfigEcho {
        /// The applied config's version.
        version: u64,
        /// [`FedConfig::digest`] of the applied config.
        digest: u64,
    },
    /// A fresh peer that belongs to no subgroup yet asks for a rendezvous
    /// assignment (elastic deployments replace the static `DeploymentSpec`
    /// placement with this). Polled on the join interval until the FedAvg
    /// leader commits an `Admit` and answers.
    Rendezvous {
        /// The unplaced joiner.
        from: NodeId,
    },
    /// Response to a rendezvous poll. Only the FedAvg leader answers
    /// `accepted: true`, and only after the joiner's `Admit` committed —
    /// the carried topology therefore already contains the joiner.
    RendezvousAssign {
        /// Whether the sender was the FedAvg leader and the admission is
        /// committed.
        accepted: bool,
        /// If rejected, the sender's best guess of the FedAvg leader.
        leader: Option<NodeId>,
        /// On acceptance, the committed layout containing the joiner.
        topology: Option<Topology>,
    },
    /// Layout catch-up: sent to a peer observed operating on a stale
    /// topology (e.g. it kept addressing a subgroup that has since split),
    /// and pushed best-effort to every affected peer when a topology
    /// command applies. Receivers adopt it under the version max-advance
    /// rule, so duplicates and reorderings are harmless.
    TopologySync {
        /// The sender's adopted layout.
        topology: Topology,
    },
}

impl Payload for HierMsg {
    fn size_bytes(&self) -> u64 {
        match self {
            HierMsg::Sub(m) => m.size_bytes(),
            HierMsg::Fed(m) => m.size_bytes(),
            HierMsg::JoinRequest { .. } => 24,
            HierMsg::JoinAck { .. } => 16,
            HierMsg::Probe { .. } | HierMsg::ProbeAck { .. } => 16,
            HierMsg::Evict { reason } => 8 + reason.len() as u64,
            HierMsg::ConfigEcho { .. } => 16,
            HierMsg::Rendezvous { .. } => 8,
            HierMsg::RendezvousAssign { topology, .. } => {
                16 + topology.as_ref().map_or(0, topology_wire_bytes)
            }
            HierMsg::TopologySync { topology } => topology_wire_bytes(topology),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            HierMsg::Sub(_) => "hier.sub",
            HierMsg::Fed(_) => "hier.fed",
            HierMsg::JoinRequest { .. } => "hier.join_request",
            HierMsg::JoinAck { .. } => "hier.join_ack",
            HierMsg::Probe { .. } => "hier.probe",
            HierMsg::ProbeAck { .. } => "hier.probe_ack",
            HierMsg::Evict { .. } => "hier.evict",
            HierMsg::ConfigEcho { .. } => "hier.config_echo",
            HierMsg::Rendezvous { .. } => "hier.rendezvous",
            HierMsg::RendezvousAssign { .. } => "hier.rendezvous_assign",
            HierMsg::TopologySync { .. } => "hier.topology_sync",
        }
    }
}

/// Static configuration of one two-layer peer.
#[derive(Debug, Clone)]
pub struct HierPeerConfig {
    /// This peer's id.
    pub id: NodeId,
    /// All members of this peer's subgroup (including itself).
    pub subgroup: Vec<NodeId>,
    /// Index of the subgroup within the deployment.
    pub subgroup_index: usize,
    /// The designated founding FedAvg-layer members, one per subgroup.
    pub founding_fed: Vec<NodeId>,
    /// Election timeout lower bound `T` (timeouts are `U(T, 2T)`). The
    /// heartbeat, probe and detector windows derive from it (see
    /// [`HierPeerConfig::heartbeat`]).
    pub t: SimDuration,
    /// How often a subgroup leader re-commits the FedAvg-layer config.
    pub config_commit_interval: SimDuration,
    /// How often a pending joiner polls for a FedAvg leader (paper: 100 ms).
    pub join_poll_interval: SimDuration,
    /// The secure-aggregation engine this deployment was launched with;
    /// seeds the first replicated [`FedConfig`] commit.
    pub engine: SacEngine,
    /// The FedAvg-layer combining rule this deployment was launched with;
    /// seeds the first replicated [`FedConfig`] commit alongside `engine`.
    pub combiner: RobustCombiner,
    /// Seed for timeout randomization.
    pub seed: u64,
    /// Elastic-topology configuration. `None` keeps the static layout
    /// (every pre-elastic deployment and test is unchanged).
    pub elastic: Option<ElasticPeerConfig>,
}

/// Per-peer elastic-topology configuration.
#[derive(Debug, Clone)]
pub struct ElasticPeerConfig {
    /// The size band every subgroup must stay within.
    pub bounds: ElasticBounds,
    /// The full deployment layout known at launch time — the seed of the
    /// replicated [`Topology`] at version 0. Empty for a rendezvous
    /// joiner: such a peer belongs to no subgroup until the FedAvg leader
    /// commits its `Admit` and the assignment reaches it.
    pub initial_groups: Vec<Vec<NodeId>>,
}

impl HierPeerConfig {
    /// Whether this peer is a designated founding FedAvg-layer member.
    pub fn is_founding(&self) -> bool {
        self.founding_fed.contains(&self.id)
    }

    /// Leader heartbeat period of both Raft layers: `T/5`, well under the
    /// `U(T, 2T)` election timeout.
    pub fn heartbeat(&self) -> SimDuration {
        SimDuration::from_nanos((self.t.as_nanos() / 5).max(1))
    }

    /// How often a subgroup leader re-evaluates its failure detector and
    /// probes suspected members: once per heartbeat.
    pub fn probe_interval(&self) -> SimDuration {
        self.heartbeat()
    }

    /// Quiet window after which a subgroup member is *suspected* (and
    /// probed directly): one election timeout floor, `T`.
    pub fn suspect_after(&self) -> SimDuration {
        self.t
    }

    /// Quiet window after which a suspected member is confirmed *dead* and
    /// evicted from the replicated aggregation roster: `3T`.
    pub fn dead_after(&self) -> SimDuration {
        self.t.saturating_mul(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcmd_sizes() {
        assert_eq!(SubCmd::App(1).wire_bytes(), 8);
        let cfg = SubCmd::FedConfig(FedConfig {
            founding: vec![NodeId(0), NodeId(5)],
            current: vec![NodeId(0), NodeId(5)],
            engine: SacEngine::Pairwise,
            combiner: RobustCombiner::FedAvg,
            version: 1,
        });
        assert_eq!(cfg.wire_bytes(), 18 + 32);
    }

    #[test]
    fn fed_config_digest_separates_combiner_and_engine() {
        let base = FedConfig {
            founding: vec![NodeId(0)],
            current: vec![NodeId(0)],
            engine: SacEngine::Pairwise,
            combiner: RobustCombiner::FedAvg,
            version: 3,
        };
        let mut other = base.clone();
        other.combiner = RobustCombiner::TrimmedMean;
        assert_ne!(base.digest(), other.digest());
        let mut ring = base.clone();
        ring.engine = SacEngine::Ring;
        assert_ne!(base.digest(), ring.digest());
        assert_eq!(base.digest(), base.clone().digest());
    }

    #[test]
    fn hiermsg_kinds() {
        let j = HierMsg::JoinRequest {
            from: NodeId(1),
            replaces: None,
        };
        assert_eq!(j.kind(), "hier.join_request");
        assert_eq!(j.size_bytes(), 24);
    }

    #[test]
    fn founding_detection() {
        let cfg = HierPeerConfig {
            id: NodeId(0),
            subgroup: vec![NodeId(0), NodeId(1)],
            subgroup_index: 0,
            founding_fed: vec![NodeId(0), NodeId(2)],
            t: SimDuration::from_millis(100),
            config_commit_interval: SimDuration::from_millis(500),
            join_poll_interval: SimDuration::from_millis(100),
            engine: SacEngine::Pairwise,
            combiner: RobustCombiner::FedAvg,
            seed: 1,
            elastic: None,
        };
        assert!(cfg.is_founding());
        let ms = SimDuration::from_millis;
        assert_eq!(cfg.heartbeat(), ms(20));
        assert_eq!(cfg.probe_interval(), ms(20));
        assert_eq!(cfg.suspect_after(), ms(100));
        assert_eq!(cfg.dead_after(), ms(300));
    }
}
