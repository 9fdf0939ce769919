//! The integrated system: two-layer Raft (on the discrete-event simulator)
//! electing the aggregation leaders, with federated training and
//! fault-tolerant SAC running over the elected topology.
//!
//! Each round advances the simulated network — elections, joins, crash
//! recovery all happen on the virtual clock — then runs one Alg. 3
//! aggregation using whatever leaders Raft currently reports, exactly as
//! the paper's system does: a subgroup without a leader (or whose leader
//! has not rejoined the FedAvg layer yet) is a "slow subgroup" and is
//! skipped for that round. Each subgroup aggregates through the engine
//! that ships: one [`RoundCore`] per member on an aggregation simulator,
//! where peers crashed in the Raft simulator are crashed too. The core
//! owns crash detection, recovery, abort and degraded retry, and the
//! commitment check that convicts a skewer.

use crate::system::RoundRecord;
use p2pfl_fed::{combine, Client, LocalTrainConfig};
use p2pfl_hierraft::{Deployment, DeploymentSpec, FedCmd, HierActor, TopologyCmd};
use p2pfl_ml::data::Dataset;
use p2pfl_ml::metrics::evaluate;
use p2pfl_ml::Sequential;
use p2pfl_secagg::{
    drive_round, sim_group, PairwiseWire, RingWire, RoundCore, SacConfig, SacEngine, ShareScheme,
    TransferLog, WeightVector, Wire, WIRE_BYTES_PER_PARAM,
};
use p2pfl_simnet::{FaultPlan, NodeId, PoisonMode, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;

/// Share and collection deadline of a subgroup round on the aggregation
/// simulator, whose links take 15 ms.
const SAC_PHASE_DEADLINE: SimDuration = SimDuration::from_millis(200);
/// Supervisor deadline of a subgroup round: past both phase deadlines.
const SAC_ROUND_DEADLINE: SimDuration = SimDuration::from_secs(2);

/// Configuration of a [`ResilientSession`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// The two-layer Raft deployment parameters.
    pub deployment: DeploymentSpec,
    /// SAC reconstruction threshold `k`.
    pub threshold: usize,
    /// Share construction scheme.
    pub scheme: ShareScheme,
    /// Local training hyperparameters.
    pub train: LocalTrainConfig,
    /// Virtual time the network runs between aggregation rounds (enough
    /// for heartbeats, elections, and joins to settle).
    pub round_settle: SimDuration,
    /// Whether every member's round core verifies share commitments
    /// ([`RoundCore::verify_commitments`]). With this off, a Byzantine
    /// member's skewed shares silently contaminate its subgroup average
    /// instead of being rejected.
    pub verify_commitments: bool,
    /// RNG seed for share randomness.
    pub seed: u64,
}

impl ResilientConfig {
    /// A small default: 3 subgroups × 3 peers, k = 2, T = 100 ms.
    pub fn small(seed: u64) -> Self {
        let mut deployment = DeploymentSpec::paper(100, seed);
        deployment.num_subgroups = 3;
        deployment.subgroup_size = 3;
        ResilientConfig {
            deployment,
            threshold: 2,
            scheme: ShareScheme::Masked,
            train: LocalTrainConfig {
                epochs: 1,
                batch_size: 32,
            },
            round_settle: SimDuration::from_millis(600),
            verify_commitments: true,
            seed,
        }
    }
}

/// Counters kept by the per-round supervisor, read off each subgroup
/// round's leader.
#[derive(Debug, Clone, Default)]
pub struct SupervisorStats {
    /// Subgroup rounds the leader's core aborted because FT-SAC could not
    /// complete with the advertised roster.
    pub aborts: u64,
    /// Aborted rounds salvaged by the core's degraded restart with the
    /// surviving `n'` members and `k' = min(k, n')`.
    pub degraded_retries: u64,
    /// Subgroup rounds that produced no average: a roster below two
    /// members, or a core round that failed even after its retry.
    pub refusals: u64,
    /// Senders the leader's commitment check convicted (one per Byzantine
    /// sender per round it attempted to contribute).
    pub shares_rejected: u64,
    /// Total conflicting config echoes observed across all peers (summed
    /// from the per-peer [`HierActor::equivocations_detected`] counters).
    pub equivocations_detected: u64,
    /// `(round, peer)` pairs at which a peer was convicted as Byzantine
    /// and evicted from its aggregation roster — by the engine's
    /// commitment check or by the in-protocol equivocation detector.
    pub peers_evicted_byzantine: Vec<(usize, NodeId)>,
    /// Elastic subgroup splits applied through the replicated topology
    /// log (mirror of the FedAvg members' [`HierActor::splits`] counter).
    pub splits: u64,
    /// Elastic subgroup merges applied the same way.
    pub merges: u64,
    /// Elastic re-key transitions summed across all peers: every adoption
    /// of a changed roster derives a fresh mask-domain key.
    pub rekeys: u64,
}

/// Per-round outcome of the integrated system.
#[derive(Debug, Clone)]
pub struct ResilientRound {
    /// The usual training metrics.
    pub record: RoundRecord,
    /// The subgroup leaders Raft reported this round (`None` = leaderless,
    /// i.e. a slow subgroup that was skipped).
    pub leaders: Vec<Option<NodeId>>,
    /// The FedAvg-layer leader this round.
    pub fed_leader: Option<NodeId>,
    /// Subgroups that completed only after an abort and degraded retry.
    pub degraded: Vec<usize>,
}

/// The integrated Raft-backed training session.
pub struct ResilientSession {
    /// The two-layer Raft deployment (publicly drivable for fault
    /// injection beyond the helpers below).
    pub dep: Deployment,
    clients: Vec<Client>,
    eval_model: Sequential,
    global: Vec<f64>,
    cfg: ResilientConfig,
    rng: StdRng,
    /// Cumulative communication ledger for the aggregation traffic: the
    /// SAC messages of every subgroup round by kind, plus the FedAvg
    /// upload and broadcast lines. Raft control traffic is accounted
    /// separately in `dep.sim.metrics()`.
    pub log: TransferLog,
    /// Round-supervisor counters.
    pub supervisor: SupervisorStats,
    /// The active fault plan, kept so rounds can interpret its Byzantine
    /// entries (link faults and crashes are handled by the simulator).
    fault_plan: Option<FaultPlan>,
    /// Peers already convicted as Byzantine (each is recorded in
    /// [`SupervisorStats::peers_evicted_byzantine`] exactly once).
    convicted: BTreeSet<NodeId>,
}

impl ResilientSession {
    /// Builds the deployment and waits for the initial stable state.
    /// `clients.len()` must equal the deployment's total peer count;
    /// client `i` runs on simulated peer `NodeId(i)`.
    pub fn new(cfg: ResilientConfig, clients: Vec<Client>, eval_model: Sequential) -> Self {
        assert_eq!(
            clients.len(),
            cfg.deployment.total_peers(),
            "one client per simulated peer"
        );
        let mut dep = Deployment::build(cfg.deployment.clone());
        let stable = dep.wait_stable(SimTime::from_secs(30));
        assert!(stable, "deployment failed to stabilize");
        let global = eval_model.params_flat();
        let mut s = ResilientSession {
            dep,
            clients,
            eval_model,
            global,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x7e51),
            cfg,
            log: TransferLog::new(),
            supervisor: SupervisorStats::default(),
            fault_plan: None,
            convicted: BTreeSet::new(),
        };
        s.push_global();
        s
    }

    /// The current global parameters.
    pub fn global(&self) -> &[f64] {
        &self.global
    }

    /// Crashes peer `id` (takes effect immediately on the virtual clock).
    pub fn crash(&mut self, id: NodeId) {
        let at = self.dep.sim.now() + SimDuration::from_millis(1);
        self.dep.sim.schedule_crash(id, at);
        self.dep.sim.run_for(SimDuration::from_millis(2));
    }

    /// Restarts peer `id`.
    pub fn restart(&mut self, id: NodeId) {
        let at = self.dep.sim.now() + SimDuration::from_millis(1);
        self.dep.sim.schedule_restart(id, at);
        self.dep.sim.run_for(SimDuration::from_millis(2));
    }

    /// Whether the session runs the elastic topology protocol.
    pub fn is_elastic(&self) -> bool {
        self.cfg.deployment.elastic.is_some()
    }

    /// Admits a new peer mid-session (elastic only): spawns an unplaced
    /// simulated peer that rendezvouses for a subgroup assignment, and
    /// registers `client` as its training client. The assignment lands
    /// once the FedAvg leader commits the `Admit` — usually within the
    /// next round's settle window.
    pub fn add_peer(&mut self, client: Client) -> NodeId {
        assert!(self.is_elastic(), "add_peer requires an elastic session");
        let id = self.dep.spawn_joiner();
        assert_eq!(
            id.index(),
            self.clients.len(),
            "one client per simulated peer, in id order"
        );
        self.clients.push(client);
        let global = self.global.clone();
        self.clients[id.index()].set_params(&global);
        id
    }

    /// Removes peer `id` from the session (elastic only): the FedAvg
    /// leader commits a `Depart` so the layout sheds the peer cleanly
    /// (emptied groups retire; runts merge on the next planning pass),
    /// then the process is crashed.
    pub fn remove_peer(&mut self, id: NodeId) {
        assert!(self.is_elastic(), "remove_peer requires an elastic session");
        // A mass exodus routinely takes the FedAvg leader with it, so the
        // layer may be mid-re-election when we get here. Re-propose until
        // the Depart is actually adopted — dropping it would leave `id`
        // as a ghost member that keeps its group looking healthy and
        // starves the merge planner.
        let deadline = self.dep.sim.now() + SimDuration::from_secs(10);
        loop {
            if let Some(fl) = self.dep.fed_leader() {
                let _ = self.dep.sim.exec::<HierActor, _, _>(fl, |a, ctx| {
                    a.propose_topology(ctx, TopologyCmd::Depart { peer: id })
                });
            }
            self.dep.sim.run_for(SimDuration::from_millis(100));
            if self.dep.latest_topology().group_of(id).is_none() || self.dep.sim.now() >= deadline {
                break;
            }
        }
        self.crash(id);
        // Let the crashed peer's FedAvg seat be repaired before returning:
        // a mass leave that kills seat holders back-to-back can otherwise
        // outrun the config-repair path and cost the layer its quorum.
        let deadline = self.dep.sim.now() + SimDuration::from_secs(10);
        while self.dep.sim.now() < deadline {
            self.dep.refresh_subgroups();
            if self.dep.is_stable() {
                break;
            }
            self.dep.sim.run_for(SimDuration::from_millis(50));
        }
    }

    /// Elastic pre-round supervision: adopt the freshest layout, have the
    /// FedAvg leader propose the deterministic rebalancing plan for any
    /// out-of-band subgroup, then settle so the transitions (fresh Raft
    /// instances, re-keys, FedAvg-seat repairs) land before aggregation.
    fn supervise_topology(&mut self) {
        let Some(bounds) = self.cfg.deployment.elastic else {
            return;
        };
        self.dep.refresh_subgroups();
        if let Some(fl) = self.dep.fed_leader() {
            let t = self.dep.latest_topology();
            for cmd in t.plan(bounds) {
                let _ = self
                    .dep
                    .sim
                    .exec::<HierActor, _, _>(fl, |a, ctx| a.propose_topology(ctx, cmd.clone()));
            }
        }
        self.dep.sim.run_for(self.cfg.round_settle);
        self.dep.refresh_subgroups();
    }

    /// Applies a declarative fault plan to the underlying network: link
    /// faults (loss, delay, duplication, partitions, blackouts) interpose
    /// on every subsequent send, and the plan's crash/restart entries are
    /// scheduled on the virtual clock relative to now.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.dep.sim.apply_fault_plan(plan);
        // Byzantine entries are interpreted each round: poison by the
        // runner, share skew by each member's round core, equivocation /
        // bogus rosters by flagging the hierraft actors.
        self.fault_plan = Some(plan.clone());
    }

    /// Removes the link faults of an applied plan (crash/restart events
    /// already on the virtual clock still fire), and stops interpreting
    /// its Byzantine entries.
    pub fn clear_fault_plan(&mut self) {
        self.dep.sim.clear_fault_plan();
        self.fault_plan = None;
        self.sync_byzantine_flags();
    }

    /// Pushes the plan's currently-active equivocation / bogus-roster
    /// behaviors onto the simulated hierraft actors (and clears them on
    /// peers whose Byzantine window has passed).
    fn sync_byzantine_flags(&mut self) {
        let now = self.dep.sim.now();
        for i in 0..self.clients.len() {
            let id = NodeId(i as u32);
            if self.dep.sim.is_crashed(id) {
                continue;
            }
            let spec = self
                .fault_plan
                .as_ref()
                .map(|p| p.byzantine(id, now))
                .unwrap_or_default();
            self.dep.sim.exec::<HierActor, _, _>(id, |a, _| {
                a.byz_equivocate = spec.equivocate;
                a.byz_bogus_roster = spec.bogus_roster;
            });
        }
    }

    fn push_global(&mut self) {
        for (i, c) in self.clients.iter_mut().enumerate() {
            if !self.dep.sim.is_crashed(NodeId(i as u32)) {
                c.set_params(&self.global);
            }
        }
    }

    fn model_bytes(&self) -> u64 {
        self.global.len() as u64 * WIRE_BYTES_PER_PARAM
    }

    /// One subgroup round on the engine that ships: a [`RoundCore`] per
    /// member on a fresh aggregation simulator, seeded from the session
    /// RNG in position order, with each member's share behaviour taken
    /// from the fault plan and members crashed in the Raft simulator
    /// crashed there too. Books the round's SAC traffic and what the
    /// leader's core reports: aborts, a degraded retry, convictions.
    /// Returns the average and its contributors' sample count, and whether
    /// the round needed the degraded retry; `None` if it failed.
    fn aggregate<W: Wire>(
        &mut self,
        members: &[NodeId],
        leader_pos: usize,
        engine: SacEngine,
        round: usize,
    ) -> Option<(Vec<f64>, usize, bool)> {
        let n = members.len();
        let group: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let k = self.cfg.threshold.min(n).max(1);
        let now = self.dep.sim.now();
        let mut cores = Vec::with_capacity(n);
        for (position, &m) in members.iter().enumerate() {
            let cfg = SacConfig {
                group: group.clone(),
                position,
                leader_pos,
                k,
                scheme: self.cfg.scheme,
                engine,
                share_deadline: SAC_PHASE_DEADLINE,
                collect_deadline: SAC_PHASE_DEADLINE,
                round_deadline: Some(SAC_ROUND_DEADLINE),
                seed: self.rng.next_u64(),
            };
            let model = WeightVector::new(self.clients[m.index()].params());
            let mut core = RoundCore::<W>::new(cfg, model);
            core.verify_commitments = self.cfg.verify_commitments;
            core.byz_share_skew = self
                .fault_plan
                .as_ref()
                .and_then(|plan| plan.byzantine(m, now).share_skew);
            cores.push((group[position], core));
        }
        let mut sim = sim_group(self.cfg.seed, cores, None);
        for (&local, &m) in group.iter().zip(members) {
            if self.dep.sim.is_crashed(m) {
                sim.schedule_crash(local, sim.now());
            }
        }
        let outcome = drive_round::<W>(&mut sim, [group[leader_pos]], round as u64).remove(0);
        for (kind, c) in sim.metrics().kinds() {
            self.log.record_many(kind, c.msgs, c.bytes);
        }
        let core = sim.actor::<RoundCore<W>>(group[leader_pos]);
        self.supervisor.aborts += core.aborts;
        // The core convicts by identity (simulator ids index `members`);
        // the leader's seat records it, and step 5b books it.
        let leader = members[leader_pos];
        self.supervisor.shares_rejected += core.byzantine_detected.len() as u64;
        for &local in &core.byzantine_detected {
            let m = members[local.index()];
            self.dep
                .sim
                .exec::<HierActor, _, _>(leader, |a, ctx| a.convict(ctx, m));
        }
        let Ok((contributors, average)) = outcome else {
            self.supervisor.refusals += 1;
            return None;
        };
        // A degraded retry renumbers the roster: map its positions back.
        let retried = core.aborts > 0;
        self.supervisor.degraded_retries += retried as u64;
        let roster = &core.sac_config().group;
        let samples = contributors
            .iter()
            .map(|&pos| self.clients[members[roster[pos].index()].index()].num_samples())
            .sum();
        Some((average.into_inner(), samples, retried))
    }

    /// Runs one round: settle the network, train, aggregate with the
    /// Raft-elected leaders, evaluate on `test`.
    pub fn run_round(&mut self, round: usize, test: &Dataset) -> ResilientRound {
        // 1. Let the network settle (elections, joins, heartbeats). Active
        //    Byzantine control-plane behaviors (equivocation, bogus roster
        //    proposals) are flagged on the actors first so the settle
        //    window exercises — and the protocol detects — them.
        self.sync_byzantine_flags();
        self.dep.sim.run_for(self.cfg.round_settle);
        // 1b. Elastic supervision: commit any pending split/merge plan and
        //     let the transitions settle, so this round aggregates over
        //     the post-transition rosters.
        self.supervise_topology();
        let bytes_before = self.log.bytes();

        // 2. Local updates on live peers, fanned out over worker threads
        //    (each client owns its RNG and optimizer, so the fan-out is
        //    bit-identical to the serial loop). Crashed peers are masked
        //    out and left untouched.
        let alive: Vec<bool> = (0..self.clients.len())
            .map(|i| !self.dep.sim.is_crashed(NodeId(i as u32)))
            .collect();
        let losses =
            p2pfl_fed::parallel::local_updates_masked(&mut self.clients, &alive, self.cfg.train);
        let trained = losses.iter().flatten().count();
        let mut train_loss: f64 = losses.iter().flatten().sum();
        if trained > 0 {
            train_loss /= trained as f64;
        }

        // 2b. Byzantine peers corrupt their local update after training —
        //     a poisoned model is statistically well-formed (consistent
        //     shares), so SAC cannot catch it; the robust combiner at the
        //     FedAvg layer is the defense.
        if let Some(plan) = self.fault_plan.clone() {
            let now = self.dep.sim.now();
            for i in 0..self.clients.len() {
                let id = NodeId(i as u32);
                if self.dep.sim.is_crashed(id) {
                    continue;
                }
                if let Some(mode) = plan.byzantine(id, now).poison {
                    let mut p = self.clients[i].params();
                    match mode {
                        PoisonMode::SignFlip => p.iter_mut().for_each(|x| *x = -*x),
                        PoisonMode::NormBoost { factor } => p.iter_mut().for_each(|x| *x *= factor),
                    }
                    self.clients[i].set_params(&p);
                }
            }
        }

        // 3. Subgroup aggregation, gated by the live Raft state: a
        //    subgroup without a leader in the FedAvg layer is skipped, and
        //    every other one runs one supervised round on its cores.
        let fed_leader = self.dep.fed_leader();
        let num_groups = self.dep.subgroups.len();
        let mut leaders = Vec::with_capacity(num_groups);
        let mut degraded = Vec::new();
        let mut group_avgs = Vec::new();
        let mut group_counts = Vec::new();
        for g in 0..num_groups {
            let leader = self
                .dep
                .sub_leader_of(g)
                .filter(|&l| self.dep.sim.actor::<HierActor>(l).is_fed_member());
            leaders.push(leader);
            let Some(leader) = leader else {
                continue; // slow subgroup
            };
            // Aggregate over the leader's *replicated roster*, not the
            // static subgroup: members the failure detector confirmed dead
            // were already evicted from it, shrinking n' (and k) outright
            // instead of counting as dropouts every round.
            let mut members = self
                .dep
                .sim
                .actor::<HierActor>(leader)
                .live_sub_members()
                .to_vec();
            if !members.contains(&leader) {
                // A re-elected leader can predate its own re-admission;
                // fall back to the full subgroup until the roster heals.
                members = self.dep.subgroups[g].clone();
            }
            let leader_pos = members
                .iter()
                .position(|&m| m == leader)
                .expect("a subgroup's leader is a member of it");
            if members.len() < 2 {
                self.supervisor.refusals += 1;
                leaders[g] = None;
                continue;
            }
            // The engine for this round is whatever the leader's replicated
            // FedAvg-layer config says, not a local setting: the whole
            // `FedConfig` advances atomically under the version max-advance
            // rule, so every member that follows the leader runs the same
            // engine and a round can never mix schemes.
            let engine = self.dep.sim.actor::<HierActor>(leader).fed_config.engine;
            let outcome = match engine {
                SacEngine::Pairwise => {
                    self.aggregate::<PairwiseWire>(&members, leader_pos, engine, round)
                }
                SacEngine::Ring => self.aggregate::<RingWire>(&members, leader_pos, engine, round),
            };
            match outcome {
                Some((avg, count, retried)) => {
                    if retried {
                        degraded.push(g);
                    }
                    group_avgs.push(avg);
                    group_counts.push(count);
                }
                None => leaders[g] = None,
            }
        }
        let groups_used = group_avgs.len();

        // 4. FedAvg at the FedAvg leader; subgroup leaders upload. The
        //    leader also commits the round number to the FedAvg-layer log,
        //    sequencing rounds across leader changes (the log-replication
        //    use the paper describes alongside the config replication).
        if let Some(fl) = fed_leader.filter(|_| groups_used > 0) {
            self.dep.sim.exec::<HierActor, _, _>(fl, |a, ctx| {
                let _ = a.propose_fed(ctx, FedCmd::Round(round as u64));
            });
            for _ in 1..groups_used {
                self.log.record("fedavg.upload", self.model_bytes());
            }
            // The combining rule, like the engine, comes from the FedAvg
            // leader's *replicated* config: it advances atomically with
            // the version max-advance rule, so a round never mixes a
            // robust combiner with plain FedAvg across leader changes.
            let combiner = self.dep.sim.actor::<HierActor>(fl).fed_config.combiner;
            self.global = combine(combiner, &group_avgs, &group_counts);
            // 5. Broadcast back down.
            for (g, leader) in leaders.iter().enumerate() {
                if leader.is_some() && Some(self.dep.subgroups[g][0]) != fed_leader {
                    self.log.record("fedavg.download", self.model_bytes());
                }
                let live_members = self.dep.subgroups[g]
                    .iter()
                    .filter(|&&m| !self.dep.sim.is_crashed(m))
                    .count();
                for _ in 1..live_members.max(1) {
                    self.log.record("bcast.member", self.model_bytes());
                }
            }
            self.push_global();
        }

        // 5b. Harvest what the protocol layer detected this round:
        //     config-echo equivocations and Byzantine convictions, the
        //     commitment check's included (the counters on the actors are
        //     cumulative, so the totals are assigned, not incremented).
        let mut equivocations = 0;
        let mut in_protocol: Vec<NodeId> = Vec::new();
        let mut splits = 0u64;
        let mut merges = 0u64;
        let mut rekeys = 0u64;
        for i in 0..self.clients.len() {
            let a = self.dep.sim.actor::<HierActor>(NodeId(i as u32));
            equivocations += a.equivocations_detected;
            in_protocol.extend(a.byzantine_peers.iter().copied());
            // Every FedAvg member applies every topology command, so each
            // one's counter is already the total: mirror the max, not the
            // sum. Re-keys are per-peer transitions, so those do sum.
            splits = splits.max(a.splits);
            merges = merges.max(a.merges);
            rekeys += a.rekeys;
        }
        self.supervisor.equivocations_detected = equivocations;
        self.supervisor.splits = splits;
        self.supervisor.merges = merges;
        self.supervisor.rekeys = rekeys;
        for p in in_protocol {
            if self.convicted.insert(p) {
                self.supervisor.peers_evicted_byzantine.push((round, p));
            }
        }

        // 6. Evaluate.
        self.eval_model.set_params_flat(&self.global);
        let (test_loss, test_accuracy) = evaluate(&mut self.eval_model, test, 256);
        ResilientRound {
            record: RoundRecord {
                round,
                train_loss,
                test_loss,
                test_accuracy,
                bytes: self.log.bytes() - bytes_before,
                groups_used,
            },
            leaders,
            fed_leader,
            degraded,
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize, test: &Dataset) -> Vec<ResilientRound> {
        (1..=rounds).map(|r| self.run_round(r, test)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_hierraft::RobustCombiner;
    use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Partition};
    use p2pfl_ml::models::mlp;

    fn build(seed: u64) -> (ResilientSession, Dataset) {
        build_with(ResilientConfig::small(seed))
    }

    fn build_with(cfg: ResilientConfig) -> (ResilientSession, Dataset) {
        let seed = cfg.seed;
        let n_total = cfg.deployment.total_peers();
        let (train, test) =
            train_test_split(&features_like(16, n_total * 50 + 300, seed), n_total * 50);
        let parts = partition_dataset(&train, n_total, Partition::Iid, seed + 1);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let clients: Vec<Client> = parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                Client::new(
                    i,
                    mlp(&[16, 24, 10], &mut rng),
                    d,
                    5e-3,
                    seed + 10 + i as u64,
                )
            })
            .collect();
        let eval = mlp(&[16, 24, 10], &mut rng);
        (ResilientSession::new(cfg, clients, eval), test)
    }

    #[test]
    fn ring_engine_session_uses_all_groups_and_learns() {
        let mut cfg = ResilientConfig::small(1);
        cfg.deployment.engine = SacEngine::Ring;
        let (mut s, test) = build_with(cfg);
        let rounds = s.run(12, &test);
        assert!(rounds.iter().all(|r| r.record.groups_used == 3));
        let first = rounds.first().unwrap().record.test_accuracy;
        let last = rounds.last().unwrap().record.test_accuracy;
        assert!(last > first, "accuracy {first:.3} -> {last:.3}");
        // The ring layout actually ran (engine really was dispatched): only
        // its wire announces to the leader.
        assert!(s.log.phase("sac.shared").0 > 0);
    }

    #[test]
    fn ring_engine_tolerates_follower_crash() {
        let mut cfg = ResilientConfig::small(2);
        cfg.deployment.engine = SacEngine::Ring;
        let (mut s, test) = build_with(cfg);
        s.run(2, &test);
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let victim = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
        s.crash(victim);
        let r = s.run_round(3, &test);
        assert_eq!(r.record.groups_used, 3, "ring must absorb the loss");
    }

    #[test]
    fn healthy_session_uses_all_groups_and_learns() {
        let (mut s, test) = build(1);
        let rounds = s.run(12, &test);
        assert!(rounds.iter().all(|r| r.record.groups_used == 3));
        assert!(rounds.iter().all(|r| r.fed_leader.is_some()));
        assert_eq!(s.log.phase("sac.shared").0, 0, "pairwise never announces");
        let first = rounds.first().unwrap().record.test_accuracy;
        let last = rounds.last().unwrap().record.test_accuracy;
        assert!(last > first, "accuracy {first:.3} -> {last:.3}");
    }

    #[test]
    fn follower_crash_is_tolerated_by_ft_sac() {
        let (mut s, test) = build(2);
        s.run(2, &test);
        // Crash a follower (not a subgroup leader).
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let victim = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
        s.crash(victim);
        let r = s.run_round(3, &test);
        assert_eq!(r.record.groups_used, 3, "k-out-of-n must absorb the loss");
    }

    #[test]
    fn leader_crash_recovers_via_election() {
        let (mut s, test) = build(3);
        s.run(2, &test);
        let victim = s.dep.sub_leader_of(1).unwrap();
        s.crash(victim);
        // The settle window lets Raft elect a replacement and join it to
        // the FedAvg layer; aggregation then proceeds with all groups.
        let r = s.run_round(3, &test);
        assert!(r.record.groups_used >= 2);
        let r = s.run_round(4, &test);
        assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
        assert_ne!(r.leaders[1], Some(victim));
    }

    #[test]
    fn fed_leader_crash_rebuilds_whole_backend() {
        let (mut s, test) = build(4);
        s.run(2, &test);
        let victim = s.dep.fed_leader().unwrap();
        s.crash(victim);
        let _ = s.run_round(3, &test);
        let r = s.run_round(4, &test);
        assert!(r.fed_leader.is_some());
        assert_ne!(r.fed_leader, Some(victim));
        assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
    }

    #[test]
    fn round_markers_commit_to_the_fed_log() {
        let (mut s, test) = build(6);
        s.run(3, &test);
        // Let the commit propagate, then check every subgroup leader's
        // applied FedAvg-layer commands contain the round sequence.
        s.dep.sim.run_for(SimDuration::from_millis(500));
        for g in 0..3 {
            let leader = s.dep.sub_leader_of(g).unwrap();
            let a = s.dep.sim.actor::<HierActor>(leader);
            assert_eq!(a.fed_rounds_applied(), vec![1, 2, 3], "subgroup {g}");
        }
    }

    #[test]
    fn fault_plan_window_degrades_then_recovers() {
        let (mut s, test) = build(7);
        s.run(1, &test);
        // A bounded window of light loss plus delay spikes: rounds may
        // degrade while it is active, but the session must keep making
        // progress and return to full strength once it expires.
        let plan = FaultPlan::new(0xfa11)
            .loss(SimTime::ZERO, SimTime::from_millis(1500), 0.05)
            .delay(
                SimTime::ZERO,
                SimTime::from_millis(1500),
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
            );
        s.apply_fault_plan(&plan);
        s.run(2, &test); // rounds 1..=2 under faults: must not wedge
        s.clear_fault_plan();
        let _ = s.run_round(4, &test); // settle round after the window
        let r = s.run_round(5, &test);
        assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
        assert!(r.fed_leader.is_some());
    }

    #[test]
    fn late_crash_aborts_and_retries_degraded() {
        // n = k = 3: one dropout makes a partition unrecoverable, so the
        // supervisor must abort and restart with the two survivors.
        let mut cfg = ResilientConfig::small(8);
        cfg.threshold = 3;
        let (mut s, test) = build_with(cfg);
        s.run(2, &test);
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let victim = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
        // Crash just before the settle window ends: the failure detector
        // has no time to evict the victim from the roster, so it shows up
        // as a SAC dropout inside the round.
        let at = s.dep.sim.now() + SimDuration::from_millis(590);
        s.dep.sim.schedule_crash(victim, at);
        let r = s.run_round(3, &test);
        assert_eq!(r.degraded, vec![0], "leaders: {:?}", r.leaders);
        assert_eq!(r.record.groups_used, 3);
        assert_eq!(s.supervisor.aborts, 1);
        assert_eq!(s.supervisor.degraded_retries, 1);
        // Next round the detector has evicted the victim: the shrunken
        // roster aggregates cleanly, with no further aborts.
        let r = s.run_round(4, &test);
        assert_eq!(r.record.groups_used, 3);
        assert!(r.degraded.is_empty());
        assert_eq!(s.supervisor.aborts, 1);
    }

    #[test]
    fn elastic_session_splits_on_join_burst_and_merges_on_decay() {
        use p2pfl_hierraft::ElasticBounds;
        let seed = 42u64;
        let mut cfg = ResilientConfig::small(seed);
        cfg.deployment.num_subgroups = 2;
        cfg.deployment.subgroup_size = 3;
        let bounds = ElasticBounds::new(2, 4);
        cfg.deployment.elastic = Some(bounds);
        // Partition the data for the initial peers *and* the joiners, so
        // the flash crowd brings real training clients with it.
        let n_initial = cfg.deployment.total_peers();
        let extra = 4;
        let n_all = n_initial + extra;
        let (train, test) =
            train_test_split(&features_like(16, n_all * 50 + 300, seed), n_all * 50);
        let parts = partition_dataset(&train, n_all, Partition::Iid, seed + 1);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let mut clients: Vec<Client> = parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                Client::new(
                    i,
                    mlp(&[16, 24, 10], &mut rng),
                    d,
                    5e-3,
                    seed + 10 + i as u64,
                )
            })
            .collect();
        let joiners: Vec<Client> = clients.split_off(n_initial);
        let eval = mlp(&[16, 24, 10], &mut rng);
        let mut s = ResilientSession::new(cfg, clients, eval);
        s.run(2, &test);
        assert_eq!(s.supervisor.splits, 0);
        assert_eq!(s.supervisor.rekeys, 0);

        // Join burst: 10 peers cannot fit in 2 groups of <= 4, so the
        // supervisor must split at least once to restore the band.
        for c in joiners {
            s.add_peer(c);
        }
        for round in 3..=8 {
            s.run_round(round, &test);
            if s.supervisor.splits >= 1 {
                break;
            }
        }
        assert!(s.supervisor.splits >= 1, "join burst never forced a split");
        assert!(s.supervisor.rekeys >= 1, "a split is a re-key");
        s.run_round(9, &test);
        let t = s.dep.latest_topology();
        assert!(t.converged(bounds), "post-burst layout out of band: {t:?}");

        // Decay: shrink the smallest group below n_min; the next planning
        // pass must merge the runt into a sibling. Keep the FedAvg leader
        // alive if it happens to live there, so the decay exercises the
        // merge path rather than a fed-layer election.
        let small = t
            .groups
            .iter()
            .min_by_key(|g| (g.members.len(), g.gid))
            .unwrap()
            .clone();
        let keep = small
            .members
            .iter()
            .copied()
            .find(|&m| Some(m) == s.dep.fed_leader())
            .unwrap_or(small.members[0]);
        for m in small.members.clone() {
            if m != keep {
                s.remove_peer(m);
            }
        }
        for round in 10..=15 {
            s.run_round(round, &test);
            if s.supervisor.merges >= 1 {
                break;
            }
        }
        assert!(s.supervisor.merges >= 1, "decay never forced a merge");
        let r = s.run_round(16, &test);
        let t = s.dep.latest_topology();
        assert!(t.converged(bounds), "post-decay layout out of band: {t:?}");
        assert!(r.fed_leader.is_some());
        assert!(r.record.groups_used >= 1, "training wedged after churn");

        // No live peer is orphaned: everyone not departed lives in exactly
        // one subgroup of the committed layout.
        for i in 0..n_all {
            let id = NodeId(i as u32);
            if s.dep.sim.is_crashed(id) {
                continue;
            }
            let homes = t.groups.iter().filter(|g| g.members.contains(&id)).count();
            assert_eq!(homes, 1, "peer {id:?} lives in {homes} subgroups");
        }

        // The supervisor counters mirror the actor-side truth: splits and
        // merges are applied identically at every FedAvg member (max), and
        // re-keys are per-peer transitions (sum).
        let mut actor_splits = 0u64;
        let mut actor_merges = 0u64;
        let mut actor_rekeys = 0u64;
        for i in 0..n_all {
            let a = s.dep.sim.actor::<HierActor>(NodeId(i as u32));
            actor_splits = actor_splits.max(a.splits);
            actor_merges = actor_merges.max(a.merges);
            actor_rekeys += a.rekeys;
        }
        assert_eq!(s.supervisor.splits, actor_splits);
        assert_eq!(s.supervisor.merges, actor_merges);
        assert_eq!(s.supervisor.rekeys, actor_rekeys);
    }

    #[test]
    fn byzantine_share_skew_detected_convicted_and_excluded() {
        let (mut s, test) = build(11);
        s.run(1, &test);
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let byz = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
        let plan = FaultPlan::new(0xb1).share_skew(SimTime::ZERO, None, byz, 7.0);
        s.apply_fault_plan(&plan);
        let r = s.run_round(2, &test);
        // Detection: the block was rejected, the sender convicted, and the
        // subgroup still aggregated with its two honest members.
        assert_eq!(s.supervisor.shares_rejected, 1);
        assert_eq!(s.supervisor.peers_evicted_byzantine, vec![(2, byz)]);
        assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
        // The conviction replicates: the leader marked the peer Byzantine
        // and evicted it from the aggregation roster.
        s.dep.sim.run_for(SimDuration::from_millis(400));
        let a = s.dep.sim.actor::<HierActor>(leader0);
        assert!(a.byzantine_peers.contains(&byz));
        assert!(!a.live_sub_members().contains(&byz));
        // Once the roster excludes the peer there is nothing left to
        // reject — and the round completes with honest members only.
        let r = s.run_round(3, &test);
        assert_eq!(s.supervisor.shares_rejected, 1);
        assert_eq!(r.record.groups_used, 3);
    }

    #[test]
    fn degraded_retry_convicts_only_the_skewer() {
        // n = k = 5, one follower crashing late and another skewing: the
        // round aborts and retries over the three others, whose roster
        // renumbers them. The conviction must follow the skewer, not its
        // old position: the honest member that inherits that position is
        // waited for, and the subgroup completes degraded.
        let mut cfg = ResilientConfig::small(8);
        cfg.threshold = 5;
        cfg.deployment.subgroup_size = 5;
        let (mut s, test) = build_with(cfg);
        s.run(2, &test);
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let followers: Vec<NodeId> = s.dep.subgroups[0]
            .iter()
            .copied()
            .filter(|&m| m != leader0)
            .collect();
        let (byz, crashed) = (followers[1], followers[3]);
        let plan = FaultPlan::new(0xb3).share_skew(SimTime::ZERO, None, byz, 7.0);
        s.apply_fault_plan(&plan);
        let at = s.dep.sim.now() + SimDuration::from_millis(590);
        s.dep.sim.schedule_crash(crashed, at);
        let r = s.run_round(3, &test);
        assert_eq!(s.supervisor.peers_evicted_byzantine, vec![(3, byz)]);
        assert_eq!(r.degraded, vec![0], "leaders: {:?}", r.leaders);
        assert_eq!(r.record.groups_used, 3);
        assert_eq!(s.supervisor.refusals, 0);
        let a = s.dep.sim.actor::<HierActor>(leader0);
        assert!(!a.byzantine_peers.contains(&crashed));
    }

    #[test]
    fn unverified_share_skew_contaminates_the_average() {
        // Pinned negative: with commitment checks off, the same skew lands
        // in the subgroup sum and blows up the global model.
        let mut cfg = ResilientConfig::small(13);
        cfg.verify_commitments = false;
        let (mut s, test) = build_with(cfg);
        s.run(1, &test);
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let byz = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
        let plan = FaultPlan::new(0xb2).share_skew(SimTime::ZERO, None, byz, 1e4);
        s.apply_fault_plan(&plan);
        let r = s.run_round(2, &test);
        assert_eq!(s.supervisor.shares_rejected, 0);
        assert!(s.supervisor.peers_evicted_byzantine.is_empty());
        assert_eq!(r.record.groups_used, 3);
        let max = s.global().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(max > 10.0, "skew should have poisoned the average: {max}");
    }

    #[test]
    fn replicated_trimmed_mean_bounds_a_poisoned_update() {
        // A poisoned update has consistent shares, so SAC passes it
        // through; the replicated robust combiner absorbs it at the
        // FedAvg layer.
        let plan = FaultPlan::new(0xb0).poison(
            SimTime::ZERO,
            None,
            NodeId(1),
            PoisonMode::NormBoost { factor: 1e4 },
        );
        let run = |combiner: RobustCombiner| {
            let mut cfg = ResilientConfig::small(12);
            cfg.deployment.combiner = combiner;
            let (mut s, test) = build_with(cfg);
            s.run(1, &test);
            let leader0 = s.dep.sub_leader_of(0).unwrap();
            assert_ne!(leader0, NodeId(1), "poisoned peer must be a follower");
            s.apply_fault_plan(&plan);
            let r = s.run_round(2, &test);
            assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
            s.global().iter().fold(0.0f64, |m, &x| m.max(x.abs()))
        };
        let robust = run(RobustCombiner::TrimmedMean);
        assert!(
            robust < 10.0,
            "poison leaked through the trimmed mean: {robust}"
        );
        // Control (same seed, same plan): plain FedAvg is overwhelmed.
        let plain = run(RobustCombiner::FedAvg);
        assert!(
            plain > 10.0,
            "fedavg unexpectedly bounded the poison: {plain}"
        );
    }

    #[test]
    fn equivocating_peer_is_detected_and_convicted() {
        let (mut s, test) = build(14);
        s.run(1, &test);
        // Subgroup 0 is {0, 1, 2}. Peer 2 advertises conflicting config
        // digests; peer 1 receives the flipped one, compares it against
        // its own applied config, and convicts the sender.
        let byz = NodeId(2);
        let plan = FaultPlan::new(0xb3).equivocate(SimTime::ZERO, None, byz);
        s.apply_fault_plan(&plan);
        s.run(2, &test);
        assert!(s.supervisor.equivocations_detected >= 1);
        assert!(
            s.supervisor
                .peers_evicted_byzantine
                .iter()
                .any(|&(_, p)| p == byz),
            "equivocator never convicted: {:?}",
            s.supervisor.peers_evicted_byzantine
        );
    }

    #[test]
    fn bogus_roster_proposals_are_rejected_by_followers() {
        let (mut s, test) = build(15);
        s.run(1, &test);
        // Make subgroup 1's leader propose rosters with a phantom member;
        // every applier (including the proposer) refuses them, and the
        // previous roster stays in force.
        let byz = s.dep.sub_leader_of(1).unwrap();
        let plan = FaultPlan::new(0xb4).bogus_roster(SimTime::ZERO, None, byz);
        s.apply_fault_plan(&plan);
        let rounds = s.run(2, &test);
        let rejected: u64 = s.dep.subgroups[1]
            .iter()
            .map(|&m| s.dep.sim.actor::<HierActor>(m).bogus_rosters_rejected)
            .sum();
        assert!(rejected > 0, "no bogus roster was ever rejected");
        for &m in &s.dep.subgroups[1] {
            let a = s.dep.sim.actor::<HierActor>(m);
            assert!(!a.live_sub_members().contains(&NodeId(u32::MAX)));
        }
        assert!(rounds.iter().all(|r| r.record.groups_used == 3));
    }

    #[test]
    fn restarted_peer_rejoins_training() {
        let (mut s, test) = build(5);
        s.run(1, &test);
        let leader0 = s.dep.sub_leader_of(0).unwrap();
        let victim = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
        s.crash(victim);
        s.run(2, &test);
        s.restart(victim);
        let r = s.run_round(5, &test);
        assert_eq!(r.record.groups_used, 3);
        // The restarted peer participates again (its model got the global
        // push and its subgroup aggregated all members).
        assert!(!s.dep.sim.is_crashed(victim));
    }
}
