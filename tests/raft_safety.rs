//! Raft safety properties under randomized fault schedules — the paper's
//! backend must never elect two leaders for one term or diverge its logs,
//! no matter when peers crash, restart, or lose messages.

use p2pfl_raft::{Entry, LogCmd, RaftActor, RaftConfig, RaftMsg, StateMachine, Term};
use p2pfl_simnet::{FaultPlan, NodeId, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

type Msg = RaftMsg<u64>;

struct Recorder {
    applied: Vec<(u64, Term)>,
}

impl StateMachine<u64> for Recorder {
    fn apply(&mut self, entry: &Entry<u64>) {
        if let LogCmd::App(v) = &entry.cmd {
            self.applied.push((*v, entry.term));
        }
    }
}

type Node = RaftActor<u64, Recorder>;

fn build(n: u32, t_ms: u64, seed: u64) -> (Sim<Msg>, Vec<NodeId>) {
    let mut sim = Sim::new(seed);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    for &id in &ids {
        let cfg = RaftConfig::paper(
            id,
            ids.clone(),
            SimDuration::from_millis(t_ms),
            seed + id.0 as u64,
        );
        sim.add_node(RaftActor::new(cfg, Recorder { applied: vec![] }));
    }
    (sim, ids)
}

fn check_election_safety(sim: &Sim<Msg>, ids: &[NodeId], tag: &str) {
    let mut by_term: HashMap<Term, Vec<NodeId>> = HashMap::new();
    for &id in ids {
        for ev in &sim.actor::<Node>(id).leadership_history {
            by_term.entry(ev.term).or_default().push(id);
        }
    }
    for (term, winners) in by_term {
        assert_eq!(winners.len(), 1, "{tag}: term {term} won by {winners:?}");
    }
}

fn check_applied_prefix(sim: &Sim<Msg>, ids: &[NodeId], tag: &str) {
    // State-machine safety: applied command sequences must be prefixes of
    // each other (they are all prefixes of the longest).
    let seqs: Vec<Vec<(u64, Term)>> = ids
        .iter()
        .map(|&id| sim.actor::<Node>(id).sm.applied.clone())
        .collect();
    let longest = seqs.iter().max_by_key(|s| s.len()).unwrap().clone();
    for (i, s) in seqs.iter().enumerate() {
        assert_eq!(
            &longest[..s.len()],
            s.as_slice(),
            "{tag}: node {i} diverged"
        );
    }
}

#[test]
fn safety_under_random_crashes_and_restarts() {
    for seed in 0..10u64 {
        let (mut sim, ids) = build(5, 50, 777 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proposal = 0u64;
        // 12 chaos epochs of 400 ms each.
        for _ in 0..12 {
            sim.run_for(SimDuration::from_millis(400));
            // Propose on whoever claims leadership.
            for &id in &ids {
                if !sim.is_crashed(id) && sim.actor::<Node>(id).is_leader() {
                    proposal += 1;
                    let v = proposal;
                    sim.exec::<Node, _, _>(id, |a, ctx| {
                        let _ = a.propose(ctx, v);
                    });
                }
            }
            // Random crash or restart of one node (keep a majority alive).
            let victim = ids[rng.random_range(0..ids.len())];
            let crashed = ids.iter().filter(|&&i| sim.is_crashed(i)).count();
            let at = sim.now() + SimDuration::from_millis(1);
            if sim.is_crashed(victim) {
                sim.schedule_restart(victim, at);
            } else if crashed < 2 {
                sim.schedule_crash(victim, at);
            }
        }
        // Heal everything and let the cluster converge.
        for &id in &ids {
            if sim.is_crashed(id) {
                let at = sim.now() + SimDuration::from_millis(1);
                sim.schedule_restart(id, at);
            }
        }
        sim.run_for(SimDuration::from_secs(4));
        let tag = format!("seed {seed}");
        check_election_safety(&sim, &ids, &tag);
        check_applied_prefix(&sim, &ids, &tag);
    }
}

#[test]
fn safety_under_message_loss() {
    for seed in 0..6u64 {
        let (mut sim, ids) = build(5, 50, 99 + seed);
        sim.apply_fault_plan(&FaultPlan::new(seed).loss(
            SimTime::ZERO,
            SimTime::from_secs(6),
            0.15,
        ));
        sim.run_until(SimTime::from_secs(6));
        let tag = format!("lossy seed {seed}");
        check_election_safety(&sim, &ids, &tag);
        // Despite 15% loss, a leader must eventually emerge and stay.
        let leaders = ids
            .iter()
            .filter(|&&id| sim.actor::<Node>(id).is_leader())
            .count();
        assert_eq!(leaders, 1, "{tag}: {leaders} leaders");
    }
}

#[test]
fn committed_entries_survive_any_single_crash() {
    for seed in 0..8u64 {
        let (mut sim, ids) = build(3, 50, 3000 + seed);
        sim.run_until(SimTime::from_secs(2));
        let leader = *ids
            .iter()
            .find(|&&id| sim.actor::<Node>(id).is_leader())
            .expect("no leader");
        sim.exec::<Node, _, _>(leader, |a, ctx| {
            let _ = a.propose(ctx, 4242);
        });
        // Wait for the entry to commit on the leader.
        sim.run_for(SimDuration::from_millis(300));
        assert!(
            sim.actor::<Node>(leader)
                .sm
                .applied
                .iter()
                .any(|(v, _)| *v == 4242),
            "seed {seed}: entry not committed"
        );
        // Now crash the leader; the committed entry must survive on the
        // new leader (Leader Completeness).
        let at = sim.now() + SimDuration::from_millis(1);
        sim.schedule_crash(leader, at);
        sim.run_for(SimDuration::from_secs(3));
        let new_leader = ids
            .iter()
            .find(|&&id| !sim.is_crashed(id) && sim.actor::<Node>(id).is_leader());
        let new_leader = *new_leader.expect("no new leader");
        assert!(
            sim.actor::<Node>(new_leader)
                .sm
                .applied
                .iter()
                .any(|(v, _)| *v == 4242),
            "seed {seed}: committed entry lost after leader crash"
        );
    }
}

#[test]
fn log_matching_across_cluster_after_convergence() {
    let (mut sim, ids) = build(5, 50, 515);
    sim.run_until(SimTime::from_secs(2));
    let leader = *ids
        .iter()
        .find(|&&id| sim.actor::<Node>(id).is_leader())
        .unwrap();
    for v in 0..20u64 {
        sim.exec::<Node, _, _>(leader, |a, ctx| {
            let _ = a.propose(ctx, v);
        });
    }
    sim.run_for(SimDuration::from_secs(2));
    // Log Matching: same (index, term) => identical entries; after quiet
    // convergence all logs are simply identical.
    let reference: Vec<(u64, Term)> = sim
        .actor::<Node>(ids[0])
        .raft()
        .log()
        .iter()
        .map(|e| (e.index, e.term))
        .collect();
    for &id in &ids[1..] {
        let log: Vec<(u64, Term)> = sim
            .actor::<Node>(id)
            .raft()
            .log()
            .iter()
            .map(|e| (e.index, e.term))
            .collect();
        assert_eq!(log, reference, "node {id} log differs");
    }
}
