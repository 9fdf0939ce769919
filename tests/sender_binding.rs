//! Sender binding: a message is only obeyed when the peer the transport
//! authenticated as its sender is the one entitled to send it. Each attack
//! below worked against both engines before the round core gated on
//! `from` — one ordinary subgroup member could read another member's
//! model, frame an honest peer for eviction, or take the leadership — and
//! each now fails on both share plans from one generic body.

use p2pfl_bench::testkit::{ids, mesh, reactor, sac_config, spawn_group, wait_for};
use p2pfl_secagg::{
    PairwiseWire, RingMsg, RingSacActor, RingWire, RoundCore, RoundEvent, SacConfig, SacEngine,
    SacPhase, WeightVector, Wire,
};
use p2pfl_simnet::{Actor, NodeId, Payload, Sim, SimDuration, SimTime, TimerId, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Five members, k = 3: one stage on both plans (the staged layout keeps
/// n = 5 in a single group), so a single-contributor set is not already
/// refused by the per-stage anonymity gate and the attacks get as far as
/// the sender gate.
const N: usize = 5;
const K: usize = 3;
const ATTACKER: usize = 3;
const VICTIM: usize = 1;

fn config(ids: &[NodeId], position: usize, seed: u64) -> SacConfig {
    let deadline = SimDuration::from_millis(100);
    sac_config(ids, position, K, SacEngine::default(), deadline, seed)
}

/// An honest engine that additionally remembers every total it is sent —
/// what a curious member learns by asking.
struct Spy<W: Wire> {
    inner: RoundCore<W>,
    served: Vec<WeightVector>,
}

impl<W: Wire> Actor<W::Msg> for Spy<W> {
    fn on_message(&mut self, t: &mut dyn Transport<W::Msg>, from: NodeId, msg: W::Msg) {
        if let RoundEvent::Total { value, .. } = W::decode(msg.clone()) {
            self.served.push(value);
        }
        self.inner.on_message(t, from, msg);
    }
    fn on_timer(&mut self, t: &mut dyn Transport<W::Msg>, tag: u64) {
        self.inner.on_timer(t, tag);
    }
}

/// Four honest engines and the spy at [`ATTACKER`], round 1 started.
fn group_with_spy<W: Wire>(seed: u64) -> (Sim<W::Msg>, Vec<NodeId>, Vec<WeightVector>) {
    let mut sim = Sim::new(seed);
    let ids = ids(N);
    let mut rng = StdRng::seed_from_u64(seed + 999);
    let models: Vec<WeightVector> = (0..N)
        .map(|_| WeightVector::random(8, 1.0, &mut rng))
        .collect();
    for (i, model) in models.iter().enumerate() {
        let engine = RoundCore::<W>::new(config(&ids, i, seed + i as u64), model.clone());
        if i == ATTACKER {
            sim.add_node(Spy {
                inner: engine,
                served: Vec::new(),
            });
        } else {
            sim.add_node(engine);
        }
    }
    sim.run_until_quiet(100);
    sim.exec::<RoundCore<W>, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    (sim, ids, models)
}

fn forge<W: Wire>(sim: &mut Sim<W::Msg>, to: NodeId, event: RoundEvent, after_ms: u64) {
    let msg = W::encode(event).expect("event exists on this wire");
    sim.inject(
        NodeId(ATTACKER as u32),
        to,
        msg,
        SimDuration::from_millis(after_ms),
    );
}

fn honest<W: Wire>(sim: &Sim<W::Msg>, id: NodeId) -> &RoundCore<W> {
    sim.actor(id)
}

fn assert_plain_mean<W: Wire>(sim: &Sim<W::Msg>, models: &[WeightVector]) {
    let leader = honest::<W>(sim, NodeId(0));
    assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
    assert_eq!(leader.contributors, (0..N).collect::<Vec<_>>());
    let err = leader
        .result
        .as_ref()
        .unwrap()
        .linf_distance(&WeightVector::mean(models.iter()));
    assert!(err < 1e-9, "result is {err} from the plain mean");
}

/// The reconstruction: the attacker freezes the contributor set to the
/// victim alone, then asks every holder for every total. Their sum would
/// be the victim's model.
fn forged_compute_over_reads_no_model<W: Wire>() {
    let (mut sim, ids, models) = group_with_spy::<W>(71);
    // Mid-round (followers have begun, the leader has not frozen yet) and
    // again after the round is over.
    for at in [20, 1000] {
        for &to in ids.iter().filter(|&&p| p != ids[ATTACKER]) {
            let freeze = RoundEvent::ComputeOver {
                round: 1,
                contributors: vec![VICTIM],
            };
            forge::<W>(&mut sim, to, freeze, at);
            for idx in 0..N {
                let request = RoundEvent::TotalRequest {
                    round: 1,
                    stage: 0,
                    idx,
                };
                forge::<W>(&mut sim, to, request, at + 5);
            }
        }
    }
    sim.run_until(SimTime::from_secs(3));
    let spy = sim.actor::<Spy<W>>(ids[ATTACKER]);
    assert!(
        spy.served.is_empty(),
        "holders served {} totals to a non-leader",
        spy.served.len()
    );
    // The honest followers never adopted the forged set, so the leader's
    // round is untouched.
    assert_plain_mean::<W>(&sim, &models);
    for &p in &[1usize, 2, 4] {
        let a = honest::<W>(&sim, ids[p]);
        assert!(a.shares_rejected >= 2, "peer {p}: {}", a.shares_rejected);
        assert!(a.byzantine_detected.is_empty(), "a forger convicts nobody");
    }
}

/// Framing: the attacker sends a malformed share — and, where the wire
/// has them, bogus commitments — under the victim's position, which used
/// to convict the victim.
fn forged_share_neither_lands_nor_convicts<W: Wire>() {
    let (mut sim, ids, models) = group_with_spy::<W>(72);
    let target = ids[2];
    let mut forged = 1;
    if W::COMMITS {
        let commit = RoundEvent::Commit {
            round: 1,
            from_pos: VICTIM,
            digests: vec![0xbad; N],
        };
        forge::<W>(&mut sim, target, commit, 16);
        forged += 1;
    }
    let share = RoundEvent::Share {
        round: 1,
        from_pos: VICTIM,
        parts: vec![(0, WeightVector::zeros(3))], // wrong dimension
    };
    forge::<W>(&mut sim, target, share, 17);
    sim.run_until(SimTime::from_secs(3));
    let a = honest::<W>(&sim, target);
    assert_eq!(a.shares_rejected, forged);
    assert!(
        a.byzantine_detected.is_empty(),
        "victim framed: {:?}",
        a.byzantine_detected
    );
    // The victim's genuine block was accepted against its genuine
    // commitment: everyone contributes and the mean is exact.
    assert!(a.held_blocks().contains_key(&VICTIM));
    assert_plain_mean::<W>(&sim, &models);
}

/// Takeover: a member announces a retry roster; its receivers used to
/// adopt the *sender* as their leader.
fn non_leader_reconfigure_takes_no_leadership<W: Wire>() {
    let (mut sim, ids, models) = group_with_spy::<W>(73);
    sim.run_until(SimTime::from_secs(2));
    let retry = RoundEvent::Reconfigure {
        round: 2,
        group: ids.clone(),
        k: K,
    };
    forge::<W>(&mut sim, ids[2], retry, 1);
    let begin = RoundEvent::Begin { round: 2 };
    forge::<W>(&mut sim, ids[4], begin, 1);
    sim.run_until(SimTime::from_secs(3));
    for &p in &[2usize, 4] {
        let a = honest::<W>(&sim, ids[p]);
        assert_eq!(a.sac_config().leader_pos, 0, "peer {p} changed leader");
        assert_eq!(a.round, 1, "peer {p} opened a round for a non-leader");
        assert_eq!(a.shares_rejected, 1);
    }
    assert_plain_mean::<W>(&sim, &models);
}

/// A transport that only records.
struct Sink<M> {
    id: NodeId,
    sent: Vec<(NodeId, M)>,
}

impl<M: Payload> Transport<M> for Sink<M> {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _tag: u64) -> TimerId {
        TimerId(0)
    }
    fn cancel_timer(&mut self, _id: TimerId) {}
}

/// A message stashed for the next round is judged against the roster in
/// force when it is *replayed*, not the one in force when it arrived: the
/// round's `Reconfigure` may have moved every position in between.
fn stashed_messages_are_gated_against_the_replay_roster<W: Wire>() {
    let ids = ids(4);
    let mut cfg = config(&ids, 2, 9);
    cfg.k = 2;
    let mut actor = RoundCore::<W>::new(cfg, WeightVector::new(vec![1.0, 2.0]));
    let mut net = Sink {
        id: ids[2],
        sent: Vec::new(),
    };
    let mut deliver = |actor: &mut RoundCore<W>, from: NodeId, event: RoundEvent| {
        let msg = W::encode(event).expect("event exists on this wire");
        actor.on_message(&mut net, from, msg);
    };
    let share_as = |from_pos: usize| RoundEvent::Share {
        round: 1,
        from_pos,
        parts: vec![(0, WeightVector::new(vec![0.5, 0.5]))],
    };
    // Both arrive from ids[1] before round 1 opens here. Under the current
    // roster ids[1] *is* position 1 and is not position 0.
    deliver(&mut actor, ids[1], share_as(1));
    deliver(&mut actor, ids[1], share_as(0));
    assert!(actor.held_blocks().is_empty(), "stashed, not applied");
    // Round 1 opens under a roster in which ids[1] sits at position 0.
    let roster = vec![ids[1], ids[0], ids[2], ids[3]];
    let reconfigure = RoundEvent::Reconfigure {
        round: 1,
        group: roster,
        k: 2,
    };
    deliver(&mut actor, ids[0], reconfigure);
    assert_eq!(actor.round, 1);
    assert_eq!(actor.sac_config().leader_pos, 1);
    assert!(
        actor.held_blocks().contains_key(&0),
        "valid under the replay roster, so accepted"
    );
    assert!(
        !actor.held_blocks().contains_key(&1),
        "valid only under the roster it arrived in, so refused"
    );
    assert_eq!(actor.shares_rejected, 1);
    assert!(actor.byzantine_detected.is_empty());
}

macro_rules! per_plan {
    ($($body:ident),* $(,)?) => {
        mod pairwise {
            $(#[test] fn $body() { super::$body::<super::PairwiseWire>(); })*
        }
        mod ring {
            $(#[test] fn $body() { super::$body::<super::RingWire>(); })*
        }
    };
}

per_plan!(
    forged_compute_over_reads_no_model,
    forged_share_neither_lands_nor_convicts,
    non_leader_reconfigure_takes_no_leadership,
    stashed_messages_are_gated_against_the_replay_roster,
);

/// The ring group used to drop hostile frames without a trace; on the
/// reactor they now show in `NetStats::shares_rejected`, next to the
/// transport's own counters.
#[test]
fn hostile_frames_at_a_ring_group_show_in_net_stats() {
    let ids = ids(4);
    let reactor = reactor::<RingMsg, RingSacActor>();
    let actors = (0..4).map(|i| {
        let mut cfg = config(&ids, i, 5 + i as u64);
        cfg.k = 2;
        (ids[i], RingSacActor::new(cfg, WeightVector::zeros(4)))
    });
    let handles = spawn_group(&reactor, actors, None);
    mesh(&handles);
    let target = ids[1];
    handles[3].with(move |_, t| {
        // A share under the leader's position, an out-of-grid total
        // request, and a freeze — none of them the sender's to send.
        t.send(
            target,
            RingMsg::StageShare {
                round: 0,
                from_pos: 0,
                parts: vec![(0, WeightVector::zeros(4))],
            },
        );
        t.send(
            target,
            RingMsg::StageTotalRequest {
                round: 0,
                stage: 7,
                idx: 7,
            },
        );
        t.send(
            target,
            RingMsg::ComputeOver {
                round: 0,
                contributors: vec![2],
            },
        );
    });
    wait_for("rejections in NetStats", Duration::from_secs(30), || {
        handles[1].stats().shares_rejected == 3
    });
    assert_eq!(handles[1].decode_errors(), 0, "well-formed frames");
    handles[1].with(|a, _| {
        assert!(a.held_blocks().is_empty());
        assert!(a.frozen_set().is_none());
        assert!(a.byzantine_detected.is_empty());
    });
    for h in handles {
        h.stop();
    }
}
