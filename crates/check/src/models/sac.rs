//! One SAC subgroup running one unsupervised round, per share plan.
//!
//! * [`Sac3Model`] (`sac3`): 3 peers, k = 2, pairwise — the one-stage
//!   layout, each peer holding two of every contributor's three
//!   partitions.
//! * [`RingSacModel`] (`ringsac`): 6 peers, k = 2, Ring-SAC — two stages
//!   of three with per-stage threshold `k_m = 2`: each member holds two
//!   of its predecessor stage's three partitions, never a full share set.
//!
//! The leader (position 0) kicks the round off in [`Model::init`]; the
//! explorer then owns every delivery and timer ordering. The oracles see
//! both held and in-flight shares, so re-randomized replicas
//! (`BeginRerandomize`) and skewed shares (`ShareSkew`) are caught even
//! before blocks land; share confinement and stage anonymity check the
//! same joint view for the two ways a layout could disclose an individual
//! model (a receiver assembling a full share set; a frozen set isolating
//! one contributor in a stage).

use crate::{oracles, Model, Violation};
use p2pfl_secagg::{
    PairwiseWire, RingWire, RoundCore, SacConfig, SacEngine, SacMsg, ShareScheme, WeightVector,
    Wire,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use std::hash::{Hash, Hasher};

/// What distinguishes the SAC round models from each other.
pub trait SacShape: Copy {
    /// The share plan under test.
    type Wire: Wire;
    /// CLI / counterexample name.
    const NAME: &'static str;
    /// The engine selector matching `Wire`.
    const ENGINE: SacEngine;
    /// Subgroup size.
    const N: usize;
    /// Threshold.
    const K: usize;
    /// Simulation and share-randomness seed.
    const SEED: u64;
}

/// The pairwise round model; see module docs.
#[derive(Clone, Copy)]
pub struct Sac3Model;

impl SacShape for Sac3Model {
    type Wire = PairwiseWire;
    const NAME: &'static str = "sac3";
    const ENGINE: SacEngine = SacEngine::Pairwise;
    const N: usize = 3;
    const K: usize = 2;
    const SEED: u64 = 0x5ac;
}

/// The Ring-SAC round model; see module docs.
#[derive(Clone, Copy)]
pub struct RingSacModel;

impl SacShape for RingSacModel {
    type Wire = RingWire;
    const NAME: &'static str = "ringsac";
    const ENGINE: SacEngine = SacEngine::Ring;
    const N: usize = 6;
    const K: usize = 2;
    const SEED: u64 = 0x5ac2;
}

/// `NodeId(0)..NodeId(n)`.
pub(super) fn ids(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
}

/// Deterministic per-peer input model, keyed by node id (stable across
/// roster reconfigurations).
pub(super) fn peer_model(id: NodeId) -> WeightVector {
    let b = (id.0 + 1) as f64;
    WeightVector::new(vec![b, -2.0 * b, 0.5 * b])
}

/// The checker's engine configuration for position `pos` of `n`.
pub(super) fn config(
    n: usize,
    pos: usize,
    k: usize,
    engine: SacEngine,
    seed: u64,
    round_deadline: Option<SimDuration>,
) -> SacConfig {
    SacConfig {
        group: ids(n),
        position: pos,
        leader_pos: 0,
        k,
        scheme: ShareScheme::Masked,
        engine,
        share_deadline: SimDuration::from_millis(80),
        collect_deadline: SimDuration::from_millis(80),
        round_deadline,
        seed: seed ^ (pos as u64 * 0x9e37_79b9),
    }
}

/// Hashes the round state every SAC model fingerprints: round, phase,
/// verdict, held shares, frozen set and totals.
pub(super) fn hash_round_state<W: Wire, H: Hasher>(a: &RoundCore<W>, h: &mut H) {
    a.round.hash(h);
    format!("{:?}", a.phase).hash(h);
    a.result.as_ref().map(WeightVector::digest).hash(h);
    a.contributors.hash(h);
    a.recoveries.hash(h);
    for (j, parts) in a.held_blocks() {
        for (p, v) in parts {
            (j, p, v.digest()).hash(h);
        }
    }
    format!("{:?}", a.frozen_set()).hash(h);
    for ((t, p), v) in a.held_totals() {
        (t, p, v.digest()).hash(h);
    }
}

impl<S: SacShape> Model for S {
    type Msg = SacMsg;

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn build(&self) -> Sim<Self::Msg> {
        let mut sim = Sim::new(S::SEED);
        for pos in 0..S::N {
            let cfg = config(S::N, pos, S::K, S::ENGINE, S::SEED, None);
            sim.add_node(RoundCore::<S::Wire>::new(
                cfg,
                peer_model(NodeId(pos as u32)),
            ));
        }
        sim
    }

    fn init(&self, sim: &mut Sim<Self::Msg>) {
        sim.exec::<RoundCore<S::Wire>, _, _>(NodeId(0), |a, ctx| a.start_round(ctx, 1));
    }

    fn fingerprint(&self, sim: &mut Sim<Self::Msg>) -> u64 {
        let mut h = super::hasher();
        for id in ids(S::N) {
            hash_round_state(sim.actor::<RoundCore<S::Wire>>(id), &mut h);
        }
        h.finish()
    }

    fn check(&self, sim: &mut Sim<Self::Msg>) -> Result<(), Violation> {
        let sim = &*sim;
        let actors: Vec<(NodeId, &RoundCore<S::Wire>)> = ids(S::N)
            .into_iter()
            .map(|id| (id, sim.actor(id)))
            .collect();
        let round = actors.iter().map(|(_, a)| a.round).max().unwrap_or(0);
        let copies = oracles::share_copies(actors.iter().copied(), sim.pending_deliveries(), round);
        let models: Vec<&WeightVector> = actors.iter().map(|(_, a)| a.model()).collect();
        let plan = actors[0].1.plan();
        oracles::mask_cancellation(&copies, &models, |j| plan.parts_of(j))?;
        oracles::ring_share_confinement(actors.iter().copied(), &copies, |j| plan.parts_of(j))?;
        oracles::ring_stage_anonymity(actors.iter().copied())?;
        oracles::kofn_result(actors.iter().copied(), &models)
    }
}
