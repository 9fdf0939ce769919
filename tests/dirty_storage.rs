//! Pooled vectors cross peers. A host keeps one pool of model vectors for
//! every peer it hosts, so the storage a core draws may still hold
//! another peer's share, total or average; nothing is zeroed between
//! owners. What keeps that content out of a result is that every draw is
//! written over whole before it is read: a decode, `divide` and
//! `sum_from_zero` each overwrite all of their storage.
//!
//! Each plan's group runs one round twice per host, once with fresh
//! storage and once after its host's pool was filled with NaN vectors of
//! the model's size, enough for every draw of the round; the averages
//! must be bit for bit the same. A draw that kept anything of what its
//! storage held would turn the average NaN.

use p2pfl_bench::testkit::{
    mesh, models, reactor, reactor_round, sac_peers, sim_group, sim_round, spawn_group,
};
use p2pfl_secagg::{PairwiseWire, RingWire, RoundCore, SacEngine, SacMsg, Wire};
use p2pfl_simnet::{NodeId, SimDuration, Transport};

const DIM: usize = 64;
const SEED: u64 = 0xd127;
/// NaN vectors handed to a host's pool: more than one round draws.
const SPARE: usize = 256;

/// Draws `SPARE` vectors from the host's pool, which raises what it may
/// keep to that many, and gives them back filled with NaN.
fn fill_with_nan(ctx: &mut dyn Transport<SacMsg>) {
    let drawn: Vec<Vec<f64>> = (0..SPARE).map(|_| ctx.take_f64(DIM)).collect();
    for mut storage in drawn {
        storage.clear();
        storage.resize(DIM, f64::NAN);
        ctx.give_f64(storage);
    }
}

fn peers<W: Wire>(engine: SacEngine, n: usize, k: usize) -> Vec<(NodeId, RoundCore<W>)> {
    let deadline = SimDuration::from_secs(30);
    sac_peers::<W>(&models(n, DIM, SEED), n, k, engine, deadline, SEED)
}

/// The digest of round 1's average on a simulator.
fn on_simulator<W: Wire>(engine: SacEngine, n: usize, k: usize, dirty: bool) -> u64 {
    let mut sim = sim_group::<W>(SEED, peers::<W>(engine, n, k), None);
    if dirty {
        sim.exec::<RoundCore<W>, _, _>(NodeId(0), |_, ctx| fill_with_nan(ctx));
    }
    sim_round::<W>(&mut sim, [NodeId(0)], 1)[0].1.digest()
}

/// The digest of round 1's average on a reactor.
fn on_reactor<W: Wire>(engine: SacEngine, n: usize, k: usize, dirty: bool) -> u64 {
    let r = reactor::<SacMsg, RoundCore<W>>();
    let handles = spawn_group(&r, peers::<W>(engine, n, k), None);
    mesh(&handles);
    if dirty {
        handles[0].with(|_, ctx| fill_with_nan(ctx));
    }
    let digest = reactor_round::<W>([&handles[0]], 1)[0].1.digest();
    for h in handles {
        h.kill();
    }
    digest
}

fn check<W: Wire>(engine: SacEngine, n: usize, k: usize) {
    let fresh = on_simulator::<W>(engine, n, k, false);
    assert_eq!(
        on_simulator::<W>(engine, n, k, true),
        fresh,
        "{engine:?} on a simulator"
    );
    assert_eq!(
        on_reactor::<W>(engine, n, k, false),
        fresh,
        "{engine:?} on a reactor, fresh"
    );
    assert_eq!(
        on_reactor::<W>(engine, n, k, true),
        fresh,
        "{engine:?} on a reactor"
    );
}

#[test]
fn pairwise_results_ignore_what_pooled_storage_held() {
    check::<PairwiseWire>(SacEngine::Pairwise, 3, 2);
}

#[test]
fn ring_results_ignore_what_pooled_storage_held() {
    check::<RingWire>(SacEngine::Ring, 8, 3);
}
