//! Model-sized storage is reused from round to round. Each host keeps one
//! pool of vectors: a reactor for every peer it hosts, a simulator for
//! every actor it runs. A round core draws its shares, totals and average
//! from its host's pool and gives them back at the start of its next
//! round, and every holder of a partition shares the one copy its sender
//! made. A reactor also decodes received vectors into the pool and takes
//! a sent message's vectors back once its frame is on the wire. So once
//! warm-up rounds have filled the pool, a steady round allocates no
//! vector of the model's size at all: a core that drew anything afresh,
//! or a host that let a vector go without taking it back, shows up here.
//!
//! Each plan runs on both hosts: a group on one reactor, each round
//! ending only once every frame sent has been delivered, and a group on
//! one simulator driven through `sim_group` / `drive_round`, whose caller
//! hands each round's average back once it has read it. After the
//! warm-up, every allocation of exactly a model's size is counted over a
//! few more rounds.

use p2pfl_bench::testkit::{
    assert_clean_wire, mesh, models, reactor, sac_peers, spawn_group, wait_for,
};
use p2pfl_secagg::{
    drive_round, sim_group, PairwiseWire, RingWire, RoundCore, SacEngine, SacMsg, SacPhase,
    WeightVector, Wire,
};
use p2pfl_simnet::{NodeId, SimDuration, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Counts allocations of exactly [`WATCHED`] bytes, process-wide: the
/// round cores run on the reactor's loop thread, not the test's.
struct SizeCounter;

static WATCHED: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size == WATCHED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only an atomic add.
unsafe impl GlobalAlloc for SizeCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: SizeCounter = SizeCounter;

/// Parameters per model: a share frame is a bulk frame, and a vector's
/// size (160 000 B) is no frame's, no send window's and no read chunk's.
const DIM: usize = 20_000;
const SEED: u64 = 0x5707;
/// Rounds that fill the pool before anything is counted.
const WARMUP: u64 = 2;
/// Rounds counted.
const COUNTED: u64 = 3;
/// Masks cancel to float rounding; results sit this close to the mean.
const TOL: f64 = 1e-9;

/// Runs `WARMUP` rounds through `round`, then `COUNTED` more; returns the
/// model-sized allocations of each counted round.
fn counted(mut round: impl FnMut(u64)) -> Vec<usize> {
    for r in 1..=WARMUP {
        round(r);
    }
    WATCHED.store(DIM * 8, Ordering::Relaxed);
    let fresh = (WARMUP + 1..=WARMUP + COUNTED)
        .map(|r| {
            let before = COUNT.load(Ordering::Relaxed);
            round(r);
            COUNT.load(Ordering::Relaxed) - before
        })
        .collect();
    WATCHED.store(usize::MAX, Ordering::Relaxed);
    fresh
}

fn peers<W: Wire>(engine: SacEngine, n: usize, k: usize) -> Vec<(NodeId, RoundCore<W>)> {
    let deadline = SimDuration::from_secs(30);
    sac_peers::<W>(&models(n, DIM, SEED), n, k, engine, deadline, SEED)
}

fn assert_average(avg: Option<&WeightVector>, mean: &WeightVector) {
    let error = avg.map(|avg| avg.linf_distance(mean));
    assert!(error.is_some_and(|e| e <= TOL), "average off by {error:?}");
}

/// Steady rounds of one `n`-member group on one reactor.
fn on_reactor<W: Wire>(engine: SacEngine, n: usize, k: usize) -> Vec<usize> {
    let r = reactor::<SacMsg, RoundCore<W>>();
    let handles = spawn_group(&r, peers::<W>(engine, n, k), None);
    mesh(&handles);
    let leader = &handles[0];
    let delivered = || {
        let sent: u64 = handles.iter().map(|h| h.stats().frames_sent).sum();
        let received: u64 = handles.iter().map(|h| h.stats().frames_received).sum();
        sent == received
    };
    let fresh = counted(|round| {
        leader.with(move |a, ctx| a.start_round(ctx, round));
        wait_for("the round", Duration::from_secs(60), || {
            leader.with(|a, _| a.phase == SacPhase::Done)
        });
        wait_for("every frame delivered", Duration::from_secs(60), delivered);
    });
    assert_clean_wire(&handles);
    let avg = leader.with(|a, _| a.result.clone());
    assert_average(avg.as_ref(), &WeightVector::mean(&models(n, DIM, SEED)));
    fresh
}

/// The same rounds of the same group on one simulator.
fn on_simulator<W: Wire>(engine: SacEngine, n: usize, k: usize) -> Vec<usize> {
    let mut sim = sim_group::<W>(SEED, peers::<W>(engine, n, k), None);
    let (leader, mean) = (NodeId(0), WeightVector::mean(&models(n, DIM, SEED)));
    counted(|round| {
        let outcome = drive_round::<W>(&mut sim, [leader], round).pop();
        let Some(Ok((_, avg))) = outcome else {
            panic!("round {round}: {outcome:?}");
        };
        assert_average(Some(&avg), &mean);
        // `drive_round` moved the average out; its reader gives it back.
        sim.exec::<RoundCore<W>, _, _>(leader, |_, ctx| ctx.give_f64(avg.into_inner()));
    })
}

/// One test for both plans on both hosts: the counter is process-wide, so
/// two groups counted at once would count each other's vectors.
#[test]
fn steady_rounds_allocate_no_model_vectors_on_either_host() {
    use SacEngine::{Pairwise, Ring};
    let runs = [
        (
            "pairwise n = 3, k = 2 on a reactor",
            on_reactor::<PairwiseWire>(Pairwise, 3, 2),
        ),
        (
            "ring n = 8, k = 3 on a reactor",
            on_reactor::<RingWire>(Ring, 8, 3),
        ),
        (
            "pairwise n = 3, k = 2 on a simulator",
            on_simulator::<PairwiseWire>(Pairwise, 3, 2),
        ),
        (
            "ring n = 8, k = 3 on a simulator",
            on_simulator::<RingWire>(Ring, 8, 3),
        ),
    ];
    for (what, fresh) in runs {
        println!("{what}: {fresh:?} model-sized allocations a round");
        assert!(
            fresh.iter().all(|&f| f == 0),
            "{what}: {fresh:?} vectors of {} B allocated in steady rounds; \
             shares, totals, the average and received vectors should all come from \
             the host's pool",
            DIM * 8
        );
    }
}
