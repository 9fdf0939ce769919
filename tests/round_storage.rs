//! Model-sized storage is reused from round to round. A round core draws
//! its shares, totals and average from a store it refills rather than
//! frees, hands every holder of a partition the one copy it made, and
//! offers the store to the reactor to decode received vectors into. So a
//! steady round allocates a vector of the model's size only where the
//! store runs dry, and never more of them than the round decodes: the
//! parts its peers send each other and the subtotals the leader collects.
//! A core that drew its shares, hand-out copies, totals or average
//! afresh would allocate several times that.
//!
//! Each plan runs a group hosted on one reactor: warm-up rounds fill the
//! stores, then every allocation of exactly a model's size is counted
//! over a few more rounds, each of which ends only once every frame sent
//! has been delivered.

use p2pfl_bench::testkit::{
    assert_clean_wire, mesh, models, reactor, sac_peers, spawn_group, wait_for,
};
use p2pfl_secagg::{
    PairwiseWire, RingPlan, RingWire, RoundCore, SacEngine, SacMsg, SacPhase, WeightVector, Wire,
};
use p2pfl_simnet::SimDuration;
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
/// Rounds that fill the stores before anything is counted.
const WARMUP: u64 = 2;
/// Rounds counted.
const COUNTED: u64 = 3;
/// Masks cancel to float rounding; results sit this close to the mean.
const TOL: f64 = 1e-9;

/// The vectors one fault-free round decodes, group-wide: each part of
/// every block a peer sends (on a one-stage layout a peer keeps its own
/// block), and one subtotal from each follower whose primary partition
/// the leader (position 0) does not hold itself.
fn decoded_per_round(plan: &RingPlan) -> usize {
    (0..plan.n())
        .map(|p| {
            let s = plan.succ_stage(plan.stage_of(p));
            let parts: usize = (0..plan.stage_len(s))
                .filter(|&i| plan.global_pos(s, i) != p)
                .map(|i| plan.assigned(s, i).len())
                .sum();
            let primary = (plan.stage_of(p), plan.local_index(p));
            let subtotal = p != 0 && !plan.is_holder(0, primary.0, primary.1);
            parts + usize::from(subtotal)
        })
        .sum()
}

/// Runs `WARMUP` rounds and then `COUNTED` rounds of one `n`-member
/// group; returns the model-sized allocations of each counted round and
/// what one round decodes.
fn steady_rounds<W: Wire>(engine: SacEngine, n: usize, k: usize) -> (Vec<usize>, usize) {
    let inputs = models(n, DIM, SEED);
    let deadline = SimDuration::from_secs(30);
    let r = reactor::<SacMsg, RoundCore<W>>();
    let handles = spawn_group(
        &r,
        sac_peers::<W>(&inputs, n, k, engine, deadline, SEED),
        None,
    );
    mesh(&handles);
    let leader = &handles[0];
    let delivered = || {
        let sent: u64 = handles.iter().map(|h| h.stats().frames_sent).sum();
        let received: u64 = handles.iter().map(|h| h.stats().frames_received).sum();
        sent == received
    };
    let run = |round: u64| {
        leader.with(move |a, ctx| a.start_round(ctx, round));
        wait_for("the round", Duration::from_secs(60), || {
            leader.with(|a, _| a.phase == SacPhase::Done)
        });
        wait_for("every frame delivered", Duration::from_secs(60), delivered);
    };
    for round in 1..=WARMUP {
        run(round);
    }
    WATCHED.store(DIM * 8, Ordering::Relaxed);
    let fresh = (WARMUP + 1..=WARMUP + COUNTED)
        .map(|round| {
            let before = COUNT.load(Ordering::Relaxed);
            run(round);
            COUNT.load(Ordering::Relaxed) - before
        })
        .collect();
    WATCHED.store(usize::MAX, Ordering::Relaxed);

    assert_clean_wire(&handles);
    let mean = WeightVector::mean(&inputs);
    let error = leader.with(move |a, _| a.result.as_ref().map(|avg| avg.linf_distance(&mean)));
    assert!(error.is_some_and(|e| e <= TOL), "average off by {error:?}");
    (fresh, decoded_per_round(&W::layout(n, k)))
}

/// One test for both plans: the counter is process-wide, so two groups
/// counted at once would count each other's vectors.
#[test]
fn steady_rounds_allocate_no_more_model_vectors_than_they_decode() {
    let runs = [
        (
            "pairwise n = 3, k = 2",
            steady_rounds::<PairwiseWire>(SacEngine::Pairwise, 3, 2),
        ),
        (
            "ring n = 8, k = 3",
            steady_rounds::<RingWire>(SacEngine::Ring, 8, 3),
        ),
    ];
    for (what, (fresh, decoded)) in runs {
        println!("{what}: {fresh:?} model-sized allocations a round, {decoded} decoded");
        assert!(
            fresh.iter().all(|&f| f <= decoded),
            "{what}: {fresh:?} vectors of {} B allocated in steady rounds that decode \
             {decoded}; shares, hand-out copies, totals and the average should come \
             from the round store",
            DIM * 8
        );
    }
}
