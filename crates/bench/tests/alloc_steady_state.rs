//! Allocation-budget test: the steady-state aggregation loop — summing
//! incoming shares into a preallocated accumulator and applying streamed
//! pairwise masks — must not allocate at all. Everything it needs is
//! allocated up front; per-round work is pure arithmetic over existing
//! buffers. A regression here (say, a temporary vector sneaking into an
//! axpy) shows up as a nonzero count, not as a silent slowdown.

use p2pfl_bench::alloc::{count_allocs, CountingAlloc};
use p2pfl_secagg::WeightVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// `count_allocs` counts on the measuring thread only, so the two tests
// (and the harness's own threads) may overlap freely.

#[test]
fn steady_state_share_aggregation_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dim = 4096;
    // Setup phase (allocations fine here): the shares a subgroup leader
    // holds and the accumulator it reuses every round.
    let shares: Vec<WeightVector> = (0..8)
        .map(|_| WeightVector::random(dim, 1.0, &mut rng))
        .collect();
    let mut acc = WeightVector::zeros(dim);

    let ((), allocs) = count_allocs(|| {
        // Ten rounds of the leader's hot loop: zero the accumulator,
        // fold in every share, then rescale into the mean — the exact
        // arithmetic a subgroup leader's round performs, over buffers
        // that already exist.
        for _ in 0..10 {
            acc.as_mut_slice().fill(0.0);
            for s in &shares {
                acc.add_assign(s);
            }
            acc.add_scaled(&shares[0], -1.0);
            acc.add_assign(&shares[0]);
            acc.scale(1.0 / shares.len() as f64);
        }
    });
    assert!(acc.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state aggregation loop allocated {allocs} times"
    );
}

#[test]
fn counting_allocator_sees_allocations() {
    // Sanity check that the counter is actually installed: an allocating
    // workload must register, or the zero-assertion above proves nothing.
    let ((), allocs) = count_allocs(|| {
        let v: Vec<u64> = (0..1000).collect();
        std::hint::black_box(v);
    });
    assert!(allocs >= 1, "allocator counter not wired up");
}
