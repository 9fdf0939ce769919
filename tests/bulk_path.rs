//! Tier-1 representative for the bulk path a model vector takes through
//! `secagg` -> `simnet::codec` -> `net::reactor`: the word-parallel
//! commitment digest, the slice-level `f64` codec and the in-place frame
//! hand-off, each held against what it replaced.
//!
//! * the bulk codec encodes and decodes a share message exactly like the
//!   element-wise event stream does, at a dimension that crosses every
//!   internal block boundary;
//! * the digest still tells apart every pair of vectors that differ in a
//!   single bit, in order, or in length;
//! * a pairwise round (3 peers) and a ring round (8 peers) at dim ~80 k on
//!   one reactor publish the simulator's digest bit for bit, and a
//!   commit-then-skew sender is still convicted by the new digest.

mod common;

use common::{assert_clean_wire, mesh, reactor, spawn_group, wait_done};
use p2pfl_net::codec::{from_bytes, to_bytes, to_frame_bytes, FrameBuffer};
use p2pfl_secagg::{
    RingMsg, RingSacActor, SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme,
    WeightVector,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 80_003;
const SEED: u64 = 0xB01C;

// ---------------------------------------------------------------------
// Codec: bulk path vs the element-wise oracle
// ---------------------------------------------------------------------

/// A vector whose elements are not `f64` to serde, so it takes the
/// provided element-by-element loops — the path `WeightVector` took
/// before `f64` overrode the slice hooks.
#[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
struct ElementWise(Vec<Elem>);
#[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
struct Elem(f64);

/// `SacMsg` up to `ShareBlock`, with element-wise vectors. The binary
/// format carries variant indices, not names, so only the order counts.
#[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
enum SacMirror {
    Begin {
        round: u64,
    },
    Commit {
        round: u64,
        from_pos: usize,
        digests: Vec<u64>,
    },
    ShareBlock {
        round: u64,
        from_pos: usize,
        parts: Vec<(usize, ElementWise)>,
    },
}

fn element_wise(v: &WeightVector) -> ElementWise {
    ElementWise(v.iter().map(|&x| Elem(x)).collect())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn bulk_codec_matches_element_wise_oracle_on_a_share_block() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut a = WeightVector::random(DIM, 1e3, &mut rng);
    // Bit patterns a float comparison would blur.
    a.as_mut_slice()[0] = -0.0;
    a.as_mut_slice()[1] = f64::from_bits(0x7ff8_0000_dead_beef);
    a.as_mut_slice()[DIM - 1] = f64::MIN_POSITIVE / 2.0;
    let b = WeightVector::random(DIM, 1e3, &mut rng);

    let msg = SacMsg::ShareBlock {
        round: 3,
        from_pos: 1,
        parts: vec![(1, a.clone()), (2, b.clone())],
    };
    let mirror = SacMirror::ShareBlock {
        round: 3,
        from_pos: 1,
        parts: vec![(1, element_wise(&a)), (2, element_wise(&b))],
    };

    // Encode: byte for byte, and the frame form is exactly sized.
    let bytes = to_bytes(&msg);
    assert!(bytes == to_bytes(&mirror), "bulk encode changed the wire");
    let framed = to_frame_bytes(&msg).expect("fits a frame");
    assert_eq!(framed.len(), framed.capacity());
    assert!(framed[4..] == bytes[..]);

    // Decode: both paths read the same bytes to the same bit patterns.
    let SacMsg::ShareBlock { parts, .. } = from_bytes::<SacMsg>(&bytes).unwrap() else {
        panic!("wrong variant");
    };
    let SacMirror::ShareBlock { parts: oracle, .. } = from_bytes::<SacMirror>(&bytes).unwrap()
    else {
        panic!("wrong variant");
    };
    for (((_, got), (_, want)), sent) in parts.iter().zip(&oracle).zip([&a, &b]) {
        let want: Vec<f64> = want.0.iter().map(|e| e.0).collect();
        assert!(
            bits(got) == bits(&want),
            "bulk decode != element-wise decode"
        );
        assert!(bits(got) == bits(sent), "decode changed bits");
    }

    // And through the receive side as the reactor drives it: reassembled
    // from read-sized pieces, decoded in place.
    let mut rx = FrameBuffer::new();
    for piece in framed.chunks(64 << 10) {
        rx.extend(piece);
    }
    let payload = rx.next_frame().unwrap().expect("whole frame buffered");
    // (A NaN rides along, so compare encodings, not floats.)
    let again = from_bytes::<SacMsg>(payload).unwrap();
    assert!(to_bytes(&again) == bytes, "frame round trip changed bits");
    assert!(matches!(rx.next_frame(), Ok(None)));
}

// ---------------------------------------------------------------------
// Digest properties
// ---------------------------------------------------------------------

#[test]
fn digest_sees_every_single_change() {
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let base = WeightVector::random(37, 1.0, &mut rng);
    let digest_of = |v: &[f64]| WeightVector::new(v.to_vec()).digest();
    let d = base.digest();
    assert_eq!(d, base.clone().digest());

    for i in 0..base.dim() {
        let mut v = base.as_slice().to_vec();
        v[i] = f64::from_bits(v[i].to_bits() ^ 1);
        assert_ne!(digest_of(&v), d, "one ulp at {i}");
        v[i] = -base[i];
        assert_ne!(digest_of(&v), d, "sign at {i}");
    }
    for (i, j) in [(0, 4), (0, 1), (2, 35), (33, 36)] {
        let mut v = base.as_slice().to_vec();
        v.swap(i, j);
        assert_ne!(digest_of(&v), d, "swap {i} <-> {j}");
    }
    let mut v = base.as_slice().to_vec();
    v[3] = -v[3];
    v[7] = -v[7];
    assert_ne!(digest_of(&v), d, "two sign flips in one lane");

    assert_ne!(digest_of(&[0.0]), digest_of(&[-0.0]));
    assert_ne!(
        digest_of(&[f64::from_bits(0x7ff8_0000_0000_0000)]),
        digest_of(&[f64::from_bits(0x7ff8_0000_0000_0001)])
    );

    // Lengths 0..=9 of zeros, and trailing zeros on real data.
    let zeros: std::collections::BTreeSet<u64> =
        (0..=9).map(|n| WeightVector::zeros(n).digest()).collect();
    assert_eq!(zeros.len(), 10);
    let mut padded = base.as_slice().to_vec();
    for _ in 0..8 {
        padded.push(0.0);
        assert_ne!(digest_of(&padded), d);
    }
}

// ---------------------------------------------------------------------
// Rounds: reactor digest == simulator digest, skewer convicted
// ---------------------------------------------------------------------

fn models(n: usize) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED + 2);
    (0..n)
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect()
}

fn ids(n: usize) -> Vec<NodeId> {
    (0..n).map(|i| NodeId(i as u32)).collect()
}

/// Deadlines only bound how long a leader waits for a peer it will not
/// hear from (here: the convicted skewer, when its block happens to arrive
/// last); every honest block is in long before, so the frozen set — and
/// with it the digest — is the same under virtual and wall-clock time.
fn config(n: usize, k: usize, position: usize, engine: SacEngine, deadline_ms: u64) -> SacConfig {
    SacConfig {
        group: ids(n),
        position,
        leader_pos: 0,
        k,
        scheme: ShareScheme::Masked,
        engine,
        share_deadline: SimDuration::from_millis(deadline_ms),
        collect_deadline: SimDuration::from_millis(deadline_ms),
        round_deadline: None,
        seed: SEED + position as u64,
    }
}

const PAIRWISE_N: usize = 3;
const SKEWER: usize = 2;

/// One pairwise round with peer [`SKEWER`] committing honestly and then
/// sending halved shares. Returns the leader's (contributors, digest,
/// shares_rejected, convicted positions).
type PairwiseOutcome = (Vec<usize>, u64, u64, Vec<usize>);

fn pairwise_outcome(a: &SacPeerActor) -> Option<PairwiseOutcome> {
    match &a.phase {
        SacPhase::Done => Some((
            a.contributors.clone(),
            a.result.as_ref().expect("done without result").digest(),
            a.shares_rejected,
            a.byzantine_detected.iter().copied().collect(),
        )),
        SacPhase::Failed(e) => panic!("pairwise round failed: {e}"),
        _ => None,
    }
}

fn pairwise_actor(position: usize, deadline_ms: u64, model: &WeightVector) -> SacPeerActor {
    let cfg = config(PAIRWISE_N, 2, position, SacEngine::Pairwise, deadline_ms);
    let mut actor = SacPeerActor::new(cfg, model.clone());
    if position == SKEWER {
        actor.byz_share_skew = Some(0.5);
    }
    actor
}

#[test]
fn pairwise_round_matches_simulator_and_convicts_the_skewer() {
    let models = models(PAIRWISE_N);
    let ids = ids(PAIRWISE_N);

    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    for (i, m) in models.iter().enumerate() {
        sim.add_node(pairwise_actor(i, 2_000, m));
    }
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(30));
    let want = pairwise_outcome(sim.actor::<SacPeerActor>(ids[0])).expect("sim round unfinished");
    assert_eq!(want.0, vec![0, 1], "skewer not excluded on the simulator");

    let reactor = reactor::<SacMsg, SacPeerActor>();
    let actors = models.iter().enumerate();
    let actors = actors.map(|(i, m)| (ids[i], pairwise_actor(i, 2_000, m)));
    let handles = spawn_group(&reactor, actors, None);
    mesh(&handles);
    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    wait_done(&handles[0], "pairwise round");
    let got = handles[0].with(|a, _| pairwise_outcome(a)).expect("done");

    assert_eq!(got.0, want.0, "contributor sets diverged");
    assert_eq!(got.1, want.1, "reactor digest diverged from the simulator");
    assert!(got.2 >= 1, "leader accepted a skewed block");
    assert_eq!(got.3, vec![SKEWER], "skewer not convicted");
    // The honest follower checked the skewer's block against the same
    // commitment, independently.
    let (rejected, convicted) =
        handles[1].with(|a, _| (a.shares_rejected, a.byzantine_detected.contains(&SKEWER)));
    assert!(
        rejected >= 1 && convicted,
        "follower accepted a skewed block"
    );
    assert_clean_wire(&handles);
}

const RING_N: usize = 8;

fn ring_digest(a: &RingSacActor) -> Option<u64> {
    match &a.phase {
        SacPhase::Done => {
            assert_eq!(a.contributors, (0..RING_N).collect::<Vec<_>>());
            Some(a.result.as_ref().expect("done without result").digest())
        }
        SacPhase::Failed(e) => panic!("ring round failed: {e}"),
        _ => None,
    }
}

#[test]
fn ring_round_matches_simulator() {
    let models = models(RING_N);
    let ids = ids(RING_N);
    let actor = |i: usize, deadline_ms: u64| {
        RingSacActor::new(
            config(RING_N, 4, i, SacEngine::Ring, deadline_ms),
            models[i].clone(),
        )
    };

    let mut sim: Sim<RingMsg> = Sim::new(SEED);
    for i in 0..RING_N {
        sim.add_node(actor(i, 2_000));
    }
    sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(30));
    let want = ring_digest(sim.actor::<RingSacActor>(ids[0])).expect("sim round unfinished");

    let reactor = reactor::<RingMsg, RingSacActor>();
    let actors = (0..RING_N).map(|i| (ids[i], actor(i, 30_000)));
    let handles = spawn_group(&reactor, actors, None);
    mesh(&handles);
    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    let (contributors, got) = wait_done(&handles[0], "ring round");
    assert_eq!(contributors, (0..RING_N).collect::<Vec<_>>());
    assert_eq!(
        got.digest(),
        want,
        "reactor digest diverged from the simulator"
    );
    assert_clean_wire(&handles);
}
