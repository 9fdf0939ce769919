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
//!   commit-then-skew sender is still convicted by the new digest while
//!   the published result stays the plain mean of the honest models;
//! * small and bulk frames sent to one peer in one dispatch, which the
//!   reactor writes from their messages in shared batches, arrive in
//!   send order, each the value its wire bytes decode to.

use p2pfl_bench::testkit::{
    assert_clean_wire, mesh, models, reactor, reactor_round, sac_peers, sim_group, sim_round,
    spawn_group, wait_for,
};
use p2pfl_net::codec::{from_bytes, to_bytes, to_frame_bytes, FrameBuffer};
use p2pfl_secagg::{
    PairwiseWire, RingSacActor, RingWire, SacEngine, SacMsg, SacPeerActor, WeightVector,
};
use p2pfl_simnet::{Actor, NodeId, SimDuration, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

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
        parts: vec![(1, a.clone().into()), (2, b.clone().into())],
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

/// `n` models at the bulk dimension.
fn inputs(n: usize) -> Vec<WeightVector> {
    models(n, DIM, SEED + 2)
}

const PAIRWISE_N: usize = 3;
const SKEWER: usize = 2;

/// Three pairwise peers (k = 2), peer [`SKEWER`] committing honestly and
/// then sending halved shares. The deadline only bounds how long the
/// leader waits for a peer it will not hear from (the convicted skewer,
/// when its block happens to arrive last); every honest block is in long
/// before, so the frozen set — and with it the digest — is the same under
/// virtual and wall-clock time.
fn pairwise_peers(models: &[WeightVector]) -> Vec<(NodeId, SacPeerActor)> {
    let deadline = SimDuration::from_millis(2_000);
    let mut peers = sac_peers(models, PAIRWISE_N, 2, SacEngine::Pairwise, deadline, SEED);
    peers[SKEWER].1.byz_share_skew = Some(0.5);
    peers
}

#[test]
fn pairwise_round_matches_simulator_and_convicts_the_skewer() {
    let models = inputs(PAIRWISE_N);

    let mut sim = sim_group(SEED, pairwise_peers(&models), None);
    let want = sim_round::<PairwiseWire>(&mut sim, [NodeId(0)], 1).remove(0);
    assert_eq!(want.0, vec![0, 1], "skewer not excluded on the simulator");

    let reactor = reactor::<SacMsg, SacPeerActor>();
    let handles = spawn_group(&reactor, pairwise_peers(&models), None);
    mesh(&handles);
    let (contributors, result) = reactor_round(&handles[..1], 1).remove(0);
    // The skewer's intended model is excluded, not averaged in skewed:
    // what the leader publishes is the plain mean of the honest two.
    let drift = result.linf_distance(&WeightVector::mean(models[..SKEWER].iter()));
    assert!(drift < 1e-9, "result drifted {drift} from the honest mean");

    assert_eq!(contributors, want.0, "contributor sets diverged");
    assert_eq!(
        result.digest(),
        want.1.digest(),
        "reactor digest diverged from the simulator"
    );
    let skewer = NodeId(SKEWER as u32);
    let (rejected, convicted) = handles[0].with(|a, _| {
        let convicted: Vec<NodeId> = a.byzantine_detected.iter().copied().collect();
        (a.shares_rejected, convicted)
    });
    assert!(rejected >= 1, "leader accepted a skewed block");
    assert_eq!(convicted, vec![skewer], "skewer not convicted");
    // The honest follower checked the skewer's block against the same
    // commitment, independently.
    let (rejected, convicted) =
        handles[1].with(move |a, _| (a.shares_rejected, a.byzantine_detected.contains(&skewer)));
    assert!(
        rejected >= 1 && convicted,
        "follower accepted a skewed block"
    );
    assert_clean_wire(&handles);
}

const RING_N: usize = 8;

/// Eight ring peers (k = 4).
fn ring_peers(models: &[WeightVector], deadline_ms: u64) -> Vec<(NodeId, RingSacActor)> {
    let deadline = SimDuration::from_millis(deadline_ms);
    sac_peers(models, RING_N, 4, SacEngine::Ring, deadline, SEED)
}

#[test]
fn ring_round_matches_simulator() {
    let models = inputs(RING_N);
    let everyone = (0..RING_N).collect::<Vec<_>>();

    let mut sim = sim_group(SEED, ring_peers(&models, 2_000), None);
    let (contributors, want) = sim_round::<RingWire>(&mut sim, [NodeId(0)], 1).remove(0);
    assert_eq!(contributors, everyone);

    let reactor = reactor::<SacMsg, RingSacActor>();
    let handles = spawn_group(&reactor, ring_peers(&models, 30_000), None);
    mesh(&handles);
    let (contributors, got) = reactor_round(&handles[..1], 1).remove(0);
    assert_eq!(contributors, everyone);
    assert_eq!(
        got.digest(),
        want.digest(),
        "reactor digest diverged from the simulator"
    );
    assert_clean_wire(&handles);
}

// ---------------------------------------------------------------------
// Reactor send path: small and bulk frames in shared write batches
// ---------------------------------------------------------------------

/// Keeps every message it receives, in order.
#[derive(Default)]
struct Record {
    got: Vec<SacMsg>,
}

impl Actor<SacMsg> for Record {
    fn on_message(&mut self, _: &mut dyn Transport<SacMsg>, _: NodeId, msg: SacMsg) {
        self.got.push(msg);
    }
}

/// Control frames, share blocks and subtotals, each side of the 64 KiB
/// read chunk, interleaved as a round core's dispatch might send them.
fn interleaved() -> Vec<SacMsg> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut vector = |dim| Arc::new(WeightVector::random(dim, 1e3, &mut rng));
    let (bulk, small) = (DIM, 100);
    let mut msgs = Vec::new();
    for round in 0..3 {
        msgs.extend([
            SacMsg::Begin { round },
            SacMsg::Commit {
                round,
                from_pos: 1,
                digests: vec![round ^ 0xD1, 7, 9],
            },
            SacMsg::ShareBlock {
                round,
                from_pos: 1,
                parts: vec![(0, vector(bulk)), (2, vector(small))],
            },
            SacMsg::Subtotal {
                round,
                idx: 1,
                value: Arc::unwrap_or_clone(vector(small)),
            },
            SacMsg::Abort {
                round,
                reason: "interleaved".into(),
            },
            SacMsg::Subtotal {
                round,
                idx: 0,
                value: Arc::unwrap_or_clone(vector(bulk)),
            },
            SacMsg::ComputeOver {
                round,
                contributors: vec![0, 1, 2],
            },
            SacMsg::ShareBlock {
                round,
                from_pos: 0,
                parts: vec![(1, vector(small))],
            },
            SacMsg::SubtotalRequest { round, idx: 2 },
        ]);
    }
    msgs
}

#[test]
fn interleaved_small_and_bulk_frames_arrive_in_order_as_sent() {
    let msgs = interleaved();
    let want: Vec<SacMsg> = (msgs.iter())
        .map(|m| {
            let wire = to_frame_bytes(m).expect("frames");
            from_bytes(&wire[4..]).expect("decodes")
        })
        .collect();
    let reactor = reactor::<SacMsg, Record>();
    let handles = spawn_group(
        &reactor,
        [0, 1].map(|i| (NodeId(i), Record::default())),
        None,
    );
    mesh(&handles);
    let (sender, receiver) = (&handles[0], &handles[1]);
    let n = msgs.len();
    sender.with(move |_, ctx| msgs.into_iter().for_each(|m| ctx.send(NodeId(1), m)));
    wait_for("every frame", Duration::from_secs(30), || {
        receiver.with(|r, _| r.got.len()) >= n
    });
    let got = receiver.with(|r, _| std::mem::take(&mut r.got));
    assert_eq!(got.len(), n);
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert!(
            got == want,
            "message {i} of {n} differs from its wire decoding"
        );
    }
    assert_eq!(sender.stats().frames_sent, receiver.stats().frames_received);
    assert_eq!(receiver.stats().frames_received as usize, n);
    assert_clean_wire(&handles);
}
