//! Property tests: every workspace wire message type round-trips through
//! the binary codec bit-for-bit, including the degenerate shapes the
//! protocols actually produce (zero-length share vectors, empty entry
//! batches) and large share blocks; and a frame sent piece by piece from
//! its value, or received piece by piece into pooled vectors, is the same
//! bytes and the same value as the whole-buffer paths.

mod common;

use common::{decode_all, feed, write_frame};
use p2pfl_hierraft::{
    ElasticGroup, FedCmd, FedConfig, FedSnapshot, HierMsg, RobustCombiner, SubCmd, SubMembers,
    SubSnapshot, Topology, TopologyCmd,
};
use p2pfl_net::codec::{
    frame_len, frame_pieces, from_bytes, to_bytes, to_frame_bytes, CodecError, FrameBuffer,
    FrameReceiver, Piece, PieceList, Pool, MAX_FRAME, MAX_PIECES, RUN_MIN as REACTOR_RUN_MIN,
};
use p2pfl_net::{Reactor, ReactorConfig};
use p2pfl_raft::{Entry, LogCmd, PersistOp, RaftMsg};
use p2pfl_secagg::{SacEngine, SacMsg, WeightVector};
use p2pfl_simnet::{
    Actor, Blob, FaultAction, FaultEntry, FaultPlan, NodeId, Payload, PoisonMode, SimDuration,
    SimTime, TimerId, Transport,
};
use proptest::prelude::*;
use serde::{Serialize, Serializer};

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u32..64).prop_map(NodeId)
}

fn arb_weights(max_dim: usize) -> impl Strategy<Value = WeightVector> {
    prop::collection::vec(any::<f64>(), 0..=max_dim).prop_map(WeightVector::new)
}

/// Short ASCII reason strings (`Abort`/`Evict` carry human-readable causes).
fn arb_reason() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..128, 0..24)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn arb_logcmd_of<C, S>(cmd: impl Fn() -> S + 'static) -> impl Strategy<Value = LogCmd<C>>
where
    C: std::fmt::Debug + Clone + 'static,
    S: Strategy<Value = C> + 'static,
{
    prop_oneof![
        Just(LogCmd::Noop),
        cmd().prop_map(LogCmd::App),
        arb_node().prop_map(LogCmd::AddServer),
        arb_node().prop_map(LogCmd::RemoveServer),
    ]
}

fn arb_entry_of<C, S>(cmd: impl Fn() -> S + 'static) -> impl Strategy<Value = Entry<C>>
where
    C: std::fmt::Debug + Clone + 'static,
    S: Strategy<Value = C> + 'static,
{
    (any::<u64>(), any::<u64>(), arb_logcmd_of(cmd)).prop_map(|(term, index, cmd)| Entry {
        term,
        index,
        cmd,
    })
}

fn arb_entry() -> impl Strategy<Value = Entry<u64>> {
    arb_entry_of(any::<u64>)
}

fn arb_raftmsg_of<C, S>(cmd: impl Fn() -> S + 'static) -> impl Strategy<Value = RaftMsg<C>>
where
    C: std::fmt::Debug + Clone + 'static,
    S: Strategy<Value = C> + 'static,
{
    prop_oneof![
        (any::<u64>(), arb_node(), any::<u64>(), any::<u64>()).prop_map(
            |(term, candidate, last_log_index, last_log_term)| RaftMsg::PreVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            }
        ),
        (any::<u64>(), any::<bool>())
            .prop_map(|(term, granted)| RaftMsg::PreVoteResp { term, granted }),
        (any::<u64>(), arb_node(), any::<u64>(), any::<u64>()).prop_map(
            |(term, candidate, last_log_index, last_log_term)| RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            }
        ),
        (any::<u64>(), any::<bool>())
            .prop_map(|(term, granted)| RaftMsg::RequestVoteResp { term, granted }),
        (
            any::<u64>(),
            arb_node(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_entry_of(cmd), 0..5),
            any::<u64>(),
        )
            .prop_map(
                |(term, leader, prev_log_index, prev_log_term, entries, leader_commit)| {
                    RaftMsg::AppendEntries {
                        term,
                        leader,
                        prev_log_index,
                        prev_log_term,
                        entries,
                        leader_commit,
                    }
                }
            ),
        (
            any::<u64>(),
            arb_node(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_node(), 0..6),
            prop::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(term, leader, last_index, last_term, cluster, data)| {
                RaftMsg::InstallSnapshot {
                    term,
                    leader,
                    last_index,
                    last_term,
                    cluster,
                    data,
                }
            }),
        (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(term, success, match_index)| {
            RaftMsg::AppendEntriesResp {
                term,
                success,
                match_index,
            }
        }),
    ]
}

fn arb_raftmsg() -> impl Strategy<Value = RaftMsg<u64>> {
    arb_raftmsg_of(any::<u64>)
}

fn arb_topology_cmd() -> impl Strategy<Value = TopologyCmd> {
    prop_oneof![
        (
            any::<u64>(),
            prop::collection::vec(arb_node(), 0..6),
            prop::collection::vec(arb_node(), 0..6),
        )
            .prop_map(|(gid, left, right)| TopologyCmd::Split { gid, left, right }),
        (any::<u64>(), any::<u64>()).prop_map(|(into, from)| TopologyCmd::Merge { into, from }),
        (arb_node(), any::<u64>()).prop_map(|(peer, gid)| TopologyCmd::Admit { peer, gid }),
        arb_node().prop_map(|peer| TopologyCmd::Depart { peer }),
    ]
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    let group = (any::<u64>(), prop::collection::vec(arb_node(), 0..6))
        .prop_map(|(gid, members)| ElasticGroup { gid, members });
    (
        any::<u64>(),
        prop::collection::vec(group, 0..5),
        any::<u64>(),
    )
        .prop_map(|(version, groups, next_gid)| Topology {
            version,
            groups,
            next_gid,
        })
}

fn arb_fedcmd() -> impl Strategy<Value = FedCmd> {
    prop_oneof![
        any::<u64>().prop_map(FedCmd::Round),
        arb_topology_cmd().prop_map(FedCmd::Topology),
    ]
}

fn arb_engine() -> impl Strategy<Value = SacEngine> {
    prop_oneof![Just(SacEngine::Pairwise), Just(SacEngine::Ring)]
}

fn arb_combiner() -> impl Strategy<Value = RobustCombiner> {
    prop_oneof![
        Just(RobustCombiner::FedAvg),
        Just(RobustCombiner::TrimmedMean),
        Just(RobustCombiner::Median),
        Just(RobustCombiner::NormClip),
    ]
}

fn arb_fedconfig() -> impl Strategy<Value = FedConfig> {
    (
        prop::collection::vec(arb_node(), 0..5),
        prop::collection::vec(arb_node(), 0..5),
        arb_engine(),
        arb_combiner(),
        any::<u64>(),
    )
        .prop_map(|(founding, current, engine, combiner, version)| FedConfig {
            founding,
            current,
            engine,
            combiner,
            version,
        })
}

fn arb_sub_members() -> impl Strategy<Value = SubMembers> {
    (prop::collection::vec(arb_node(), 0..6), any::<u64>())
        .prop_map(|(members, version)| SubMembers { members, version })
}

fn arb_subcmd() -> impl Strategy<Value = SubCmd> {
    prop_oneof![
        arb_fedconfig().prop_map(SubCmd::FedConfig),
        arb_sub_members().prop_map(SubCmd::Members),
        arb_topology().prop_map(SubCmd::Topology),
        any::<u64>().prop_map(SubCmd::App),
    ]
}

fn arb_sub_entry() -> impl Strategy<Value = Entry<SubCmd>> {
    let cmd = prop_oneof![
        Just(LogCmd::Noop),
        arb_subcmd().prop_map(LogCmd::App),
        arb_node().prop_map(LogCmd::AddServer),
        arb_node().prop_map(LogCmd::RemoveServer),
    ];
    (any::<u64>(), any::<u64>(), cmd).prop_map(|(term, index, cmd)| Entry { term, index, cmd })
}

fn arb_hiermsg() -> impl Strategy<Value = HierMsg> {
    prop_oneof![
        // Subgroup-layer traffic carrying replicated fed configs.
        (
            any::<u64>(),
            arb_node(),
            any::<u64>(),
            prop::collection::vec(arb_sub_entry(), 0..4),
            any::<u64>(),
        )
            .prop_map(|(term, leader, prev, entries, commit)| {
                HierMsg::Sub(RaftMsg::AppendEntries {
                    term,
                    leader,
                    prev_log_index: prev,
                    prev_log_term: term,
                    entries,
                    leader_commit: commit,
                })
            }),
        arb_raftmsg_of(arb_fedcmd).prop_map(HierMsg::Fed),
        (arb_node(), prop::option::of(arb_node()))
            .prop_map(|(from, replaces)| HierMsg::JoinRequest { from, replaces }),
        (any::<bool>(), prop::option::of(arb_node()))
            .prop_map(|(accepted, leader)| HierMsg::JoinAck { accepted, leader }),
        any::<u64>().prop_map(|seq| HierMsg::Probe { seq }),
        any::<u64>().prop_map(|seq| HierMsg::ProbeAck { seq }),
        arb_reason().prop_map(|reason| HierMsg::Evict { reason }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(version, digest)| HierMsg::ConfigEcho { version, digest }),
        arb_node().prop_map(|from| HierMsg::Rendezvous { from }),
        (
            any::<bool>(),
            prop::option::of(arb_node()),
            prop::option::of(arb_topology()),
        )
            .prop_map(|(accepted, leader, topology)| HierMsg::RendezvousAssign {
                accepted,
                leader,
                topology,
            }),
        arb_topology().prop_map(|topology| HierMsg::TopologySync { topology }),
    ]
}

fn arb_persistop() -> impl Strategy<Value = PersistOp<u64>> {
    prop_oneof![
        (any::<u64>(), prop::option::of(arb_node()))
            .prop_map(|(term, voted_for)| PersistOp::HardState { term, voted_for }),
        arb_entry().prop_map(PersistOp::Append),
        any::<u64>().prop_map(PersistOp::TruncateFrom),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_node(), 0..5),
            prop::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(
                |(last_index, last_term, cluster, data)| PersistOp::Compact {
                    last_index,
                    last_term,
                    cluster,
                    data,
                }
            ),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_node(), 0..5),
            prop::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(|(last_index, last_term, cluster, data)| {
                PersistOp::InstallSnapshot {
                    last_index,
                    last_term,
                    cluster,
                    data,
                }
            }),
    ]
}

fn arb_simtime() -> impl Strategy<Value = SimTime> {
    (0u64..600_000).prop_map(SimTime::from_millis)
}

fn arb_fault_action() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        (0.0f64..=1.0).prop_map(|probability| FaultAction::Loss { probability }),
        (0u64..5_000, 0u64..5_000).prop_map(|(extra, jitter)| FaultAction::Delay {
            extra: SimDuration::from_millis(extra),
            jitter: SimDuration::from_millis(jitter),
        }),
        (0.0f64..=1.0).prop_map(|probability| FaultAction::Duplicate { probability }),
        (0.0f64..=1.0, 0u64..5_000).prop_map(|(probability, window)| FaultAction::Reorder {
            probability,
            window: SimDuration::from_millis(window),
        }),
        (
            prop::collection::vec(arb_node(), 0..4),
            prop::collection::vec(arb_node(), 0..4),
        )
            .prop_map(|(src, dst)| FaultAction::Partition { src, dst }),
        (
            prop::collection::vec(arb_node(), 0..4),
            prop::collection::vec(arb_node(), 0..4),
            0.0f64..=1.0,
        )
            .prop_map(|(src, dst, probability)| FaultAction::LinkLoss {
                src,
                dst,
                probability,
            }),
        arb_node().prop_map(|node| FaultAction::Blackout { node }),
        arb_node().prop_map(|node| FaultAction::Crash { node }),
        arb_node().prop_map(|node| FaultAction::Restart { node }),
        (arb_node(), 0.125f64..8.0)
            .prop_map(|(node, factor)| FaultAction::ShareSkew { node, factor }),
        (arb_node(), arb_poison_mode())
            .prop_map(|(node, mode)| FaultAction::PoisonUpdate { node, mode }),
        arb_node().prop_map(|node| FaultAction::Equivocate { node }),
        arb_node().prop_map(|node| FaultAction::BogusRoster { node }),
    ]
}

fn arb_poison_mode() -> impl Strategy<Value = PoisonMode> {
    prop_oneof![
        Just(PoisonMode::SignFlip),
        (1.0f64..1e6).prop_map(|factor| PoisonMode::NormBoost { factor }),
    ]
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let entry = (
        arb_simtime(),
        prop::option::of(arb_simtime()),
        arb_fault_action(),
    )
        .prop_map(|(from, until, action)| FaultEntry {
            from,
            until,
            action,
        });
    (any::<u64>(), prop::collection::vec(entry, 0..6))
        .prop_map(|(seed, entries)| FaultPlan { seed, entries })
}

fn arb_sacmsg(max_dim: usize) -> impl Strategy<Value = SacMsg> {
    prop_oneof![
        any::<u64>().prop_map(|round| SacMsg::Begin { round }),
        (
            any::<u64>(),
            0usize..8,
            prop::collection::vec(any::<u64>(), 0..8),
        )
            .prop_map(|(round, from_pos, digests)| SacMsg::Commit {
                round,
                from_pos,
                digests
            }),
        (
            any::<u64>(),
            0usize..8,
            prop::collection::vec((0usize..8, arb_weights(max_dim)), 0..4),
        )
            .prop_map(|(round, from_pos, parts)| SacMsg::ShareBlock {
                round,
                from_pos,
                parts: parts.into_iter().map(|(p, v)| (p, v.into())).collect(),
            }),
        (any::<u64>(), prop::collection::vec(0usize..8, 0..8)).prop_map(|(round, contributors)| {
            SacMsg::ComputeOver {
                round,
                contributors,
            }
        }),
        (any::<u64>(), 0usize..8, arb_weights(max_dim))
            .prop_map(|(round, idx, value)| SacMsg::Subtotal { round, idx, value }),
        (any::<u64>(), 0usize..8).prop_map(|(round, idx)| SacMsg::SubtotalRequest { round, idx }),
        (any::<u64>(), arb_reason()).prop_map(|(round, reason)| SacMsg::Abort { round, reason }),
        (
            any::<u64>(),
            prop::collection::vec(arb_node(), 0..6),
            0usize..8
        )
            .prop_map(|(round, group, k)| SacMsg::Reconfigure { round, group, k }),
        (any::<u64>(), 0usize..8).prop_map(|(round, from_pos)| SacMsg::Shared { round, from_pos }),
    ]
}

/// Run threshold for the piecewise paths: small, so that the generated
/// messages' vectors are runs or not at random.
const RUN_MIN: usize = 24;

/// The bytes of a piece: staged ones from `staged`, a run's from its
/// elements.
fn piece_bytes(piece: &Piece<'_>, staged: &[u8]) -> Vec<u8> {
    match piece {
        Piece::Staged(range) => staged[range.clone()].to_vec(),
        Piece::Run(run, skip) => run
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .skip(*skip)
            .collect(),
    }
}

/// `msg`'s frame at [`RUN_MIN`]: its pieces from offset 0 on, in
/// batches of [`MAX_PIECES`] with no cap on staged bytes. Its payload,
/// behind the run table, is exactly `to_bytes(msg)`.
fn frame_of<T: Serialize>(msg: &T) -> Vec<u8> {
    let size = frame_len(msg, RUN_MIN).expect("fits a frame");
    let (mut wire, mut staged) = (Vec::new(), Vec::new());
    while wire.len() < size.wire_len() {
        staged.clear();
        let mut pieces = PieceList::new(MAX_PIECES);
        frame_pieces(msg, size, wire.len(), &mut staged, usize::MAX, &mut pieces);
        for piece in pieces.as_slice() {
            wire.extend(piece_bytes(piece, &staged));
        }
    }
    assert_eq!(wire.len(), size.wire_len(), "counted frame length");
    let mut fb = FrameBuffer::new();
    fb.extend(&wire);
    assert!(fb.next_frame().unwrap() == Some(&to_bytes(msg)[..]));
    wire
}

/// Writes `msg`'s frame from byte `from` on the way a send queue does,
/// batch after batch of at most `max` pieces and `cap` staged bytes, and
/// checks the bytes are exactly its frame's from `from` on.
fn pieces_rebuild_the_frame<T: Serialize>(msg: &T, from: usize, cap: usize, max: usize) {
    let wire = frame_of(msg);
    let size = frame_len(msg, RUN_MIN).expect("counted");
    let (mut at, mut staged) = (from, Vec::new());
    while at < size.wire_len() {
        staged.clear();
        let mut pieces = PieceList::new(max);
        let end = frame_pieces(msg, size, at, &mut staged, cap, &mut pieces);
        let pieces = pieces.as_slice();
        assert!(!pieces.is_empty(), "no pieces from {at}");
        assert!(staged.len() <= cap, "staged {} of {cap}", staged.len());
        let batch: Vec<u8> = pieces
            .iter()
            .flat_map(|p| piece_bytes(p, &staged))
            .collect();
        assert!(batch[..] == wire[at..at + batch.len()], "from {at}");
        assert_eq!(end, at + batch.len(), "the offset the pieces reach");
        at += batch.len();
    }
    let mut past = PieceList::new(max);
    let end = frame_pieces(msg, size, size.wire_len(), &mut staged, cap, &mut past);
    assert!(past.as_slice().is_empty(), "pieces past the end");
    assert_eq!(end, size.wire_len());
}

/// Receives `msg`'s frame at [`RUN_MIN`] in the pieces between `cuts`,
/// meta bytes through a 16-byte chunk, and checks it decodes to exactly
/// what `from_bytes` does.
fn piecewise_receive_matches_from_bytes(msg: &SacMsg, cuts: &[usize]) {
    let wire = frame_of(msg);
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    bounds.extend([0, wire.len()]);
    bounds.sort_unstable();
    let (mut pool, mut rx) = (Pool::new(), FrameReceiver::new());
    let mut got = Vec::new();
    for w in bounds.windows(2) {
        feed(&mut rx, &mut pool, &wire[w[0]..w[1]], 16);
        got.extend(decode_all::<SacMsg>(&mut rx, &mut pool));
    }
    assert!(rx.is_empty());
    let [got] = &got[..] else {
        panic!("{} frames at cuts {bounds:?}", got.len());
    };
    let got = got.as_ref().expect("decodes");
    let want = from_bytes::<SacMsg>(&to_bytes(msg)).expect("decodes");
    assert!(
        to_bytes(got) == to_bytes(&want),
        "bits differ at cuts {bounds:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sac_send_pieces_from_every_offset_concatenate_to_the_frame(
        msg in arb_sacmsg(24),
        cap in 1usize..40,
        max in 1usize..6,
    ) {
        for from in 0..=frame_len(&msg, RUN_MIN).expect("counted").wire_len() {
            pieces_rebuild_the_frame(&msg, from, cap, max);
        }
    }

    #[test]
    fn sac_piecewise_receive_decodes_as_from_bytes(
        msg in arb_sacmsg(24),
        cuts in prop::collection::vec(any::<usize>(), 0..16),
    ) {
        piecewise_receive_matches_from_bytes(&msg, &cuts);
        // Small messages: a read boundary at every offset.
        let len = frame_of(&msg).len();
        if len <= 256 {
            for cut in 0..=len {
                piecewise_receive_matches_from_bytes(&msg, &[cut]);
            }
        }
    }

    #[test]
    fn raft_messages_round_trip(msg in arb_raftmsg()) {
        let bytes = to_bytes(&msg);
        prop_assert_eq!(from_bytes::<RaftMsg<u64>>(&bytes).unwrap(), msg);
    }

    #[test]
    fn hier_messages_round_trip(msg in arb_hiermsg()) {
        let bytes = to_bytes(&msg);
        prop_assert_eq!(from_bytes::<HierMsg>(&bytes).unwrap(), msg);
    }

    #[test]
    fn sac_messages_round_trip(msg in arb_sacmsg(32)) {
        let bytes = to_bytes(&msg);
        prop_assert_eq!(from_bytes::<SacMsg>(&bytes).unwrap(), msg);
    }

    #[test]
    fn persist_ops_round_trip(op in arb_persistop()) {
        // The write-ahead records FileStorage appends to disk use the same
        // codec as the wire; a lossy round-trip would corrupt recovery.
        let bytes = to_bytes(&op);
        prop_assert_eq!(from_bytes::<PersistOp<u64>>(&bytes).unwrap(), op);
    }

    #[test]
    fn fault_plans_round_trip(plan in arb_fault_plan()) {
        // FaultPlan is the cross-transport replay artifact produced by
        // p2pfl-check and the chaos harness; every action shape must
        // survive serialization, including FaultEntry and FaultAction.
        let bytes = to_bytes(&plan);
        prop_assert_eq!(from_bytes::<FaultPlan>(&bytes).unwrap(), plan);
    }

    #[test]
    fn simnet_ids_and_blobs_round_trip(id in any::<u64>(), size in any::<u64>(), tag in any::<u64>()) {
        let timer = TimerId(id);
        prop_assert_eq!(from_bytes::<TimerId>(&to_bytes(&timer)).unwrap(), timer);
        let blob = Blob { size, tag };
        prop_assert_eq!(from_bytes::<Blob>(&to_bytes(&blob)).unwrap(), blob);
    }

    #[test]
    fn weight_vectors_round_trip_bitwise(v in arb_weights(256)) {
        // NaNs must survive too: compare bit patterns, not float equality.
        let bits: Vec<u64> = v.as_slice().iter().map(|x| x.to_bits()).collect();
        let back = from_bytes::<WeightVector>(&to_bytes(&v)).unwrap();
        let back_bits: Vec<u64> = back.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(bits, back_bits);
    }

    #[test]
    fn truncation_never_panics(msg in arb_sacmsg(8), cut in 0usize..64) {
        let bytes = to_bytes(&msg);
        let cut = cut.min(bytes.len());
        // Any prefix must either fail cleanly or (full length) succeed.
        let _ = from_bytes::<SacMsg>(&bytes[..cut]);
    }

    #[test]
    fn weight_vector_overlong_prefix_is_a_typed_error(
        v in arb_weights(64),
        extra in 1u32..=u32::MAX,
    ) {
        // The bulk `f64` decode sizes one allocation from the declared
        // element count, so a count the input cannot back — by one
        // element or by four billion — must be refused before that.
        let mut bytes = to_bytes(&v);
        let declared = (v.dim() as u32).saturating_add(extra);
        bytes[..4].copy_from_slice(&declared.to_le_bytes());
        match from_bytes::<WeightVector>(&bytes) {
            Err(CodecError::Eof) => prop_assert!(declared as usize <= bytes.len() - 4),
            Err(CodecError::LengthOverrun { declared: d, available }) => {
                prop_assert_eq!(d, declared as usize);
                prop_assert_eq!(available, bytes.len() - 4);
                prop_assert!(d > available);
            }
            other => prop_assert!(false, "declared {} over {}: {:?}", declared, v.dim(), other),
        }
    }

    #[test]
    fn weight_vector_cut_mid_element_is_eof(
        v in prop::collection::vec(any::<f64>(), 1..=64usize).prop_map(WeightVector::new),
        cut in 1usize..8,
    ) {
        let bytes = to_bytes(&v);
        prop_assert_eq!(
            from_bytes::<WeightVector>(&bytes[..bytes.len() - cut]),
            Err(CodecError::Eof)
        );
    }

    #[test]
    fn weight_vector_bit_flips_never_panic(v in arb_weights(64), at in 0usize..1024, bit in 0u8..8) {
        let mut bytes = to_bytes(&v);
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        match from_bytes::<WeightVector>(&bytes) {
            // A flipped payload bit is just another float.
            Ok(back) => prop_assert!(at >= 4 && back.dim() == v.dim()),
            // A flipped prefix bit no longer matches the payload.
            Err(_) => prop_assert!(at < 4),
        }
    }

    #[test]
    fn fed_commands_round_trip(cmd in arb_fedcmd()) {
        // Round markers and topology ops share the FedAvg-layer log; both
        // must survive the wire (and FileStorage, which uses the same
        // codec) bit-for-bit.
        let bytes = to_bytes(&cmd);
        prop_assert_eq!(from_bytes::<FedCmd>(&bytes).unwrap(), cmd);
    }

    #[test]
    fn topologies_round_trip(t in arb_topology()) {
        let bytes = to_bytes(&t);
        prop_assert_eq!(from_bytes::<Topology>(&bytes).unwrap(), t);
    }

    #[test]
    fn log_snapshots_round_trip(
        fed_config in arb_fedconfig(),
        sub_members in arb_sub_members(),
        topology in arb_topology(),
        last_round in proptest::option::of(any::<u64>()),
        cut in 0usize..64,
    ) {
        // The blobs both HierActor logs are compacted into: persisted by
        // FileStorage and shipped in InstallSnapshot, so a truncated one
        // must be a typed error, never a panic.
        let sub = SubSnapshot { fed_config, sub_members, topology: topology.clone() };
        let bytes = to_bytes(&sub);
        prop_assert_eq!(from_bytes::<SubSnapshot>(&bytes).unwrap(), sub);
        let _ = from_bytes::<SubSnapshot>(&bytes[..cut.min(bytes.len())]);
        let fed = FedSnapshot { last_round, topology };
        let bytes = to_bytes(&fed);
        prop_assert_eq!(from_bytes::<FedSnapshot>(&bytes).unwrap(), fed);
        let _ = from_bytes::<FedSnapshot>(&bytes[..cut.min(bytes.len())]);
    }

    #[test]
    fn hier_truncation_never_panics(msg in arb_hiermsg(), cut in 0usize..128) {
        // Rendezvous / topology-sync frames arrive over real TCP in the
        // reactor leg; a short read must fail cleanly, never panic.
        let bytes = to_bytes(&msg);
        let cut = cut.min(bytes.len());
        let _ = from_bytes::<HierMsg>(&bytes[..cut]);
    }

    #[test]
    fn hier_bit_flips_never_panic(msg in arb_hiermsg(), at in 0usize..512, bit in 0u8..8) {
        let mut bytes = to_bytes(&msg);
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let _ = from_bytes::<HierMsg>(&bytes);
    }

    #[test]
    fn sac_bit_flips_never_panic(msg in arb_sacmsg(8), at in 0usize..256, bit in 0u8..8) {
        // A corrupted SAC frame must fail cleanly, never panic: the
        // decoder sees arbitrary bytes off the wire before any checksum.
        let mut bytes = to_bytes(&msg);
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let _ = from_bytes::<SacMsg>(&bytes);
    }
}

#[test]
fn zero_length_share_vectors_round_trip() {
    let msg = SacMsg::ShareBlock {
        round: 1,
        from_pos: 0,
        parts: vec![
            (0, WeightVector::new(vec![]).into()),
            (3, WeightVector::zeros(0).into()),
        ],
    };
    let back = from_bytes::<SacMsg>(&to_bytes(&msg)).unwrap();
    assert_eq!(back, msg);
}

/// A vector whose elements are not `f64` to serde: `Vec<Elem>` takes the
/// provided element-by-element loops, the encoding and decoding
/// `WeightVector` used before `f64` overrode the slice hooks. Kept as the
/// oracle for the bulk path.
#[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
struct ElementWise(Vec<Elem>);
#[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
struct Elem(f64);

/// `SacMsg` up to `ShareBlock`, over element-wise vectors. The binary format carries variant indices, not
/// names, so matching the declaration order is what makes these mirrors.
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
#[test]
fn bulk_share_messages_match_the_element_wise_oracle() {
    // Every dimension around the codec's internal block sizes, and one
    // that is a multiple of nothing.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next_bits = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for dim in [0usize, 1, 3, 4, 5, 4095, 4096, 4097, 100_003] {
        // Raw bit patterns: NaNs, infinities, subnormals, both zeros.
        let values: Vec<f64> = (0..dim).map(|_| f64::from_bits(next_bits())).collect();
        let bulk = || {
            vec![
                (0, WeightVector::new(values.clone()).into()),
                (5, WeightVector::zeros(3).into()),
            ]
        };
        let oracle = || {
            vec![
                (0, ElementWise(values.iter().map(|&x| Elem(x)).collect())),
                (5, ElementWise(vec![Elem(0.0), Elem(0.0), Elem(0.0)])),
            ]
        };
        let sac = to_bytes(&SacMsg::ShareBlock {
            round: 9,
            from_pos: 2,
            parts: bulk(),
        });
        let sac_oracle = to_bytes(&SacMirror::ShareBlock {
            round: 9,
            from_pos: 2,
            parts: oracle(),
        });
        assert!(sac == sac_oracle, "SacMsg encode differs at dim {dim}");

        // Decode through both paths, compare bit patterns (NaN != NaN).
        let SacMsg::ShareBlock { parts, .. } = from_bytes::<SacMsg>(&sac).unwrap() else {
            panic!("wrong variant");
        };
        let SacMirror::ShareBlock { parts: want, .. } = from_bytes::<SacMirror>(&sac).unwrap()
        else {
            panic!("wrong variant");
        };
        for ((p, got), (wp, want)) in parts.iter().zip(&want) {
            assert_eq!(p, wp);
            let want: Vec<u64> = want.0.iter().map(|e| e.0.to_bits()).collect();
            let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert!(got == want, "SacMsg decode differs at dim {dim}");
        }
    }
}

#[test]
fn frame_buffer_reassembles_one_byte_feeds() {
    // TCP can fragment arbitrarily — even splitting the 4-byte length
    // prefix. Feeding the buffer a byte at a time must still yield every
    // frame intact and in order, with no spurious frames in between.
    let payloads: Vec<Vec<u8>> = vec![
        to_bytes(&SacMsg::Begin { round: 1 }),
        Vec::new(), // zero-length frame: header-only
        to_bytes(&SacMsg::SubtotalRequest { round: 2, idx: 3 }),
    ];
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    for (i, b) in wire.iter().enumerate() {
        fb.extend(std::slice::from_ref(b));
        while let Some(frame) = fb.next_frame().unwrap() {
            got.push((i, frame.to_vec()));
        }
    }
    let frames: Vec<Vec<u8>> = got.iter().map(|(_, f)| f.clone()).collect();
    assert_eq!(frames, payloads);
    // Each frame must complete exactly on its final byte, not earlier.
    let mut boundary = 0;
    for ((at, _), p) in got.iter().zip(&payloads) {
        boundary += 4 + p.len();
        assert_eq!(*at, boundary - 1, "frame surfaced before its last byte");
    }
}

#[test]
fn frame_buffer_rejects_oversize_length_prefix() {
    // A length prefix one past MAX_FRAME must fail immediately — before
    // any payload bytes arrive — since the stream cannot be resynced.
    let mut fb = FrameBuffer::new();
    fb.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
    assert!(fb.next_frame().is_err(), "oversize frame not rejected");

    // Exactly MAX_FRAME is still legal: the buffer waits for the payload.
    let mut fb = FrameBuffer::new();
    fb.extend(&(MAX_FRAME as u32).to_le_bytes());
    assert!(matches!(fb.next_frame(), Ok(None)));

    // And the writer side enforces the same cap.
    let mut sink = Vec::new();
    assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
}

#[test]
fn max_size_share_vector_round_trips() {
    // A CNN-scale subtotal: ~420k parameters, the largest message the
    // workspace's experiments actually ship.
    let dim = 420_000;
    let value = WeightVector::new((0..dim).map(|i| (i as f64).sin()).collect());
    let msg = SacMsg::Subtotal {
        round: 7,
        idx: 2,
        value,
    };
    let bytes = to_bytes(&msg);
    assert!(bytes.len() < p2pfl_net::MAX_FRAME);
    let back = from_bytes::<SacMsg>(&bytes).unwrap();
    assert_eq!(back, msg);
}

/// Share blocks, subtotals and control messages, sent from every start
/// offset and received through a boundary at every offset: inside the
/// length prefix, inside each `u32` length field and variant index, and
/// inside each `f64`, with runs and staged vectors on both sides.
#[test]
fn pieces_from_every_offset_and_reads_cut_anywhere_rebuild_share_blocks_and_totals() {
    let v = |dim: usize, seed: f64| {
        WeightVector::new(
            (0..dim)
                .map(|i| f64::from_bits((seed + i as f64).to_bits() ^ 0x8000_0000_dead_beef))
                .collect(),
        )
    };
    let msgs = [
        SacMsg::ShareBlock {
            round: 7,
            from_pos: 2,
            parts: vec![
                (1, v(5, 0.5).into()),
                (2, v(0, 0.0).into()),
                (3, v(3, -2.0).into()),
            ],
        },
        SacMsg::Subtotal {
            round: 7,
            idx: 1,
            value: v(6, 9.0),
        },
        SacMsg::Begin { round: 3 },
        SacMsg::ShareBlock {
            round: 8,
            from_pos: 4,
            parts: vec![(0, v(4, 1.0).into()), (1, v(2, 3.0).into())],
        },
        SacMsg::Subtotal {
            round: 8,
            idx: 4,
            value: v(5, -1.0),
        },
        SacMsg::Shared {
            round: 8,
            from_pos: 1,
        },
    ];
    for msg in &msgs {
        let len = frame_len(msg, RUN_MIN).unwrap().wire_len();
        for from in 0..=len {
            for (cap, max) in [(1, 1), (5, 2), (17, 3), (64, 16)] {
                pieces_rebuild_the_frame(msg, from, cap, max);
            }
        }
        for cut in 0..len {
            piecewise_receive_matches_from_bytes(msg, &[cut, cut + 3, cut + 9]);
        }
    }
}

/// Serializes as a sequence of `blocks` runs of 8192 zeros: a frame
/// past `MAX_FRAME` from a few bytes of memory.
#[derive(Clone, serde::Deserialize)]
struct Oversized {
    blocks: u32,
}

impl Serialize for Oversized {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        static ZEROS: [f64; 8192] = [0.0; 8192];
        s.begin_seq(self.blocks as usize)?;
        for _ in 0..self.blocks {
            s.seq_element()?;
            s.ser_f64_seq(&ZEROS)?;
        }
        s.end_seq()
    }
}

impl Payload for Oversized {
    fn size_bytes(&self) -> u64 {
        u64::from(self.blocks) * 8 * 8192
    }
}

struct Ignore;

impl Actor<Oversized> for Ignore {
    fn on_message(&mut self, _: &mut dyn Transport<Oversized>, _: NodeId, _: Oversized) {}
}

#[test]
fn a_message_over_max_frame_is_counted_as_dropped_and_never_queued() {
    // 1024 runs of 64 KiB plus their length fields: just over 64 MiB.
    let huge = Oversized { blocks: 1024 };
    assert_eq!(frame_len(&huge, REACTOR_RUN_MIN), None);
    assert_eq!(to_frame_bytes(&huge), None);
    let fits = Oversized { blocks: 1 };
    assert_eq!(
        frame_len(&fits, REACTOR_RUN_MIN).map(|f| f.wire_len()),
        to_frame_bytes(&fits).map(|f| f.len())
    );

    let reactor: Reactor<Oversized, Ignore> = Reactor::start(ReactorConfig::default()).unwrap();
    let a = reactor.spawn_peer(NodeId(0), Ignore).unwrap();
    let b = reactor.spawn_peer(NodeId(1), Ignore).unwrap();
    a.add_peer(NodeId(1), reactor.local_addr());
    b.add_peer(NodeId(0), reactor.local_addr());
    a.with(move |_, ctx| ctx.send(NodeId(1), huge));
    let stats = a.stats();
    assert_eq!(stats.sends_dropped, 1, "{stats:?}");
    assert_eq!(stats.send_queue_peak, 0, "never queued: {stats:?}");
    assert_eq!(stats.frames_sent, 0, "{stats:?}");
}
