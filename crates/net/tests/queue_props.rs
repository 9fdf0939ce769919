//! Property tests for the reactor's bounded send queue — the
//! backpressure primitive every link hangs off.
//!
//! A reference model (an unbounded list of each frame's wire bytes plus
//! the same cap rules, executed naively) is driven through randomized
//! enqueue/write/disconnect interleavings alongside the real
//! [`SendQueue`]s of two links that share one [`Stage`], the way a
//! reactor's links do. Frames are of both kinds: bytes encoded at send
//! time, and messages whose bytes are staged, at most a stage's size a
//! write, as the link writes them (their vectors are under the run size,
//! so every byte is staged). After every operation each queue and its model must agree on length,
//! byte total, drop count, and what the next vectored batch would offer,
//! and the bytes a link has written so far must be a prefix of its
//! accepted frames' `to_frame_bytes`, in push order. The invariants the
//! reactor relies on:
//!
//! * Neither cap is ever exceeded, no matter the interleaving.
//! * Per-link FIFO: the batch is always a prefix of the accepted frames
//!   in push order — a reconnect (`reset_progress`) rewinds to the head
//!   frame's boundary but never reorders or skips, even mid-stage, and
//!   another link's bytes in the shared stage never leak in.
//! * Every rejected push is counted, exactly once.
//! * `advance` retires a frame exactly when its full length has been
//!   written since it became head, and reports whole frames only.

use p2pfl_net::codec::{to_frame_bytes, Pool};
use p2pfl_net::reactor::{Frame, SendQueue, Stage};
use p2pfl_secagg::{SacMsg, WeightVector};
use proptest::prelude::*;

/// Frames offered to one write, as the reactor's `WRITE_BATCH`.
const BATCH: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    /// Push a byte frame of this many bytes (pattern-filled for content
    /// checks) on a link.
    Push(usize, usize),
    /// Push a message with this many elements on a link, kept as the
    /// message if its frame is over the given length.
    PushMsg(usize, usize, usize),
    /// A link's kernel accepted this many bytes of its current batch.
    Advance(usize, usize),
    /// A link's connection died: void partial progress on its head frame.
    Reset(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 1usize..40).prop_map(|(l, len)| Op::Push(l, len)),
        (0usize..2, 0usize..12, 0usize..80).prop_map(|(l, dim, eager)| Op::PushMsg(l, dim, eager)),
        (0usize..2, 0usize..80).prop_map(|(l, n)| Op::Advance(l, n)),
        (0usize..2).prop_map(Op::Reset),
    ]
}

/// Naive reference: frames as their wire bytes, same cap rules.
struct Model {
    /// Wire bytes of each queued frame, and whether it is a message.
    frames: Vec<(Vec<u8>, bool)>,
    head_written: usize,
    dropped: u64,
    peak: usize,
    max_frames: usize,
    max_bytes: usize,
}

impl Model {
    fn new(max_frames: usize, max_bytes: usize) -> Model {
        Model {
            frames: Vec::new(),
            head_written: 0,
            dropped: 0,
            peak: 0,
            max_frames: max_frames.max(1),
            max_bytes: max_bytes.max(1),
        }
    }

    fn bytes(&self) -> usize {
        self.frames.iter().map(|(f, _)| f.len()).sum()
    }

    fn push(&mut self, frame: Vec<u8>, message: bool) -> bool {
        if self.frames.len() >= self.max_frames || self.bytes() + frame.len() > self.max_bytes {
            self.dropped += 1;
            return false;
        }
        self.frames.push((frame, message));
        self.peak = self.peak.max(self.frames.len());
        true
    }

    fn advance(&mut self, mut n: usize) -> (usize, usize) {
        let (mut retired, mut retired_bytes) = (0, 0);
        while n > 0 && !self.frames.is_empty() {
            let remaining = self.frames[0].0.len() - self.head_written;
            if n >= remaining {
                n -= remaining;
                retired_bytes += self.frames[0].0.len();
                retired += 1;
                self.frames.remove(0);
                self.head_written = 0;
            } else {
                self.head_written += n;
                n = 0;
            }
        }
        (retired, retired_bytes)
    }

    /// What a vectored write would be offered, concatenated: byte frames
    /// up to the first message, then one window of that message.
    fn batch_bytes(&self, max: usize, window: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, (f, message)) in self.frames.iter().take(max).enumerate() {
            let skip = if i == 0 { self.head_written } else { 0 };
            let end = if *message {
                f.len().min(skip + window)
            } else {
                f.len()
            };
            out.extend_from_slice(&f[skip..end]);
            if *message {
                break;
            }
        }
        out
    }
}

/// A frame whose content encodes its sequence number, so FIFO violations
/// show up as content mismatches, not just length mismatches.
fn frame(seq: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq.wrapping_add(i) & 0xff) as u8)
        .collect()
}

/// A subtotal whose round and elements encode its sequence number.
fn message(seq: usize, dim: usize) -> SacMsg {
    SacMsg::Subtotal {
        round: seq as u64,
        idx: dim,
        value: WeightVector::new((0..dim).map(|i| (seq * 31 + i) as f64 * -1.5).collect()),
    }
}

/// One link: its queue, its model, every frame it accepted (as wire
/// bytes), and the stream its connection has written since it opened.
struct Link {
    q: SendQueue<SacMsg>,
    m: Model,
    accepted: Vec<u8>,
    retired: usize,
    written: Vec<u8>,
}

impl Link {
    fn new(max_frames: usize, max_bytes: usize) -> Link {
        Link {
            q: SendQueue::new(max_frames, max_bytes),
            m: Model::new(max_frames, max_bytes),
            accepted: Vec::new(),
            retired: 0,
            written: Vec::new(),
        }
    }

    fn push(&mut self, frame: Frame<SacMsg>, wire: Vec<u8>) {
        let message = matches!(frame, Frame::Message { .. });
        assert_eq!(frame.len(), wire.len(), "counted frame length");
        let accepted = self.q.push(frame);
        assert_eq!(
            accepted,
            self.m.push(wire.clone(), message),
            "push disagreed"
        );
        if accepted {
            self.accepted.extend_from_slice(&wire);
        }
    }

    /// The kernel takes `n` bytes of the batch (at most all of it).
    fn write(&mut self, n: usize, stage: &mut Stage, window: usize) {
        let offered: Vec<u8> = self.q.batch(BATCH, stage).flatten().copied().collect();
        assert_eq!(offered, self.m.batch_bytes(BATCH, window), "batch diverged");
        let n = n.min(offered.len());
        self.written.extend_from_slice(&offered[..n]);
        let (frames, bytes) = self.q.advance(n, &mut Pool::new());
        assert_eq!((frames, bytes), self.m.advance(n), "advance({n}) disagreed");
        self.retired += bytes;
    }

    /// The connection died: the receiver keeps whole frames only.
    fn reset(&mut self) {
        self.q.reset_progress();
        self.m.head_written = 0;
        self.written.truncate(self.retired);
    }

    fn check(&self, max_frames: usize, max_bytes: usize) {
        // Caps hold after *every* operation.
        assert!(self.q.len() <= max_frames.max(1), "frame cap exceeded");
        assert!(self.q.bytes() <= max_bytes.max(1), "byte cap exceeded");
        // Full-state agreement with the model.
        assert_eq!(self.q.len(), self.m.frames.len());
        assert_eq!(self.q.bytes(), self.m.bytes());
        assert_eq!(self.q.dropped(), self.m.dropped);
        assert_eq!(self.q.peak(), self.m.peak);
        assert_eq!(self.q.is_empty(), self.m.frames.is_empty());
        // FIFO + content: the stream so far is the frames' wire bytes.
        assert!(
            self.accepted.starts_with(&self.written),
            "written stream diverged from the frames' to_frame_bytes"
        );
    }
}

fn check_against_model(max_frames: usize, max_bytes: usize, window: usize, ops: &[Op]) {
    let mut stage = Stage::new(window);
    let mut links = [
        Link::new(max_frames, max_bytes),
        Link::new(max_frames, max_bytes),
    ];
    for (seq, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(l, len) => {
                let f = frame(seq, len);
                links[l].push(Frame::Bytes(f.clone()), f);
            }
            Op::PushMsg(l, dim, eager) => {
                let msg = message(seq, dim);
                let wire = to_frame_bytes(&msg).expect("encodes");
                links[l].push(
                    Frame::new(msg, eager, &mut Pool::new()).expect("frames"),
                    wire,
                );
            }
            Op::Advance(l, n) => links[l].write(n, &mut stage, window),
            Op::Reset(l) => links[l].reset(),
        }
        for link in &links {
            link.check(max_frames, max_bytes);
        }
    }
    // Drained, each link wrote exactly its accepted frames.
    for link in &mut links {
        while !link.q.is_empty() {
            link.write(usize::MAX, &mut stage, window);
        }
        assert_eq!(link.written, link.accepted, "drained stream");
    }
}

proptest! {
    #[test]
    fn random_interleavings_match_reference_model(
        max_frames in 1usize..6,
        max_bytes in 1usize..400,
        window in 1usize..48,
        ops in prop::collection::vec(arb_op(), 0..120),
    ) {
        check_against_model(max_frames, max_bytes, window, &ops);
    }

    #[test]
    fn unbounded_advance_always_drains(
        max_frames in 1usize..6,
        max_bytes in 16usize..120,
        lens in prop::collection::vec(1usize..30, 0..12),
    ) {
        let mut q = SendQueue::<SacMsg>::new(max_frames, max_bytes);
        let mut accepted_bytes = 0usize;
        let mut accepted = 0usize;
        for (seq, len) in lens.iter().enumerate() {
            if q.push(Frame::Bytes(frame(seq, *len))) {
                accepted += 1;
                accepted_bytes += len;
            }
        }
        prop_assert_eq!(q.advance(usize::MAX, &mut Pool::new()), (accepted, accepted_bytes));
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.bytes(), 0);
    }
}

/// Disconnect mid-frame, reconnect, and the exact same frame bytes come
/// back from the start — the at-least-once boundary the receiver's
/// per-connection [`FrameBuffer`](p2pfl_net::FrameBuffer) discard pairs
/// with.
#[test]
fn reconnect_resends_partial_head_from_frame_boundary() {
    let mut stage = Stage::new(64);
    let mut q = SendQueue::<SacMsg>::new(8, 1 << 20);
    let f0 = frame(0, 10);
    let f1 = frame(1, 7);
    assert!(q.push(Frame::Bytes(f0.clone())));
    assert!(q.push(Frame::Bytes(f1.clone())));
    assert_eq!(
        q.advance(6, &mut Pool::new()),
        (0, 0),
        "partial head retires nothing"
    );
    q.reset_progress();
    let offered: Vec<u8> = q.batch(8, &mut stage).fold(Vec::new(), |mut a, s| {
        a.extend_from_slice(s);
        a
    });
    let mut want = f0;
    want.extend_from_slice(&f1);
    assert_eq!(offered, want, "resend must restart at the frame boundary");
}
