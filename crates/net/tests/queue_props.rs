//! Property tests for the reactor's bounded send queue — the
//! backpressure primitive every link hangs off.
//!
//! A reference model (an unbounded list of each frame's wire bytes plus
//! the same cap rules, executed naively) is driven through randomized
//! enqueue/write/disconnect interleavings alongside the real
//! [`SendQueue`]s of two links that share one [`Stage`], the way a
//! reactor's links do. Every frame is a message, small ones and ones with
//! a vector, whose bytes are staged, at most a stage's size a write, as
//! the link writes them (their vectors are under the run size, so every
//! byte is staged, and a batch is one staged slice). After every
//! operation each queue and its model must agree on length, byte total,
//! drop count, and what the next vectored batch would offer (its bytes
//! and its frame count), and the bytes a link has written so far must be
//! a prefix of its accepted frames' `to_frame_bytes`, in push order. The
//! invariants the reactor relies on:
//!
//! * Neither cap is ever exceeded, no matter the interleaving.
//! * Per-link FIFO: the batch is always a prefix of the accepted frames
//!   in push order — a reconnect (`reset_progress`) rewinds to the head
//!   frame's boundary but never reorders or skips, even mid-stage, and
//!   another link's bytes in the shared stage never leak in.
//! * Every refused push is counted, exactly once, and hands its frame
//!   back.
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
    /// Push a message on a link: with a vector of this many elements, or
    /// a small control message for 0.
    Push(usize, usize),
    /// A link's kernel accepted this many bytes of its current batch.
    Advance(usize, usize),
    /// A link's connection died: void partial progress on its head frame.
    Reset(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0usize..12).prop_map(|(l, dim)| Op::Push(l, dim)),
        (0usize..2, 0usize..80).prop_map(|(l, n)| Op::Advance(l, n)),
        (0usize..2).prop_map(Op::Reset),
    ]
}

/// Naive reference: frames as their wire bytes, same cap rules.
struct Model {
    /// Wire bytes of each queued frame.
    frames: Vec<Vec<u8>>,
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
        self.frames.iter().map(Vec::len).sum()
    }

    fn push(&mut self, frame: Vec<u8>) -> bool {
        if self.frames.len() >= self.max_frames || self.bytes() + frame.len() > self.max_bytes {
            self.dropped += 1;
            return false;
        }
        self.frames.push(frame);
        self.peak = self.peak.max(self.frames.len());
        true
    }

    fn advance(&mut self, mut n: usize) -> (usize, usize) {
        let (mut retired, mut retired_bytes) = (0, 0);
        while n > 0 && !self.frames.is_empty() {
            let remaining = self.frames[0].len() - self.head_written;
            if n >= remaining {
                n -= remaining;
                retired_bytes += self.frames[0].len();
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

    /// What a vectored write would be offered: the first `max` frames
    /// from the head's first unwritten byte on, cut to `window` bytes,
    /// and how many frames that reaches into.
    fn batch(&self, max: usize, window: usize) -> (usize, Vec<u8>) {
        let mut out = Vec::new();
        let mut frames = 0;
        for (i, f) in self.frames.iter().take(max).enumerate() {
            let room = window - out.len();
            if room == 0 {
                break;
            }
            let skip = if i == 0 { self.head_written } else { 0 };
            let rest = &f[skip..];
            out.extend_from_slice(&rest[..rest.len().min(room)]);
            frames += 1;
        }
        (frames, out)
    }
}

/// A message whose content encodes its sequence number, so FIFO
/// violations show up as content mismatches, not just length mismatches:
/// a subtotal of `dim` elements, or for 0 a small control message.
fn message(seq: usize, dim: usize) -> SacMsg {
    if dim == 0 {
        return SacMsg::SubtotalRequest {
            round: seq as u64,
            idx: seq % 7,
        };
    }
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

    fn push(&mut self, msg: SacMsg) {
        let wire = to_frame_bytes(&msg).expect("encodes");
        let frame = Frame::new(msg.clone()).expect("frames");
        assert_eq!(frame.len(), wire.len(), "counted frame length");
        let pushed = self.q.push(frame);
        assert_eq!(pushed.is_ok(), self.m.push(wire.clone()), "push disagreed");
        match pushed {
            Ok(()) => self.accepted.extend_from_slice(&wire),
            Err(refused) => assert_eq!(refused.into_message(), msg, "the refused frame"),
        }
    }

    /// The kernel takes `n` bytes of the batch (at most all of it).
    fn write(&mut self, n: usize, stage: &mut Stage, window: usize) {
        let (frames, slices) = self.q.batch(BATCH, stage);
        let slices: Vec<&[u8]> = slices.collect();
        assert!(
            slices.len() <= 1,
            "all staged: one slice, not {}",
            slices.len()
        );
        let offered = slices.concat();
        assert_eq!(
            (frames, offered.clone()),
            self.m.batch(BATCH, window),
            "batch diverged"
        );
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
            Op::Push(l, dim) => links[l].push(message(seq, dim)),
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
        max_bytes in 16usize..400,
        dims in prop::collection::vec(0usize..12, 0..12),
    ) {
        let mut q = SendQueue::<SacMsg>::new(max_frames, max_bytes);
        let mut accepted_bytes = 0usize;
        let mut accepted = 0usize;
        for (seq, dim) in dims.iter().enumerate() {
            let frame = Frame::new(message(seq, *dim)).expect("frames");
            let len = frame.len();
            if q.push(frame).is_ok() {
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
    let mut stage = Stage::new(1 << 10);
    let mut q = SendQueue::<SacMsg>::new(8, 1 << 20);
    let (m0, m1) = (message(0, 3), message(1, 0));
    let mut want = to_frame_bytes(&m0).expect("encodes");
    want.extend_from_slice(&to_frame_bytes(&m1).expect("encodes"));
    assert!(q.push(Frame::new(m0).expect("frames")).is_ok());
    assert!(q.push(Frame::new(m1).expect("frames")).is_ok());
    assert_eq!(
        q.advance(6, &mut Pool::new()),
        (0, 0),
        "partial head retires nothing"
    );
    q.reset_progress();
    let (frames, slices) = q.batch(8, &mut stage);
    let offered: Vec<u8> = slices.fold(Vec::new(), |mut a, s| {
        a.extend_from_slice(s);
        a
    });
    assert_eq!(frames, 2);
    assert_eq!(offered, want, "resend must restart at the frame boundary");
}
