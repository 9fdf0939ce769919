//! Bounded per-link send queue — the reactor's backpressure primitive.
//!
//! Every (local peer, remote peer) link owns one [`SendQueue`] of
//! [`Frame`]s. A frame is its message, counted but never encoded whole:
//! as the connection takes it, its bytes are staged into the reactor's one
//! [`Stage`], except its `f64` runs of at least the 64 KiB read chunk,
//! which are written straight from the message's vectors. A batch offers
//! consecutive frames, so small frames share a staged slice.
//! The queue enforces *two* caps — a frame-count cap and a byte cap, on
//! frame lengths counted at send time — and refuses (never blocks, never
//! reorders) when either would be exceeded, counting the refusal so a
//! slow consumer shows up in
//! [`NetStats::sends_dropped`](crate::NetStats::sends_dropped) instead of
//! as unbounded memory. Frames stay queued until the connection has
//! written them *completely*, so a connection that dies mid-frame resends
//! from the frame boundary (the receiver discards the partial tail with
//! the dead connection's buffer). A message is done with once its frame's
//! last byte is written: its vectors then go to the reactor's vector pool
//! ([`Payload::recycle`]).
//!
//! This module is pure sans-IO state — no sockets, no clocks — so the
//! property tests in `tests/queue_props.rs` can drive it through millions
//! of randomized enqueue/flush/disconnect interleavings, and the
//! `p2pfl-lint` purity gate holds it to that.

use super::conn::{READ_CHUNK, WRITE_BATCH};
use super::sys;
use crate::codec::{self, Piece, PieceList, Pool};
use p2pfl_simnet::Payload;
use serde::Serialize;
use std::collections::VecDeque;

/// One queued frame: a message and the length of its wire frame.
#[derive(Debug, Clone)]
pub struct Frame<M> {
    msg: M,
    len: usize,
}

impl<M> Frame<M> {
    /// Length of the frame on the wire, prefix included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frame has no bytes (never true: a frame has its
    /// prefix).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The message, for a frame that will not be written.
    pub fn into_message(self) -> M {
        self.msg
    }
}

impl<M: Serialize> Frame<M> {
    /// `msg`'s frame, counted with [`codec::frame_len`], not encoded; the
    /// message back when it cannot be framed.
    pub fn new(msg: M) -> Result<Frame<M>, M> {
        match codec::frame_len(&msg) {
            Some(len) => Ok(Frame { msg, len }),
            None => Err(msg),
        }
    }
}

/// The buffer frames are staged into for a write — every byte but their
/// `f64` runs of at least the reactor's 64 KiB read chunk — at most a
/// fixed number of bytes a batch, shared by every queue of a reactor: it
/// holds the bytes of whichever queue offered a batch last.
#[derive(Debug)]
pub struct Stage {
    buf: Vec<u8>,
    cap: usize,
}

impl Stage {
    /// A stage for at most `cap` bytes a batch (floored at 1); it grows to
    /// what is staged.
    pub fn new(cap: usize) -> Stage {
        Stage {
            buf: Vec::new(),
            cap: cap.max(1),
        }
    }
}

/// A bounded FIFO of frames awaiting one connection.
#[derive(Debug)]
pub struct SendQueue<M> {
    frames: VecDeque<Frame<M>>,
    bytes: usize,
    max_frames: usize,
    max_bytes: usize,
    dropped: u64,
    peak_frames: usize,
    /// Bytes of `front()` already handed to the kernel; reset when the
    /// frame completes or the connection dies.
    head_written: usize,
}

impl<M> SendQueue<M> {
    /// An empty queue holding at most `max_frames` frames and `max_bytes`
    /// total frame bytes (caps are floored at 1 frame / 1 byte so a queue
    /// can always make progress).
    pub fn new(max_frames: usize, max_bytes: usize) -> SendQueue<M> {
        SendQueue {
            frames: VecDeque::new(),
            bytes: 0,
            max_frames: max_frames.max(1),
            max_bytes: max_bytes.max(1),
            dropped: 0,
            peak_frames: 0,
            head_written: 0,
        }
    }

    /// Appends `frame`, or refuses it (counting the drop, and giving it
    /// back) if either cap would be exceeded. An over-cap frame is only
    /// accepted into an empty queue if it alone fits the byte cap;
    /// oversized frames are refused outright rather than wedging the link.
    pub fn push(&mut self, frame: Frame<M>) -> Result<(), Frame<M>> {
        if self.frames.len() >= self.max_frames
            || self.bytes.saturating_add(frame.len) > self.max_bytes
        {
            self.dropped = self.dropped.saturating_add(1);
            return Err(frame);
        }
        self.bytes = self.bytes.saturating_add(frame.len);
        self.frames.push_back(frame);
        self.peak_frames = self.peak_frames.max(self.frames.len());
        Ok(())
    }

    /// Records that the connection accepted `n` more bytes of the batch,
    /// retiring every completely-written frame; a retired frame gives its
    /// message's vectors to `vectors`. Returns `(frames, bytes)` retired —
    /// the sender's `frames_sent` / `bytes_sent` deltas (bytes count whole
    /// retired frames, so a frame is never double-counted if a partial
    /// write is voided and rewritten after a reconnect).
    pub fn advance(&mut self, mut n: usize, vectors: &mut Pool<f64>) -> (usize, usize)
    where
        M: Payload,
    {
        let mut retired = 0;
        let mut retired_bytes = 0;
        while n > 0 {
            let Some(front) = self.frames.front() else {
                break;
            };
            let len = front.len;
            let remaining = len.saturating_sub(self.head_written);
            if n >= remaining {
                n -= remaining;
                self.bytes = self.bytes.saturating_sub(len);
                retired_bytes += len;
                if let Some(frame) = self.frames.pop_front() {
                    frame.msg.recycle(vectors);
                }
                self.head_written = 0;
                retired += 1;
            } else {
                self.head_written = self.head_written.saturating_add(n);
                n = 0;
            }
        }
        (retired, retired_bytes)
    }

    /// The connection died: any partial progress on the head frame is
    /// void (the receiver discarded the partial tail), so it will be
    /// rewritten from the start on the next connection.
    pub fn reset_progress(&mut self) {
        self.head_written = 0;
    }

    /// Queued frames (including a partially-written head).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total bytes of queued frames (not discounting partial progress).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Frames refused because a cap would have been exceeded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// High-water mark of the queue length, in frames.
    pub fn peak(&self) -> usize {
        self.peak_frames
    }
}

impl<M: Serialize> SendQueue<M> {
    /// The next vectored write: the frames it offers, and its slices. It
    /// offers consecutive frames from the head frame's first unwritten
    /// byte on, at most `max` of them, in at most 16 slices and as many
    /// bytes as `stage` takes: each `f64` run of at least the 64 KiB read
    /// chunk borrowed from its message, every other byte staged into
    /// `stage`, a frame's staged bytes in one slice with its neighbours'.
    /// A frame cut at the batch's end is offered from there by the next
    /// batch.
    pub fn batch<'a>(
        &'a self,
        max: usize,
        stage: &'a mut Stage,
    ) -> (usize, impl Iterator<Item = &'a [u8]> + 'a) {
        stage.buf.clear();
        let mut pieces = PieceList::new(WRITE_BATCH);
        let mut offered = 0;
        let mut from = self.head_written;
        for frame in self.frames.iter().take(max) {
            let end = codec::frame_pieces(
                &frame.msg,
                frame.len,
                from,
                READ_CHUNK,
                &mut stage.buf,
                stage.cap,
                &mut pieces,
            );
            offered += usize::from(end > from);
            if end < frame.len {
                break;
            }
            from = 0;
        }
        let stage: &'a Stage = stage;
        let staged = stage.buf.as_slice();
        let slices = pieces.into_iter().map(move |piece| match piece {
            Piece::Staged(range) => staged.get(range).unwrap_or_default(),
            Piece::Run(run, skip) => sys::f64_bytes(run).get(skip..).unwrap_or_default(),
        });
        (offered, slices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_secagg::{SacMsg, WeightVector};
    use std::sync::Arc;

    /// A small frame whose bytes tell `round` apart.
    fn begin(round: u64) -> Frame<SacMsg> {
        Frame::new(SacMsg::Begin { round }).unwrap()
    }

    fn wire(msg: &SacMsg) -> Vec<u8> {
        codec::to_frame_bytes(msg).unwrap()
    }

    /// A vector of `dim` drawn from `vectors`.
    fn drawn(vectors: &mut Pool<f64>, dim: usize) -> WeightVector {
        let mut storage = vectors.take(dim);
        storage.resize(dim, 0.0);
        WeightVector::new(storage)
    }

    fn subtotal(vectors: &mut Pool<f64>, dim: usize) -> SacMsg {
        let value = drawn(vectors, dim);
        SacMsg::Subtotal {
            round: 1,
            idx: 0,
            value,
        }
    }

    /// The next batch's frame count and slices, copied out.
    fn batch(q: &SendQueue<SacMsg>, max: usize, stage: &mut Stage) -> (usize, Vec<Vec<u8>>) {
        let (frames, slices) = q.batch(max, stage);
        (frames, slices.map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn caps_refuse_count_and_give_the_frame_back() {
        let len = begin(0).len();
        let mut q = SendQueue::new(2, 100);
        assert!(q.push(begin(1)).is_ok());
        assert!(q.push(begin(2)).is_ok());
        let refused = q.push(begin(3)).expect_err("frame cap");
        assert!(matches!(refused.into_message(), SacMsg::Begin { round: 3 }));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);

        let mut q = SendQueue::new(10, 2 * len - 1);
        assert!(q.push(begin(1)).is_ok());
        assert!(q.push(begin(2)).is_err(), "byte cap");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.bytes(), len);
    }

    #[test]
    fn a_frame_is_counted_not_encoded_and_an_unframeable_message_comes_back() {
        let msg = SacMsg::Begin { round: 7 };
        let frame = Frame::new(msg.clone()).unwrap();
        assert_eq!(frame.len(), wire(&msg).len());
        // Over `MAX_FRAME` as counted: the message is handed back.
        let huge = SacMsg::Subtotal {
            round: 1,
            idx: 0,
            value: WeightVector::zeros(codec::MAX_FRAME / 8 + 1),
        };
        assert!(matches!(Frame::new(huge), Err(SacMsg::Subtotal { .. })));
    }

    #[test]
    fn advance_retires_whole_frames_and_tracks_partials() {
        let mut stage = Stage::new(64);
        let mut q = SendQueue::new(8, 1 << 20);
        let (a, b) = (
            wire(&SacMsg::Begin { round: 1 }),
            wire(&SacMsg::Begin { round: 2 }),
        );
        q.push(begin(1)).unwrap();
        q.push(begin(2)).unwrap();
        // Partial head: 3 bytes written.
        assert_eq!(q.advance(3, &mut Pool::new()), (0, 0));
        let (frames, slices) = batch(&q, 4, &mut stage);
        assert_eq!(frames, 2);
        assert_eq!(
            slices,
            [[&a[3..], &b[..]].concat()],
            "head's tail, then the next, one slice"
        );
        // Finish head + 2 bytes of next.
        assert_eq!(q.advance(a.len() - 3 + 2, &mut Pool::new()), (1, a.len()));
        assert_eq!(q.len(), 1);
        assert_eq!(batch(&q, 4, &mut stage), (1, vec![b[2..].to_vec()]));
        assert_eq!(q.advance(b.len() - 2, &mut Pool::new()), (1, b.len()));
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
        assert_eq!(batch(&q, 4, &mut stage), (0, vec![]));
    }

    #[test]
    fn reset_progress_rewinds_to_frame_boundary() {
        let mut stage = Stage::new(64);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(begin(7)).unwrap();
        assert_eq!(q.advance(5, &mut Pool::new()), (0, 0));
        q.reset_progress();
        let (_, slices) = batch(&q, 1, &mut stage);
        assert_eq!(
            slices,
            [wire(&SacMsg::Begin { round: 7 })],
            "full frame offered again"
        );
    }

    #[test]
    fn frames_are_staged_up_to_the_stage_size_and_a_cut_frame_resumes_at_its_offset() {
        let msg = SacMsg::Commit {
            round: 1,
            from_pos: 0,
            digests: vec![0x0102_0304_0506_0708; 5],
        };
        let (head, commit) = (wire(&SacMsg::Begin { round: 9 }), wire(&msg));
        // Cuts the commit in the first batch; holds its rest and the
        // next frame in the second.
        let mut stage = Stage::new(head.len() + 64);
        assert!(commit.len() > 64 && commit.len() - 10 + head.len() <= head.len() + 64);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(begin(9)).unwrap();
        q.push(Frame::new(msg).unwrap()).unwrap();
        q.push(begin(9)).unwrap();
        let (frames, slices) = batch(&q, 8, &mut stage);
        assert_eq!(frames, 2, "the third frame is not reached");
        assert_eq!(slices, [[&head[..], &commit[..64]].concat()]);
        assert_eq!(
            q.advance(head.len() + 10, &mut Pool::new()),
            (1, head.len())
        );
        let (frames, slices) = batch(&q, 8, &mut stage);
        assert_eq!(frames, 2, "the cut frame's rest, then the next");
        assert_eq!(slices, [[&commit[10..], &head[..]].concat()]);
    }

    #[test]
    fn a_batch_holds_at_most_max_frames() {
        let mut stage = Stage::new(1 << 10);
        let mut q = SendQueue::new(8, 1 << 20);
        for round in 0..3 {
            q.push(begin(round)).unwrap();
        }
        let (frames, slices) = batch(&q, 2, &mut stage);
        assert_eq!(frames, 2);
        let want = [
            wire(&SacMsg::Begin { round: 0 }),
            wire(&SacMsg::Begin { round: 1 }),
        ];
        assert_eq!(slices, [want.concat()]);
        assert_eq!(batch(&q, 0, &mut stage), (0, vec![]));
    }

    #[test]
    fn a_bulk_run_is_offered_from_the_messages_own_vector_between_small_frames() {
        let mut vectors = Pool::new();
        let total = subtotal(&mut vectors, READ_CHUNK / 8);
        let SacMsg::Subtotal { value, .. } = &total else {
            unreachable!()
        };
        let at = value.as_slice().as_ptr().cast::<u8>();
        let (small, bulk) = (wire(&SacMsg::Begin { round: 1 }), wire(&total));
        let mut stage = Stage::new(1 << 10);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(begin(1)).unwrap();
        q.push(Frame::new(total).unwrap()).unwrap();
        q.push(begin(1)).unwrap();
        let (frames, slices) = q.batch(8, &mut stage);
        let slices: Vec<&[u8]> = slices.collect();
        assert_eq!(frames, 3);
        assert_eq!(
            slices.len(),
            3,
            "staged small frame and header, run, small frame"
        );
        assert_eq!(slices[1].as_ptr(), at, "the run is the vector's memory");
        assert_eq!(
            slices.concat(),
            [&small[..], &bulk[..], &small[..]].concat()
        );
        // From inside the run, cut mid-element.
        assert_eq!(q.advance(small.len() + 100, &mut vectors), (1, small.len()));
        let (frames, slices) = batch(&q, 8, &mut stage);
        assert_eq!(frames, 2);
        assert_eq!(slices, [bulk[100..].to_vec(), small.clone()]);
    }

    #[test]
    fn a_batch_holds_at_most_write_batch_slices() {
        // Each bulk frame is a staged header and a run: two slices.
        let mut vectors = Pool::new();
        let mut stage = Stage::new(1 << 10);
        let mut q = SendQueue::new(16, 1 << 30);
        for _ in 0..WRITE_BATCH / 2 + 1 {
            q.push(Frame::new(subtotal(&mut vectors, READ_CHUNK / 8)).unwrap())
                .unwrap();
        }
        let (frames, slices) = q.batch(WRITE_BATCH, &mut stage);
        assert_eq!(slices.count(), WRITE_BATCH);
        assert_eq!(
            frames,
            WRITE_BATCH / 2,
            "the last frame waits for the next batch"
        );
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = SendQueue::new(8, 1 << 20);
        for round in 0..3 {
            q.push(begin(round)).unwrap();
        }
        q.advance(usize::MAX, &mut Pool::new());
        assert!(q.is_empty());
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn a_message_gives_its_vectors_back_once_its_last_byte_is_written() {
        let mut vectors = Pool::new();
        let mut q = SendQueue::new(8, 1 << 20);
        let total = subtotal(&mut vectors, 16);
        let len = codec::frame_len(&total).unwrap();
        q.push(Frame::new(total).unwrap()).unwrap();
        q.push(begin(1)).unwrap();
        assert_eq!(q.advance(len - 1, &mut vectors), (0, 0));
        assert_eq!(vectors.kept(), 0, "given back before its last byte");
        assert_eq!(q.advance(1, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 16, "given back once written");
        let next = begin(1).len();
        assert_eq!(q.advance(next, &mut vectors), (1, next));
        assert_eq!(vectors.kept(), 16, "and only once");
    }

    #[test]
    fn a_voided_partial_write_gives_nothing_back() {
        let mut vectors = Pool::new();
        let mut q = SendQueue::new(8, 1 << 20);
        let total = subtotal(&mut vectors, 16);
        let len = codec::frame_len(&total).unwrap();
        q.push(Frame::new(total).unwrap()).unwrap();
        assert_eq!(q.advance(len - 1, &mut vectors), (0, 0));
        q.reset_progress();
        assert_eq!(q.advance(len - 1, &mut vectors), (0, 0));
        let rewritten = "the frame is written again from its start";
        assert_eq!(vectors.kept(), 0, "{rewritten}");
        assert_eq!(q.advance(1, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 16);
    }

    #[test]
    fn duplicate_copies_sharing_a_part_give_it_back_once() {
        // A fault plan's duplicate is a clone of the frame: its parts are
        // the same `Arc`s, so only the copy written last gives them back.
        let mut vectors = Pool::new();
        let mut q = SendQueue::new(8, 1 << 20);
        let part = Arc::new(drawn(&mut vectors, 16));
        let block = SacMsg::ShareBlock {
            round: 1,
            from_pos: 0,
            parts: vec![(0, Arc::clone(&part))],
        };
        let len = codec::frame_len(&block).unwrap();
        let frame = Frame::new(block).unwrap();
        q.push(frame.clone()).unwrap();
        q.push(frame).unwrap();
        drop(part);
        assert_eq!(q.advance(len, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 0, "the other copy still holds the part");
        assert_eq!(q.advance(len, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 16, "given back by the last copy");
    }
}
