//! Bounded per-link send queue — the reactor's backpressure primitive.
//!
//! Every (local peer, remote peer) link owns one [`SendQueue`] of
//! [`Frame`]s: the wire bytes of a small frame, encoded at send time, or a
//! large frame's message, which is never encoded whole: as the connection
//! takes it, its meta bytes are staged into the reactor's one [`Stage`]
//! and its `f64` runs are written straight from the message's vectors.
//! The queue enforces *two* caps — a frame-count cap and a byte cap, on
//! frame lengths counted at send time — and rejects (never blocks, never
//! reorders) when either
//! would be exceeded, counting the rejection so a slow consumer shows up
//! in [`NetStats::sends_dropped`](crate::NetStats::sends_dropped) instead
//! of as unbounded memory. Frames stay queued until the connection has
//! written them *completely*, so a connection that dies mid-frame resends
//! from the frame boundary (the receiver discards the partial tail with
//! the dead connection's buffer). A message is done with once its bytes
//! are: its vectors go to the reactor's vector pool
//! ([`Payload::recycle`]) when it is encoded whole at send time, or when
//! its frame's last byte is written.
//!
//! This module is pure sans-IO state — no sockets, no clocks — so the
//! property tests in `tests/queue_props.rs` can drive it through millions
//! of randomized enqueue/flush/disconnect interleavings, and the
//! `p2pfl-lint` purity gate holds it to that.

use super::conn::READ_CHUNK;
use super::sys;
use crate::codec::{self, Piece, Pool};
use p2pfl_simnet::Payload;
use serde::Serialize;
use std::collections::VecDeque;

/// One queued frame.
#[derive(Debug, Clone)]
pub enum Frame<M> {
    /// The frame's wire bytes, length prefix included.
    Bytes(Vec<u8>),
    /// A message, written piece by piece from itself as the connection
    /// takes it.
    Message {
        /// The message.
        msg: M,
        /// Length of its wire frame, prefix included.
        len: usize,
    },
}

impl<M> Frame<M> {
    /// Length of the frame on the wire, prefix included.
    pub fn len(&self) -> usize {
        match self {
            Frame::Bytes(bytes) => bytes.len(),
            Frame::Message { len, .. } => *len,
        }
    }

    /// Whether the frame has no bytes (never true of an encoded message).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<M: Payload + Serialize> Frame<M> {
    /// `msg`'s frame: its bytes, encoded now, if the frame is at most
    /// `eager` bytes long, or else the message itself. `None` when the
    /// message cannot be framed (see [`codec::frame_len`]). A message
    /// encoded now gives its vectors to `vectors`.
    pub fn new(msg: M, eager: usize, vectors: &mut Pool<f64>) -> Option<Frame<M>> {
        let len = codec::frame_len(&msg)?;
        if len > eager {
            return Some(Frame::Message { msg, len });
        }
        let bytes = codec::to_frame_bytes(&msg);
        msg.recycle(vectors);
        bytes.map(Frame::Bytes)
    }
}

/// The buffer a message frame's meta bytes — all but its `f64` runs of
/// at least the reactor's 64 KiB read chunk — are staged into for a
/// write, at most a fixed number of bytes at a time, shared by every
/// queue of a reactor: it holds the meta bytes of whichever queue offered
/// a batch last.
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

    /// Appends `frame`, or rejects it (counting the drop) if either cap
    /// would be exceeded. An over-cap frame is only accepted into an empty
    /// queue if it alone fits the byte cap; oversized frames are rejected
    /// outright rather than wedging the link.
    pub fn push(&mut self, frame: Frame<M>) -> bool {
        if self.frames.len() >= self.max_frames
            || self.bytes.saturating_add(frame.len()) > self.max_bytes
        {
            self.dropped = self.dropped.saturating_add(1);
            return false;
        }
        self.bytes = self.bytes.saturating_add(frame.len());
        self.frames.push_back(frame);
        self.peak_frames = self.peak_frames.max(self.frames.len());
        true
    }

    /// Records that the connection accepted `n` more bytes of the batch,
    /// retiring every completely-written frame; a retired message frame
    /// gives its message's vectors to `vectors`. Returns `(frames, bytes)`
    /// retired — the sender's `frames_sent` / `bytes_sent` deltas (bytes
    /// count whole retired frames, so a frame is never double-counted if
    /// a partial write is voided and rewritten after a reconnect).
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
            let len = front.len();
            let remaining = len.saturating_sub(self.head_written);
            if n >= remaining {
                n -= remaining;
                self.bytes = self.bytes.saturating_sub(len);
                retired_bytes += len;
                if let Some(Frame::Message { msg, .. }) = self.frames.pop_front() {
                    msg.recycle(vectors);
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

    /// Frames rejected because a cap would have been exceeded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// High-water mark of the queue length, in frames.
    pub fn peak(&self) -> usize {
        self.peak_frames
    }
}

impl<M: Serialize> SendQueue<M> {
    /// The pieces to offer the next vectored write: the unwritten tail of
    /// the head frame, then complete successors, up to `max` pieces in
    /// all. A message frame ends the batch: from its first unwritten byte
    /// on, it is offered as its `f64` runs of at least the 64 KiB read
    /// chunk, borrowed from the message, and its other bytes, staged into
    /// `stage` up to the stage's size.
    pub fn batch<'a>(
        &'a self,
        max: usize,
        stage: &'a mut Stage,
    ) -> impl Iterator<Item = &'a [u8]> + 'a {
        let head_written = self.head_written;
        let offered = self.frames.iter().take(max);
        let byte_frames = offered
            .clone()
            .take_while(|f| matches!(f, Frame::Bytes(_)))
            .count();
        stage.buf.clear();
        let pieces = match offered.clone().nth(byte_frames) {
            Some(Frame::Message { msg, len }) => {
                let start = if byte_frames == 0 { head_written } else { 0 };
                let room = max - byte_frames;
                codec::frame_pieces(
                    msg,
                    *len,
                    start,
                    READ_CHUNK,
                    &mut stage.buf,
                    stage.cap,
                    room,
                )
            }
            _ => Vec::new(),
        };
        let stage: &'a Stage = stage;
        let staged = stage.buf.as_slice();
        offered
            .take(byte_frames)
            .enumerate()
            .filter_map(move |(i, f)| match f {
                Frame::Bytes(bytes) => bytes.get(if i == 0 { head_written } else { 0 }..),
                Frame::Message { .. } => None,
            })
            .chain(pieces.into_iter().map(move |piece| match piece {
                Piece::Staged(range) => staged.get(range).unwrap_or_default(),
                Piece::Run(run, skip) => sys::f64_bytes(run).get(skip..).unwrap_or_default(),
            }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_secagg::{SacMsg, WeightVector};
    use std::sync::Arc;

    fn bytes(fill: u8, len: usize) -> Frame<SacMsg> {
        Frame::Bytes(vec![fill; len])
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

    #[test]
    fn caps_reject_and_count() {
        let mut q = SendQueue::new(2, 100);
        assert!(q.push(bytes(1, 10)));
        assert!(q.push(bytes(2, 10)));
        assert!(!q.push(bytes(3, 10)), "frame cap");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);

        let mut q = SendQueue::new(10, 15);
        assert!(q.push(bytes(1, 10)));
        assert!(!q.push(bytes(2, 10)), "byte cap");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.bytes(), 10);
    }

    #[test]
    fn advance_retires_whole_frames_and_tracks_partials() {
        let mut stage = Stage::new(64);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(bytes(1, 4));
        q.push(bytes(2, 6));
        // Partial head: 3 of 4 bytes written.
        assert_eq!(q.advance(3, &mut Pool::new()), (0, 0));
        let batch: Vec<&[u8]> = q.batch(4, &mut stage).collect();
        assert_eq!(batch[0], &[1u8; 1][..], "unwritten tail of head");
        assert_eq!(batch[1], &[2u8; 6][..]);
        // Finish head + 2 bytes of next.
        assert_eq!(q.advance(3, &mut Pool::new()), (1, 4));
        assert_eq!(q.len(), 1);
        assert_eq!(q.advance(4, &mut Pool::new()), (1, 6));
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn reset_progress_rewinds_to_frame_boundary() {
        let mut stage = Stage::new(64);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(bytes(7, 8));
        assert_eq!(q.advance(5, &mut Pool::new()), (0, 0));
        q.reset_progress();
        let batch: Vec<&[u8]> = q.batch(1, &mut stage).collect();
        assert_eq!(batch[0].len(), 8, "full frame offered again");
    }

    #[test]
    fn a_message_frame_is_staged_up_to_the_stage_size_and_ends_the_batch() {
        let msg = SacMsg::Commit {
            round: 1,
            from_pos: 0,
            digests: vec![0x0102_0304_0506_0708; 5],
        };
        let wire = codec::to_frame_bytes(&msg).unwrap();
        let mut stage = Stage::new(16);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(bytes(9, 3));
        q.push(Frame::new(msg.clone(), 0, &mut Pool::new()).unwrap());
        q.push(bytes(9, 3));
        let batch: Vec<Vec<u8>> = q.batch(8, &mut stage).map(<[u8]>::to_vec).collect();
        assert_eq!(batch, [vec![9; 3], wire[..16].to_vec()]);
        assert_eq!(q.advance(3 + 10, &mut Pool::new()), (1, 3));
        let batch: Vec<&[u8]> = q.batch(8, &mut stage).collect();
        assert_eq!(batch, [&wire[10..26]]);
        // Small frames are encoded eagerly, to the same bytes.
        let eager = Frame::new(msg, wire.len(), &mut Pool::new());
        assert!(matches!(eager, Some(Frame::Bytes(b)) if b == wire));
    }

    #[test]
    fn a_bulk_run_is_offered_from_the_messages_own_vector() {
        let mut vectors = Pool::new();
        let total = subtotal(&mut vectors, READ_CHUNK / 8);
        let SacMsg::Subtotal { value, .. } = &total else {
            unreachable!()
        };
        let at = value.as_slice().as_ptr().cast::<u8>();
        let wire = codec::to_frame_bytes(&total).unwrap();
        let mut stage = Stage::new(1 << 10);
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(Frame::new(total, READ_CHUNK, &mut vectors).unwrap());
        let batch: Vec<&[u8]> = q.batch(8, &mut stage).collect();
        assert_eq!(batch.len(), 2, "staged header, then the run");
        assert_eq!(batch[1].as_ptr(), at, "the run is the vector's memory");
        assert_eq!(batch.concat(), wire);
        // From inside the run, cut mid-element.
        assert_eq!(q.advance(100, &mut vectors), (0, 0));
        let batch: Vec<&[u8]> = q.batch(8, &mut stage).collect();
        assert_eq!(batch, [&wire[100..]]);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = SendQueue::new(8, 1 << 20);
        q.push(bytes(0, 1));
        q.push(bytes(0, 1));
        q.push(bytes(0, 1));
        q.advance(3, &mut Pool::new());
        assert!(q.is_empty());
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn a_message_gives_its_vectors_back_once_its_last_byte_is_written() {
        let mut vectors = Pool::new();
        let mut q = SendQueue::new(8, 1 << 20);
        let total = subtotal(&mut vectors, 16);
        let len = codec::frame_len(&total).unwrap();
        q.push(Frame::new(total, 0, &mut vectors).unwrap());
        q.push(bytes(1, 4));
        assert_eq!(q.advance(len - 1, &mut vectors), (0, 0));
        assert_eq!(vectors.kept(), 0, "given back before its last byte");
        assert_eq!(q.advance(1, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 16, "given back once written");
        assert_eq!(q.advance(4, &mut vectors), (1, 4));
        assert_eq!(vectors.kept(), 16, "and only once");
        // A message encoded at send time is done with at once.
        let total = subtotal(&mut vectors, 16);
        assert_eq!(vectors.kept(), 0);
        Frame::new(total, len, &mut vectors).unwrap();
        assert_eq!(vectors.kept(), 16);
    }

    #[test]
    fn a_voided_partial_write_gives_nothing_back() {
        let mut vectors = Pool::new();
        let mut q = SendQueue::new(8, 1 << 20);
        let total = subtotal(&mut vectors, 16);
        let len = codec::frame_len(&total).unwrap();
        q.push(Frame::new(total, 0, &mut vectors).unwrap());
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
        let frame = Frame::new(block, 0, &mut vectors).unwrap();
        q.push(frame.clone());
        q.push(frame);
        drop(part);
        assert_eq!(q.advance(len, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 0, "the other copy still holds the part");
        assert_eq!(q.advance(len, &mut vectors), (1, len));
        assert_eq!(vectors.kept(), 16, "given back by the last copy");
    }
}
