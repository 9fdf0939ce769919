//! One multiplexed reactor connection: state machine and batched IO.
//!
//! A [`Link`] is a non-blocking `TcpStream` registered with the reactor's
//! poller. Dialed links start `Connecting` (completion is signalled by
//! writability plus a clean `SO_ERROR`); accepted links start `Open`.
//! Either end must see the other's hello before any payload: the dialer
//! opens with `hello(src, dst)`, and the acceptor, once it has attached
//! the connection to the hosted peer `dst`, answers `hello(dst, src)`.
//! The dialer holds its queue until that answer, so frames are only ever
//! written at a listener that hosts their destination — one that does not
//! (yet) closes the connection and the frames stay queued for the redial.
//!
//! The hello names the sender *and* the destination peer, because one
//! reactor listener fronts every peer it hosts:
//! `p2pf · 0x02 · src NodeId · dst NodeId` (13 bytes, framed like any
//! other frame; version 1, sender only, is no longer spoken and is
//! refused). Replies flow back over the same socket, so one TCP
//! connection carries a peer pair's traffic in both directions — at 1000
//! peers that halves the fd bill versus a socket per direction.
//!
//! Writes are vectored: [`flush_link`] offers the kernel up to
//! [`WRITE_BATCH`] queued frames (plus any unsent hello preamble) in one
//! `writev`, retiring only completely-written frames so a dying
//! connection never splits a frame across reconnects. A `writev` that
//! takes less than it was offered found the socket buffer full, so it
//! ends the flush pass until the poller reports writability again.
//! Every frame is queued as its message and never encoded on the
//! sending side: from the head frame's first unwritten byte on, the
//! frames of a batch have their `f64` runs (sequences of at least
//! [`RUN_MIN`](crate::codec::RUN_MIN) bytes, listed in each frame's run
//! table) offered from the messages' own vectors, and their other bytes
//! staged, neighbours' into one slice, into the reactor's one [`Stage`].
//! So the kernel copies a run out of the vector that holds it, and the
//! small frames of a batch go out as one staged slice.
//!
//! Every frame is received the same way, by the link's
//! [`FrameReceiver`]: prefixes, run tables and meta bytes through the
//! reactor's one [`READ_CHUNK`] scratch buffer into the receiver's
//! buffer, never past the next run of the frame being received, so many
//! small frames come in with one `read`; and each run straight from the
//! socket into a vector drawn for it from the reactor's vector pool. That
//! vector is the one the decoded message carries, so a received run
//! exists once, and receive memory is the vectors of the frames in
//! flight. A read shorter than it asked for drained the socket, and
//! polling is level-triggered, so [`read_some`] says so and, unless a
//! frame is half in, the reactor stops there instead of paying an empty
//! `read` to hear `WouldBlock`.

use super::queue::{SendQueue, Stage};
use super::stats::StatsCells;
use super::sys;
use crate::codec::{FrameReceiver, Landing, Pool, MAX_PIECES};
use p2pfl_simnet::{NodeId, Payload};
use serde::Serialize;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

/// Hello protocol version spoken between reactors.
const HELLO_V2: u8 = 2;
const HELLO_MAGIC: &[u8; 4] = b"p2pf";

/// Max frames, and max slices, offered to one vectored write.
pub(crate) const WRITE_BATCH: usize = MAX_PIECES;

/// Most bytes asked of the kernel per `read` of prefixes, run tables and
/// meta bytes.
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// Most bytes staged for one write: every byte of a batch's frames but
/// their runs. A bulk frame has a few dozen (a share block's header and
/// part indices), a small frame all of its own; the cap bounds the stage
/// for a batch of many such bytes, which is offered this many at a time.
pub(crate) const STAGE_META: usize = 256 << 10;

/// Bytes of a v2 hello payload: the length prefix of a link's first
/// frame.
pub(crate) const HELLO_LEN: u32 = 13;

/// Builds the framed v2 hello announcing `src` dialing `dst`.
pub(crate) fn hello_frame_v2(src: NodeId, dst: NodeId) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + 13);
    framed.extend_from_slice(&HELLO_LEN.to_le_bytes());
    framed.extend_from_slice(HELLO_MAGIC);
    framed.push(HELLO_V2);
    framed.extend_from_slice(&src.0.to_le_bytes());
    framed.extend_from_slice(&dst.0.to_le_bytes());
    framed
}

/// Parses a v2 hello payload into `(src, dst)`.
pub(crate) fn parse_hello_v2(frame: &[u8]) -> Option<(NodeId, NodeId)> {
    if frame.len() != 13 {
        return None;
    }
    let (magic, rest) = frame.split_first_chunk::<4>()?;
    let (version, rest) = rest.split_first()?;
    if magic != HELLO_MAGIC || *version != HELLO_V2 {
        return None;
    }
    let (src, dst) = rest.split_first_chunk::<4>()?;
    let dst = <[u8; 4]>::try_from(dst).ok()?;
    Some((
        NodeId(u32::from_le_bytes(*src)),
        NodeId(u32::from_le_bytes(dst)),
    ))
}

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkState {
    /// Non-blocking connect in flight; waiting for writability.
    Connecting,
    /// Established; frames flow.
    Open,
}

/// One registered connection.
pub(crate) struct Link {
    pub(crate) stream: TcpStream,
    pub(crate) state: LinkState,
    /// The hosted peer that owns this link (dialer side: set at dial;
    /// accepted side: learned from the hello's `dst`).
    pub(crate) local: Option<NodeId>,
    /// The peer on the other end (dialer side: the dial target; accepted
    /// side: the hello's `src`).
    pub(crate) remote: Option<NodeId>,
    /// Whether this end initiated the connection (and thus owns redial).
    pub(crate) dialed: bool,
    /// Whether the other end's hello has arrived; payload moves in
    /// neither direction before it.
    pub(crate) got_hello: bool,
    pub(crate) rx: FrameReceiver,
    /// Unsent tail of this end's hello: (bytes, offset).
    pub(crate) preamble: Option<(Vec<u8>, usize)>,
    /// Whether the poller registration currently includes writability.
    pub(crate) want_write: bool,
}

impl Link {
    pub(crate) fn dialed(stream: TcpStream, local: NodeId, remote: NodeId) -> Link {
        Link {
            stream,
            state: LinkState::Connecting,
            local: Some(local),
            remote: Some(remote),
            dialed: true,
            got_hello: false,
            rx: FrameReceiver::new(),
            preamble: Some((hello_frame_v2(local, remote), 0)),
            want_write: true,
        }
    }

    pub(crate) fn accepted(stream: TcpStream) -> Link {
        Link {
            stream,
            state: LinkState::Open,
            local: None,
            remote: None,
            dialed: false,
            got_hello: false,
            rx: FrameReceiver::new(),
            preamble: None,
            want_write: false,
        }
    }
}

/// Outcome of one flush attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushOutcome {
    /// Everything queued is on the wire.
    Drained,
    /// The kernel buffer filled; writability must be awaited.
    Blocked,
    /// The connection is unusable.
    Dead,
}

/// Writes as much of `queue` (preceded by any hello preamble; held back
/// until the other end's hello is in) as the kernel will take, in
/// vectored batches, staging the frames' bytes but their runs into
/// `stage`. A batch the kernel takes only part of ends the pass
/// (`Blocked`), as a short read does in [`read_some`]: the socket buffer
/// is full, so the next batch is staged once writability is back, not
/// now to hear `WouldBlock`. Retired frames are counted into `stats`
/// (`frames_sent`, `bytes_sent`, and `frames_coalesced` for frames whose
/// `writev` offered another frame too), and retired messages give their
/// vectors to `vectors`.
pub(crate) fn flush_link<M: Payload + Serialize>(
    link: &mut Link,
    queue: &mut SendQueue<M>,
    stage: &mut Stage,
    vectors: &mut Pool,
    stats: &StatsCells,
) -> FlushOutcome {
    loop {
        // On the stack: a busy reactor makes thousands of flush passes a
        // round.
        let mut slots = [IoSlice::new(&[]); WRITE_BATCH + 1];
        let preamble = link
            .preamble
            .as_ref()
            .and_then(|(bytes, off)| bytes.get(*off..))
            .unwrap_or_default();
        let (queued_frames, slices) =
            queue.batch(if link.got_hello { WRITE_BATCH } else { 0 }, stage);
        let pieces = std::iter::once(preamble)
            .filter(|p| !p.is_empty())
            .chain(slices);
        let mut len = 0;
        for (slot, piece) in slots.iter_mut().zip(pieces) {
            *slot = IoSlice::new(piece);
            len += 1;
        }
        let bufs = slots.get(..len).unwrap_or_default();
        if bufs.is_empty() {
            return FlushOutcome::Drained;
        }
        let preamble_len = preamble.len();
        let offered: usize = bufs.iter().map(|b| b.len()).sum();
        match link.stream.write_vectored(bufs) {
            Ok(0) => return FlushOutcome::Dead,
            Ok(n) => {
                // Preamble bytes come first; the remainder advances the
                // frame queue.
                let to_preamble = n.min(preamble_len);
                if to_preamble > 0 {
                    if let Some((bytes, off)) = link.preamble.as_mut() {
                        *off = off.saturating_add(to_preamble);
                        if *off >= bytes.len() {
                            link.preamble = None;
                        }
                    }
                }
                let (retired, retired_bytes) =
                    queue.advance(n.saturating_sub(to_preamble), vectors);
                if retired > 0 {
                    stats
                        .frames_sent
                        .fetch_add(retired as u64, Ordering::Relaxed);
                    stats
                        .bytes_sent
                        .fetch_add(retired_bytes as u64, Ordering::Relaxed);
                    if queued_frames > 1 {
                        stats
                            .frames_coalesced
                            .fetch_add(retired as u64, Ordering::Relaxed);
                    }
                }
                // A short write filled the kernel buffer: staging the
                // next batch now would only hear `WouldBlock`.
                if n < offered {
                    return FlushOutcome::Blocked;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return FlushOutcome::Dead,
        }
    }
}

/// Outcome of one read attempt on a readable connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadStatus {
    /// The read took all it asked for, or went into a run; more may be
    /// waiting.
    Full,
    /// The read returned less than it asked for: the kernel buffer was
    /// drained when it ran.
    Short,
    /// The socket has nothing more for now; the connection is still open.
    Drained,
    /// Clean EOF or fatal read error.
    Closed,
}

/// Reads once into the link's receiver: a run's bytes straight into the
/// run's vector, drawn from `vectors`, and other bytes through `scratch`,
/// the reactor's shared read chunk.
pub(crate) fn read_some(link: &mut Link, scratch: &mut [u8], vectors: &mut Pool) -> ReadStatus {
    loop {
        let stream = &mut link.stream;
        let mut status = ReadStatus::Full;
        let read = link.rx.receive(vectors, scratch, |landing| match landing {
            Landing::Meta(buf) => {
                let asked = buf.len();
                let n = stream.read(buf)?;
                if n < asked {
                    status = ReadStatus::Short;
                }
                Ok(n)
            }
            // Mid-frame, the rest is on its way: read on.
            Landing::Run(run, filled) => {
                let bytes = sys::f64_bytes_mut(run);
                stream.read(bytes.get_mut(filled..).unwrap_or_default())
            }
        });
        return match read {
            Ok(0) => ReadStatus::Closed,
            Ok(_) => status,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStatus::Drained,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => ReadStatus::Closed,
        };
    }
}

/// Finishes a non-blocking connect once the socket reports writable:
/// checks `SO_ERROR` and promotes the link to `Open`.
pub(crate) fn complete_connect(link: &mut Link) -> io::Result<()> {
    sys::take_socket_error(&link.stream)?;
    let _ = link.stream.set_nodelay(true);
    link.state = LinkState::Open;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::queue::Frame;
    use p2pfl_secagg::{SacMsg, WeightVector};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Flushes `msgs` as one queue through a loopback connection whose
    /// blocking socket takes each batch whole, and returns the stats.
    fn flush(msgs: Vec<SacMsg>) -> StatsCells {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        let drain = std::thread::spawn(move || io::copy(&mut reader, &mut io::sink()).unwrap());
        let mut link = Link::accepted(writer);
        link.got_hello = true;
        let mut queue = SendQueue::new(64, 1 << 30);
        for msg in msgs {
            queue.push(Frame::new(msg).unwrap()).unwrap();
        }
        let stats = StatsCells::default();
        let mut stage = Stage::new(STAGE_META);
        let outcome = flush_link(&mut link, &mut queue, &mut stage, &mut Pool::new(), &stats);
        assert_eq!(outcome, FlushOutcome::Drained);
        drop(link);
        drain.join().unwrap();
        stats
    }

    #[test]
    fn a_lone_bulk_frame_is_not_coalesced() {
        // A staged header and a run: two slices, one frame.
        let total = SacMsg::Subtotal {
            round: 1,
            idx: 0,
            value: WeightVector::zeros(crate::codec::RUN_MIN / 8 + 1),
        };
        let stats = flush(vec![total]);
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_coalesced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn small_frames_sharing_a_writev_are_each_coalesced() {
        let stats = flush((0..5).map(|round| SacMsg::Begin { round }).collect());
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 5);
        assert_eq!(stats.frames_coalesced.load(Ordering::Relaxed), 5);
    }

    /// A message whose every serialization is counted.
    #[derive(Debug, Clone)]
    struct Walked(Vec<u64>, Arc<AtomicUsize>);

    impl Payload for Walked {
        fn size_bytes(&self) -> u64 {
            0
        }
    }

    impl Serialize for Walked {
        fn serialize<'v, S: serde::Serializer<'v> + ?Sized>(
            &'v self,
            s: &mut S,
        ) -> Result<(), S::Error> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.serialize(s)
        }
    }

    #[test]
    fn a_short_write_ends_the_pass_with_each_offered_frame_walked_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // Accepted and never read, so the socket buffer fills.
        let (_reader, _) = listener.accept().unwrap();
        writer.set_nonblocking(true).unwrap();
        let mut link = Link::accepted(writer);
        link.got_hello = true;
        let (mut stage, mut vectors) = (Stage::new(STAGE_META), Pool::new());
        let (stats, mut queue) = (
            StatsCells::default(),
            SendQueue::new(usize::MAX, usize::MAX),
        );
        // 8 KiB frames, 64 at a time, until a pass ends in a short write.
        for _ in 0..1024 {
            let walks: Vec<_> = (0..64).map(|_| Arc::new(AtomicUsize::new(0))).collect();
            for w in &walks {
                let frame = Frame::new(Walked(vec![7; 1024], w.clone())).unwrap();
                queue.push(frame).unwrap();
                w.store(0, Ordering::Relaxed);
            }
            match flush_link(&mut link, &mut queue, &mut stage, &mut vectors, &stats) {
                FlushOutcome::Drained => continue,
                FlushOutcome::Blocked => {
                    let walked: Vec<usize> =
                        walks.iter().map(|w| w.load(Ordering::Relaxed)).collect();
                    assert!(
                        walked.iter().all(|&n| n <= 1),
                        "walks per frame: {walked:?}"
                    );
                    assert!(walked.contains(&1), "no frame was offered");
                    assert!(!queue.is_empty(), "a short write leaves frames queued");
                    return;
                }
                FlushOutcome::Dead => panic!("the connection died"),
            }
        }
        panic!("512 MiB went out and the socket never filled");
    }

    #[test]
    fn hello_v2_round_trips() {
        let framed = hello_frame_v2(NodeId(7), NodeId(1042));
        assert_eq!(framed[..4], HELLO_LEN.to_le_bytes());
        assert_eq!(
            parse_hello_v2(&framed[4..]),
            Some((NodeId(7), NodeId(1042)))
        );
    }

    #[test]
    fn hello_v2_rejects_v1_and_garbage() {
        // A v1 hello (9 bytes) must not parse as v2.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"p2pf");
        v1.push(1);
        v1.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(parse_hello_v2(&v1), None);
        assert_eq!(parse_hello_v2(b"xxxxyyyyzzzzz"), None);
        assert_eq!(parse_hello_v2(&[]), None);
    }
}
