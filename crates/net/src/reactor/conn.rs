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
//! connection never splits a frame across reconnects.
//!
//! Reads go through the reactor's one [`READ_CHUNK`] scratch buffer into
//! the link's [`FrameBuffer`]. A read shorter than the chunk drained the
//! socket, and polling is level-triggered, so [`read_some`] says so and,
//! unless a frame is half in, the reactor stops there instead of paying
//! an empty `read` to hear `WouldBlock`. A frame over the chunk is
//! *bulk*: once its header is in, the rest of it is read from the socket
//! straight into storage the reactor's [`BulkPool`] lends the link, with
//! no hop through the scratch chunk, and the storage goes back to the
//! pool once the frame is delivered. The pool keeps released storage for
//! the next bulk frame, never more than the links held at once, so
//! receive memory follows the frames in flight, not links x the largest
//! frame each ever carried, and a steady round allocates none.

use super::queue::SendQueue;
use super::stats::StatsCells;
use super::sys;
use crate::codec::{BulkPool, FrameBuffer};
use p2pfl_simnet::NodeId;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

/// Hello protocol version spoken between reactors.
const HELLO_V2: u8 = 2;
const HELLO_MAGIC: &[u8; 4] = b"p2pf";

/// Max frames offered to one vectored write.
pub(crate) const WRITE_BATCH: usize = 16;

/// Bytes asked of the kernel per `read`, and the size above which a frame
/// is bulk and its storage leaves the link once delivered.
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// Builds the framed v2 hello announcing `src` dialing `dst`.
pub(crate) fn hello_frame_v2(src: NodeId, dst: NodeId) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + 13);
    framed.extend_from_slice(&13u32.to_le_bytes());
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
    pub(crate) rx: FrameBuffer,
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
            rx: FrameBuffer::new(),
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
            rx: FrameBuffer::new(),
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
/// vectored batches. Retired frames are counted into
/// `stats` (`frames_sent`, `bytes_sent`, and `frames_coalesced` for
/// frames that shared a `writev` with another frame).
pub(crate) fn flush_link(
    link: &mut Link,
    queue: &mut SendQueue,
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
        let frames = queue.batch(if link.got_hello { WRITE_BATCH } else { 0 });
        let pieces = std::iter::once(preamble)
            .filter(|p| !p.is_empty())
            .chain(frames);
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
        let queued_frames = bufs.len().saturating_sub(usize::from(preamble_len > 0));
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
                let (retired, retired_bytes) = queue.advance(n.saturating_sub(to_preamble));
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
    /// The read filled the scratch chunk or completed a bulk frame; more
    /// may be waiting.
    Full,
    /// The read returned less than the chunk: the kernel buffer was
    /// drained when it ran.
    Short,
    /// The socket has nothing more for now; the connection is still open.
    Drained,
    /// Clean EOF or fatal read error.
    Closed,
}

/// Reads once into the link's frame buffer: the rest of a bulk frame
/// whose header is in straight into the storage it took from `pool`, as
/// much as the socket has up to the frame's end, and anything else
/// through `scratch`, the reactor's shared read chunk.
pub(crate) fn read_some(link: &mut Link, scratch: &mut [u8], pool: &mut BulkPool) -> ReadStatus {
    if let Some(read) = link.rx.read_bulk(&mut link.stream, READ_CHUNK, pool) {
        return match read {
            Ok(true) => ReadStatus::Full,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStatus::Drained,
            Ok(false) | Err(_) => ReadStatus::Closed,
        };
    }
    loop {
        match link.stream.read(scratch) {
            Ok(0) => return ReadStatus::Closed,
            // `n <= scratch.len()` per the `Read` contract; `get` keeps a
            // misbehaving implementation from panicking the reactor.
            Ok(n) => {
                let bytes = scratch.get(..n).unwrap_or(scratch);
                link.rx.extend_with_pool(bytes, READ_CHUNK, pool);
                return if n < scratch.len() {
                    ReadStatus::Short
                } else {
                    ReadStatus::Full
                };
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStatus::Drained,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadStatus::Closed,
        }
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

    #[test]
    fn hello_v2_round_trips() {
        let framed = hello_frame_v2(NodeId(7), NodeId(1042));
        // Strip the length prefix to get the payload a FrameBuffer yields.
        let mut fb = FrameBuffer::new();
        fb.extend(&framed);
        let payload = fb.next_frame().unwrap().unwrap();
        assert_eq!(parse_hello_v2(payload), Some((NodeId(7), NodeId(1042))));
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
