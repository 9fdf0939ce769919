//! Per-peer transport counters: the [`NetStats`] snapshot a
//! [`PeerHandle`](super::PeerHandle) reads and the atomic cells behind
//! it, bumped lock-free by the loop thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// Transport counters for one hosted peer, all cumulative since spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Payload frames completely written to a socket.
    pub frames_sent: u64,
    /// Bytes written for payload frames (including length prefixes).
    pub bytes_sent: u64,
    /// Payload frames received on an attached connection.
    pub frames_received: u64,
    /// Bytes received for payload frames (including length prefixes).
    pub bytes_received: u64,
    /// Successful connection establishments *after* a link's first,
    /// i.e. recoveries from a dead connection.
    pub reconnects: u64,
    /// Backoff-delayed redials scheduled — one per failed connection
    /// attempt or dead connection noticed, whether or not the subsequent
    /// retry succeeds.
    pub reconnect_attempts: u64,
    /// Sends discarded before reaching a socket: fault-plan loss and
    /// partition windows, unencodable or oversized messages, and frames
    /// refused by a full bounded send queue.
    pub sends_dropped: u64,
    /// Frames that decoded and reached the actor but were discarded at its
    /// bounded next-round stash (mirrored from
    /// [`Actor::stash_evicted`](p2pfl_simnet::Actor::stash_evicted) after
    /// every callback) — the protocol-level analogue of `sends_dropped`.
    pub stash_evicted: u64,
    /// Messages the actor refused at a protocol gate — not from the peer
    /// entitled to send them, malformed, or a share block failing its
    /// sender's hash commitment (mirrored from
    /// [`Actor::shares_rejected`](p2pfl_simnet::Actor::shares_rejected)
    /// after every callback) — each one is evidence of a Byzantine peer.
    pub shares_rejected: u64,
    /// Frames that went out sharing a vectored write with at least one
    /// other frame: how often batching actually batched.
    pub frames_coalesced: u64,
    /// High-water mark of any single bounded send queue, in frames — how
    /// close backpressure came to dropping.
    pub send_queue_peak: u64,
}

/// The atomic cells behind [`NetStats`]. Written only by the loop
/// thread, read by handles on any thread; each counter publishes no other
/// data, hence `Relaxed` throughout.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub(crate) frames_sent: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) frames_received: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) reconnect_attempts: AtomicU64,
    pub(crate) sends_dropped: AtomicU64,
    pub(crate) stash_evicted: AtomicU64,
    pub(crate) shares_rejected: AtomicU64,
    pub(crate) frames_coalesced: AtomicU64,
    /// Updated via `fetch_max`.
    pub(crate) send_queue_peak: AtomicU64,
}

impl StatsCells {
    /// A consistent-enough snapshot of the counters (individually atomic;
    /// cross-counter skew is acceptable for monitoring).
    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            reconnect_attempts: self.reconnect_attempts.load(Ordering::Relaxed),
            sends_dropped: self.sends_dropped.load(Ordering::Relaxed),
            stash_evicted: self.stash_evicted.load(Ordering::Relaxed),
            shares_rejected: self.shares_rejected.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            send_queue_peak: self.send_queue_peak.load(Ordering::Relaxed),
        }
    }
}
