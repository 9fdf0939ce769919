//! Threaded TCP transport: one listener, one writer thread per peer.
//!
//! A [`Hub`] owns this peer's listening socket and a registry of outgoing
//! connections. Connections are *directional*: each writer thread owns the
//! TCP connection it sends on, and every accepted connection is read-only.
//! This halves the usual connection-dedup complexity (two peers connecting
//! to each other simultaneously is simply two directed links) at the cost
//! of two sockets per bidirectional pair — irrelevant at the deployment
//! sizes of the paper (tens of peers).
//!
//! Reliability model:
//!
//! * A writer that cannot connect, or whose connection dies mid-write,
//!   retries the same frame after a capped exponential backoff
//!   ([`BACKOFF_INITIAL`] doubling up to [`BACKOFF_MAX`]) with
//!   deterministic per-writer jitter, so simultaneously severed writers
//!   de-synchronize reproducibly; frames sent meanwhile queue in its
//!   channel, so nothing is dropped or reordered sender-side.
//! * Every connection opens with a `hello` frame carrying a magic tag and
//!   the sender's [`NodeId`], so readers attribute traffic without trusting
//!   ephemeral port numbers.
//! * All sockets run with read/write timeouts so every thread notices
//!   [`Hub::shutdown`] promptly.
//!
//! [`Hub::kill_connections`] severs every live socket (test hook for the
//! reconnect path), and [`Hub::add_peer`] re-points a peer's address, which
//! is how a crashed peer rejoins from a fresh port.

use crate::codec::{write_frame, FrameBuffer};
use crate::registry::{Conn, Registry};
use crate::sync::atomic::Ordering;
use p2pfl_simnet::NodeId;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::registry::NetStats;

/// First reconnect delay.
pub const BACKOFF_INITIAL: Duration = Duration::from_millis(10);
/// Reconnect delay cap.
pub const BACKOFF_MAX: Duration = Duration::from_millis(640);
/// Outgoing connection establishment timeout.
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Per-write timeout; a peer that stops draining its socket for this long
/// is treated as dead and the connection is rebuilt.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket read timeout; bounds how long a reader thread can miss shutdown.
pub const READ_TIMEOUT: Duration = Duration::from_millis(100);

const HELLO_MAGIC: &[u8; 4] = b"p2pf";
const HELLO_VERSION: u8 = 1;

/// Why [`Hub::try_send`] could not queue a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HubError {
    /// The destination was never registered via [`Hub::add_peer`].
    UnknownPeer(NodeId),
    /// The peer's writer thread is gone — the hub is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownPeer(id) => write!(f, "peer {id:?} is not registered"),
            HubError::ShuttingDown => write!(f, "hub is shutting down"),
        }
    }
}

impl std::error::Error for HubError {}

/// Acquires `m`, recovering the guard if another thread panicked while
/// holding it. The hub's mutexes protect plain data (peer table, socket
/// clones, addresses) that stays structurally valid mid-update, and
/// shutdown must still be able to join the surviving threads after one
/// dies — so poisoning is recovered, never propagated as a panic.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Something the network produced for the local peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A payload frame arrived from `from`.
    Frame {
        /// The sender, as announced in its connection hello.
        from: NodeId,
        /// The raw frame payload (codec bytes of one message).
        payload: Vec<u8>,
    },
}

impl Conn for TcpStream {
    fn is_dead(&self) -> bool {
        !matches!(self.take_error(), Ok(None))
    }

    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

struct Shared {
    id: NodeId,
    sink: Box<dyn Fn(NetEvent) + Send + Sync>,
    /// Shutdown latch, counters, and clones of every live socket (so
    /// `kill_connections` / `shutdown` can sever them from outside their
    /// owning threads). See [`crate::registry`] for the loom-checked
    /// locking protocol.
    reg: Registry<TcpStream>,
}

impl Shared {
    fn register(&self, s: &TcpStream) {
        if let Ok(clone) = s.try_clone() {
            self.reg.register(clone);
        }
    }

    fn is_shutdown(&self) -> bool {
        self.reg.is_shutdown()
    }
}

enum WriterCmd {
    Frame(Vec<u8>),
    Shutdown,
}

struct PeerSlot {
    addr: Arc<Mutex<SocketAddr>>,
    tx: Sender<WriterCmd>,
    thread: Option<JoinHandle<()>>,
}

/// The per-peer TCP endpoint: listener, reader threads, writer threads.
pub struct Hub {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    peers: Mutex<HashMap<NodeId, PeerSlot>>,
    accept: Mutex<Option<JoinHandle<()>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Hub {
    /// Binds `bind_addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections. Every received payload frame is handed to
    /// `sink`, which must be cheap and non-blocking (typically an
    /// `mpsc::Sender` push).
    pub fn new<F>(id: NodeId, bind_addr: &str, sink: F) -> io::Result<Hub>
    where
        F: Fn(NetEvent) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(bind_addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            id,
            sink: Box::new(sink),
            reg: Registry::new(),
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let readers = readers.clone();
            std::thread::spawn(move || accept_loop(shared, listener, readers))
        };
        Ok(Hub {
            shared,
            local_addr,
            peers: Mutex::new(HashMap::new()),
            accept: Mutex::new(Some(accept)),
            readers,
        })
    }

    /// This hub's node id.
    pub fn node_id(&self) -> NodeId {
        self.shared.id
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers `peer` at `addr`, or re-points an existing peer to a new
    /// address (a crashed peer rejoining from a fresh port). The writer's
    /// next (re)connect attempt targets the new address.
    pub fn add_peer(&self, peer: NodeId, addr: SocketAddr) {
        let mut peers = lock_recover(&self.peers);
        if let Some(slot) = peers.get(&peer) {
            // The old connection (if any) is to a crashed peer, so the
            // writer's next send fails and reconnects to the new address.
            *lock_recover(&slot.addr) = addr;
            return;
        }
        let addr = Arc::new(Mutex::new(addr));
        let (tx, rx) = mpsc::channel();
        let thread = {
            let shared = self.shared.clone();
            let addr = addr.clone();
            std::thread::spawn(move || writer_loop(shared, addr, rx))
        };
        peers.insert(
            peer,
            PeerSlot {
                addr,
                tx,
                thread: Some(thread),
            },
        );
    }

    /// Queues one payload frame for `to`. Returns `false` if the peer is
    /// unknown (not registered via [`Hub::add_peer`]).
    pub fn send(&self, to: NodeId, payload: Vec<u8>) -> bool {
        self.try_send(to, payload).is_ok()
    }

    /// Queues one payload frame for `to`, reporting *why* a frame could
    /// not be queued instead of collapsing every failure to `false`.
    pub fn try_send(&self, to: NodeId, payload: Vec<u8>) -> Result<(), HubError> {
        let peers = lock_recover(&self.peers);
        match peers.get(&to) {
            Some(slot) => slot
                .tx
                .send(WriterCmd::Frame(payload))
                .map_err(|_| HubError::ShuttingDown),
            None => Err(HubError::UnknownPeer(to)),
        }
    }

    /// Severs every live TCP connection (in both directions) without
    /// touching the peer registry — the writers reconnect with backoff.
    /// Test hook for the recovery path.
    pub fn kill_connections(&self) {
        self.shared.reg.sever_all();
    }

    /// Snapshot of the transport counters.
    pub fn stats(&self) -> NetStats {
        self.shared.reg.stats().snapshot()
    }

    /// Records one send discarded above the socket layer. Called by the
    /// runtime's fault-injection layer so deliberately dropped frames show
    /// up in [`NetStats`] instead of vanishing silently.
    pub fn note_send_dropped(&self) {
        self.shared
            .reg
            .stats()
            .sends_dropped
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Mirrors the hosted actor's cumulative bounded-stash eviction count
    /// into [`NetStats::stash_evicted`]. Called by the runtime's event
    /// loop after each actor callback — a store, not an add, because the
    /// actor's counter is already cumulative.
    pub fn set_stash_evicted(&self, n: u64) {
        self.shared
            .reg
            .stats()
            .stash_evicted
            .store(n, Ordering::Relaxed);
    }

    /// Mirrors the hosted actor's cumulative commitment-check rejection
    /// count into [`NetStats::shares_rejected`]. Same store-not-add
    /// contract as [`Hub::set_stash_evicted`].
    pub fn set_shares_rejected(&self, n: u64) {
        self.shared
            .reg
            .stats()
            .shares_rejected
            .store(n, Ordering::Relaxed);
    }

    /// Graceful shutdown: stops accepting, severs connections, and joins
    /// every thread. Idempotent.
    pub fn shutdown(&self) {
        self.shared.reg.begin_shutdown();
        let mut peers = lock_recover(&self.peers);
        for slot in peers.values_mut() {
            let _ = slot.tx.send(WriterCmd::Shutdown);
            if let Some(t) = slot.thread.take() {
                let _ = t.join();
            }
        }
        drop(peers);
        if let Some(t) = lock_recover(&self.accept).take() {
            let _ = t.join();
        }
        let handles: Vec<_> = lock_recover(&self.readers).drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub(crate) fn hello_frame(id: NodeId) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.extend_from_slice(HELLO_MAGIC);
    payload.push(HELLO_VERSION);
    payload.extend_from_slice(&id.0.to_le_bytes());
    payload
}

pub(crate) fn parse_hello(frame: &[u8]) -> Option<NodeId> {
    if frame.len() != 9 {
        return None;
    }
    let (magic, rest) = frame.split_first_chunk::<4>()?;
    let (version, id_bytes) = rest.split_first()?;
    if magic != HELLO_MAGIC || *version != HELLO_VERSION {
        return None;
    }
    let id = <[u8; 4]>::try_from(id_bytes).ok()?;
    Some(NodeId(u32::from_le_bytes(id)))
}

fn accept_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.register(&stream);
                let sh = shared.clone();
                let handle = std::thread::spawn(move || reader_loop(sh, stream));
                lock_recover(&readers).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn reader_loop(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut fb = FrameBuffer::new();
    let mut from: Option<NodeId> = None;
    let mut tmp = [0u8; 16 * 1024];
    while !shared.is_shutdown() {
        loop {
            match fb.next_frame() {
                Ok(Some(frame)) => match from {
                    None => match parse_hello(frame) {
                        Some(id) => from = Some(id),
                        // Not one of ours; refuse the connection.
                        None => return,
                    },
                    Some(id) => {
                        let s = shared.reg.stats();
                        s.frames_received.fetch_add(1, Ordering::Relaxed);
                        s.bytes_received
                            .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
                        (shared.sink)(NetEvent::Frame {
                            from: id,
                            payload: frame.to_vec(),
                        });
                    }
                },
                Ok(None) => break,
                // Oversize or corrupt length prefix: the stream cannot be
                // resynchronized, so drop the connection.
                Err(_) => return,
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            // `n <= tmp.len()` per the `Read` contract; `get` keeps even a
            // misbehaving reader from panicking this thread.
            Ok(n) => fb.extend(tmp.get(..n).unwrap_or(&tmp)),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn writer_loop(shared: Arc<Shared>, addr: Arc<Mutex<SocketAddr>>, rx: Receiver<WriterCmd>) {
    let mut conn: Option<TcpStream> = None;
    let mut ever_connected = false;
    let mut backoff = BACKOFF_INITIAL;
    let mut attempt: u64 = 0;
    'frames: loop {
        let frame = match rx.recv() {
            Ok(WriterCmd::Frame(f)) => f,
            Ok(WriterCmd::Shutdown) | Err(_) => return,
        };
        // Retry until this frame is on the wire (or the hub shuts down):
        // sender-side frames are never dropped or reordered.
        loop {
            if shared.is_shutdown() {
                return;
            }
            let stream = match conn.as_mut() {
                Some(s) => s,
                None => {
                    let target = *lock_recover(&addr);
                    match TcpStream::connect_timeout(&target, CONNECT_TIMEOUT) {
                        Ok(mut s) => {
                            let _ = s.set_nodelay(true);
                            let _ = s.set_write_timeout(Some(WRITE_TIMEOUT));
                            if write_frame(&mut s, &hello_frame(shared.id)).is_err() {
                                sleep_backoff(&shared, &mut backoff, &mut attempt);
                                continue;
                            }
                            if ever_connected {
                                shared
                                    .reg
                                    .stats()
                                    .reconnects
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            ever_connected = true;
                            backoff = BACKOFF_INITIAL;
                            shared.register(&s);
                            conn.insert(s)
                        }
                        Err(_) => {
                            sleep_backoff(&shared, &mut backoff, &mut attempt);
                            continue;
                        }
                    }
                }
            };
            match write_frame(stream, &frame) {
                Ok(()) => {
                    let s = shared.reg.stats();
                    s.frames_sent.fetch_add(1, Ordering::Relaxed);
                    s.bytes_sent
                        .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
                    continue 'frames;
                }
                Err(_) => {
                    conn = None;
                    sleep_backoff(&shared, &mut backoff, &mut attempt);
                }
            }
        }
    }
}

/// Deterministic jitter in `[0, base/2)` derived from the local node id
/// and the writer's attempt counter (splitmix64 finalizer). Reconnecting
/// writers de-synchronize without a shared RNG, and a given (node,
/// attempt) pair always jitters the same way — reconnect schedules stay
/// reproducible across runs.
pub(crate) fn backoff_jitter(id: NodeId, attempt: u64, base: Duration) -> Duration {
    let mut x = (id.0 as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(attempt);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let half = (base.as_nanos() as u64) / 2;
    Duration::from_nanos(if half == 0 { 0 } else { x % half })
}

/// Records the retry, sleeps the current backoff plus deterministic jitter
/// (in small slices so shutdown stays responsive), then doubles the
/// backoff up to [`BACKOFF_MAX`].
fn sleep_backoff(shared: &Shared, backoff: &mut Duration, attempt: &mut u64) {
    *attempt += 1;
    shared
        .reg
        .stats()
        .reconnect_attempts
        .fetch_add(1, Ordering::Relaxed);
    let mut left = *backoff + backoff_jitter(shared.id, *attempt, *backoff);
    while !left.is_zero() && !shared.is_shutdown() {
        let slice = left.min(Duration::from_millis(20));
        std::thread::sleep(slice);
        left -= slice;
    }
    *backoff = (*backoff * 2).min(BACKOFF_MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn pair(a: NodeId, b: NodeId) -> (Hub, Receiver<NetEvent>, Hub, Receiver<NetEvent>) {
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        let hub_a = Hub::new(a, "127.0.0.1:0", move |e| {
            let _ = tx_a.send(e);
        })
        .unwrap();
        let hub_b = Hub::new(b, "127.0.0.1:0", move |e| {
            let _ = tx_b.send(e);
        })
        .unwrap();
        hub_a.add_peer(b, hub_b.local_addr());
        hub_b.add_peer(a, hub_a.local_addr());
        (hub_a, rx_a, hub_b, rx_b)
    }

    #[test]
    fn frames_flow_both_ways() {
        let (a, rx_a, b, rx_b) = pair(NodeId(0), NodeId(1));
        assert!(a.send(NodeId(1), b"ping".to_vec()));
        assert!(b.send(NodeId(0), b"pong".to_vec()));
        let got = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            got,
            NetEvent::Frame {
                from: NodeId(0),
                payload: b"ping".to_vec()
            }
        );
        let got = rx_a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            got,
            NetEvent::Frame {
                from: NodeId(1),
                payload: b"pong".to_vec()
            }
        );
        assert!(a.stats().frames_sent >= 1);
        assert!(a.stats().frames_received >= 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn unknown_peer_is_rejected() {
        let (tx, _rx) = mpsc::channel();
        let hub = Hub::new(NodeId(0), "127.0.0.1:0", move |e| {
            let _ = tx.send(e);
        })
        .unwrap();
        assert!(!hub.send(NodeId(9), b"x".to_vec()));
        hub.shutdown();
    }

    #[test]
    fn killed_connections_recover_with_reconnect_counted() {
        let (a, _rx_a, b, rx_b) = pair(NodeId(0), NodeId(1));
        assert!(a.send(NodeId(1), b"one".to_vec()));
        assert_eq!(
            rx_b.recv_timeout(Duration::from_secs(5)).unwrap(),
            NetEvent::Frame {
                from: NodeId(0),
                payload: b"one".to_vec()
            }
        );

        a.kill_connections();
        b.kill_connections();

        assert!(a.send(NodeId(1), b"two".to_vec()));
        assert_eq!(
            rx_b.recv_timeout(Duration::from_secs(10)).unwrap(),
            NetEvent::Frame {
                from: NodeId(0),
                payload: b"two".to_vec()
            }
        );
        assert!(
            a.stats().reconnects >= 1,
            "reconnect not counted: {:?}",
            a.stats()
        );
        assert!(
            a.stats().reconnect_attempts >= 1,
            "retry attempts not counted: {:?}",
            a.stats()
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        for attempt in 0..50u64 {
            let j1 = backoff_jitter(NodeId(3), attempt, BACKOFF_MAX);
            let j2 = backoff_jitter(NodeId(3), attempt, BACKOFF_MAX);
            assert_eq!(j1, j2, "jitter must be a pure function");
            assert!(j1 < BACKOFF_MAX / 2, "jitter exceeds half the base");
        }
        assert!(
            (0..50u64).any(|a| backoff_jitter(NodeId(1), a, BACKOFF_MAX)
                != backoff_jitter(NodeId(2), a, BACKOFF_MAX)),
            "distinct writers should de-synchronize"
        );
    }

    #[test]
    fn messages_queued_before_listener_peer_arrive() {
        // Register b at its future address before anything listens there:
        // the writer must keep retrying and deliver once b binds.
        let (tx_a, _rx_a) = mpsc::channel();
        let a = Hub::new(NodeId(0), "127.0.0.1:0", move |e| {
            let _ = tx_a.send(e);
        })
        .unwrap();

        // Reserve a port by binding then dropping (racy in principle, fine
        // on loopback in practice).
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        a.add_peer(NodeId(1), addr);
        assert!(a.send(NodeId(1), b"early".to_vec()));
        std::thread::sleep(Duration::from_millis(50));

        let (tx_b, rx_b) = mpsc::channel();
        let b = Hub::new(NodeId(1), &addr.to_string(), move |e| {
            let _ = tx_b.send(e);
        })
        .unwrap();
        assert_eq!(
            rx_b.recv_timeout(Duration::from_secs(10)).unwrap(),
            NetEvent::Frame {
                from: NodeId(0),
                payload: b"early".to_vec()
            }
        );
        a.shutdown();
        b.shutdown();
    }
}
