//! Single-reactor async peer runtime: many actors, one epoll loop.
//!
//! The [`Reactor`] hosts *hundreds* of sans-IO actors on **one** thread
//! driving an epoll readiness loop (`sys`), with:
//!
//! * **One shared listener** fronting every hosted peer. The hello
//!   (`conn`) carries the *destination* peer, so a single bound port
//!   multiplexes all of them.
//! * **One socket per peer pair**, used in both directions. Only the
//!   *lower* [`NodeId`] ever dials; the higher side queues frames until
//!   the dialer's connection arrives and is then attached to it. This
//!   deterministic rule kills simultaneous-dial races and halves fd
//!   usage — a 1000-peer topology fits comfortably under a 20k fd cap.
//! * **Bounded per-link send queues** ([`queue::SendQueue`]) flushed with
//!   vectored writes: a slow or dead consumer backs up (and eventually
//!   drops, counted in [`NetStats::sends_dropped`]) on *its own* queue
//!   without stalling the loop or other links.
//! * **One deadline queue** (`timer::TimerQueue`, a binary heap) carrying
//!   every actor timer, redial backoff, and fault-plan delayed frame of
//!   every hosted peer.
//!
//! The actor contract is identical to the simulator's: callbacks run one
//! at a time on the loop thread, `now()` is elapsed time since the peer
//! was spawned, loopback sends are delivered after the current callback,
//! and [`FaultPlan`]s interpose the same [`LinkFaults`] interpreter
//! between sends and sockets. The sans-IO crates (`raft`, `hierraft`,
//! `secagg`) run byte-for-byte unmodified on both.
//!
//! A dead connection is redialed by the side that dialed it after a
//! capped exponential backoff (10 ms doubling up to 640 ms) with
//! deterministic per-peer jitter, so simultaneously severed links
//! de-synchronize reproducibly; frames sent meanwhile wait in the link's
//! queue.

pub(crate) mod conn;
mod queue;
mod stats;
mod sys;
mod timer;

pub use queue::{Frame, SendQueue, Stage};
pub use stats::NetStats;

use crate::codec::{CodecError, Pool};
use p2pfl_simnet::{
    Actor, FaultPlan, LinkFaults, NodeId, Payload, SimDuration, SimTime, TimerId, Transport,
};
use serde::{Deserialize, Serialize};
use stats::StatsCells;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use timer::TimerQueue;

/// Poller token of the cross-thread wake pipe.
const TOKEN_WAKE: u64 = 0;
/// Poller token of the shared listener.
const TOKEN_LISTEN: u64 = 1;
/// First token handed to a connection; tokens are never reused, so a
/// stale readiness event for a closed connection simply misses the map.
const TOKEN_CONN0: u64 = 2;

/// First redial delay.
const BACKOFF_INITIAL: Duration = Duration::from_millis(10);
/// Redial delay cap.
const BACKOFF_MAX: Duration = Duration::from_millis(640);

/// Messages a reactor can host: simulator payloads that also encode to the
/// binary wire format.
pub trait WireMsg: Payload + Serialize + Deserialize {}
impl<M: Payload + Serialize + Deserialize> WireMsg for M {}

/// Deterministic jitter in `[0, base/2)` derived from the dialing peer's
/// id and its link's attempt counter (splitmix64 finalizer). Redialing
/// links de-synchronize without a shared RNG, and a given (peer, attempt)
/// pair always jitters the same way — reconnect schedules stay
/// reproducible across runs.
fn backoff_jitter(id: NodeId, attempt: u64, base: Duration) -> Duration {
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

/// Configuration for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Address the shared listener binds (port 0 for OS-assigned).
    pub bind_addr: String,
    /// Per-link send queue cap, in frames.
    pub max_queue_frames: usize,
    /// Per-link send queue cap, in bytes.
    pub max_queue_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            bind_addr: "127.0.0.1:0".to_owned(),
            max_queue_frames: 4096,
            max_queue_bytes: 32 << 20,
        }
    }
}

/// One deadline-queue entry, owned by one incarnation of a hosted peer.
struct TimerEntry<M> {
    peer: NodeId,
    /// [`PeerSlot::epoch`] of the incarnation that armed it. An entry that
    /// outlives its peer (kill, then respawn under the same id) must not
    /// fire into the successor.
    epoch: u64,
    kind: TimerKind<M>,
}

/// What a fired deadline-queue entry means.
enum TimerKind<M> {
    /// An actor timer from [`Transport::set_timer`].
    Actor { id: u64, tag: u64 },
    /// A backoff-delayed redial of the peer's link to `remote`.
    Redial { remote: NodeId },
    /// A frame the peer's fault plan held back, now due on its link to `to`.
    Release { to: NodeId, frame: Frame<M> },
}

/// A closure run on the loop thread with the actor and live transport.
type Invocation<M, A> = Box<dyn FnOnce(&mut A, &mut dyn Transport<M>) + Send>;

/// Cross-thread requests handled at the top of each loop iteration.
enum Task<M, A> {
    Spawn {
        id: NodeId,
        actor: A,
        faults: Option<LinkFaults>,
        stats: Arc<StatsCells>,
        decode_errors: Arc<AtomicU64>,
        reply: Sender<io::Result<()>>,
    },
    AddPeer {
        local: NodeId,
        peer: NodeId,
        addr: SocketAddr,
    },
    Invoke {
        local: NodeId,
        f: Invocation<M, A>,
    },
    Despawn {
        local: NodeId,
        reply: Sender<Option<A>>,
    },
    SeverAll,
    Shutdown,
}

/// State shared between user-thread handles and the loop thread.
struct Shared<M, A> {
    /// The loop thread owns the receiving end; when the loop exits it
    /// drops it, and with it every task still queued (and their reply
    /// senders, which unblocks any handle mid-call).
    tasks: Sender<Task<M, A>>,
    wake: UnixStream,
    listen_addr: SocketAddr,
}

impl<M, A> Shared<M, A> {
    /// Enqueues a task and wakes the loop. `false` if the reactor has
    /// shut down (the task is dropped).
    fn submit(&self, task: Task<M, A>) -> bool {
        if self.tasks.send(task).is_err() {
            return false;
        }
        // A full pipe already guarantees a pending wake; errors are moot.
        let _ = (&self.wake).write(&[1u8]);
        true
    }
}

/// One peer's outgoing link to one remote: the bounded queue plus the
/// connection and redial bookkeeping.
struct OutLink<M> {
    queue: SendQueue<M>,
    /// Token of the connection currently carrying this link, if any.
    conn: Option<u64>,
    backoff: Duration,
    attempt: u64,
    ever_connected: bool,
    /// Whether a redial entry is pending (dialer side only).
    redial_armed: bool,
}

impl<M> OutLink<M> {
    fn new(caps: (usize, usize)) -> OutLink<M> {
        OutLink {
            queue: SendQueue::new(caps.0, caps.1),
            conn: None,
            backoff: BACKOFF_INITIAL,
            attempt: 0,
            ever_connected: false,
            redial_armed: false,
        }
    }
}

/// One hosted peer: its actor plus everything the loop needs to run it.
struct PeerSlot<M, A> {
    actor: A,
    /// Distinguishes this incarnation from earlier ones of the same id.
    epoch: u64,
    /// Wall-clock zero of this peer's `now()` and fault-plan time axis.
    origin: Instant,
    stats: Arc<StatsCells>,
    decode_errors: Arc<AtomicU64>,
    faults: Option<LinkFaults>,
    next_timer_id: u64,
    cancelled: HashSet<u64>,
    /// Known remote addresses (the hosting reactor's listener).
    addrs: HashMap<NodeId, SocketAddr>,
    links: HashMap<NodeId, OutLink<M>>,
    loopback: VecDeque<M>,
    /// Remotes whose queues grew during the current dispatch.
    touched: Vec<NodeId>,
}

impl<M, A> PeerSlot<M, A> {
    /// Splits the slot into its actor and the transport that actor's
    /// callbacks see.
    fn split<'a>(
        &'a mut self,
        id: NodeId,
        reactor_origin: Instant,
        caps: (usize, usize),
        timers: &'a mut TimerQueue<TimerEntry<M>>,
        vectors: &'a mut Pool,
    ) -> (&'a mut A, ReactorCtx<'a, M>) {
        let offset_ns = self
            .origin
            .saturating_duration_since(reactor_origin)
            .as_nanos() as u64;
        let ctx = ReactorCtx {
            id,
            epoch: self.epoch,
            origin: self.origin,
            offset_ns,
            caps,
            links: &mut self.links,
            faults: &mut self.faults,
            loopback: &mut self.loopback,
            next_timer_id: &mut self.next_timer_id,
            cancelled: &mut self.cancelled,
            timers,
            vectors,
            stats: &self.stats,
            touched: &mut self.touched,
        };
        (&mut self.actor, ctx)
    }
}

/// The loop thread's whole world.
struct Core<M, A> {
    cfg: ReactorConfig,
    /// Wall-clock zero of the deadline queue's nanosecond axis.
    origin: Instant,
    poller: sys::Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    peers: HashMap<NodeId, PeerSlot<M, A>>,
    conns: HashMap<u64, conn::Link>,
    next_token: u64,
    next_epoch: u64,
    timers: TimerQueue<TimerEntry<M>>,
    scratch: Vec<u8>,
    /// The staged bytes of the write batch in flight, for whichever link
    /// writes one.
    stage: Stage,
    /// The model vectors of every hosted actor: received runs are read
    /// into them and other received vectors decoded into them, actors
    /// draw and give back through their transport, and sent ones come
    /// back once on the wire.
    vectors: Pool,
    shutdown: bool,
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn sim_elapsed(origin: Instant) -> SimTime {
    SimTime::from_nanos(origin.elapsed().as_nanos() as u64)
}

/// The [`Transport`] handed to actor callbacks on the loop thread.
struct ReactorCtx<'a, M> {
    id: NodeId,
    epoch: u64,
    origin: Instant,
    /// Peer-relative nanoseconds → reactor-clock nanoseconds offset.
    offset_ns: u64,
    caps: (usize, usize),
    links: &'a mut HashMap<NodeId, OutLink<M>>,
    faults: &'a mut Option<LinkFaults>,
    loopback: &'a mut VecDeque<M>,
    next_timer_id: &'a mut u64,
    cancelled: &'a mut HashSet<u64>,
    timers: &'a mut TimerQueue<TimerEntry<M>>,
    vectors: &'a mut Pool,
    stats: &'a StatsCells,
    touched: &'a mut Vec<NodeId>,
}

impl<M: Payload> ReactorCtx<'_, M> {
    /// Queues one frame on the link to `to`, creating the link if needed;
    /// a full queue drops the frame instead.
    fn enqueue(&mut self, to: NodeId, frame: Frame<M>) {
        let caps = self.caps;
        let ol = self.links.entry(to).or_insert_with(|| OutLink::new(caps));
        match ol.queue.push(frame) {
            Ok(()) => {
                self.stats
                    .send_queue_peak
                    .fetch_max(ol.queue.peak() as u64, Ordering::Relaxed);
                if !self.touched.contains(&to) {
                    self.touched.push(to);
                }
            }
            Err(frame) => self.drop_send(frame.into_message()),
        }
    }

    /// A message that will never be written: counted into
    /// `sends_dropped`, its vectors given back to the pool.
    fn drop_send(&mut self, msg: M) {
        msg.recycle(self.vectors);
        self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
    }
}

impl<M: WireMsg> Transport<M> for ReactorCtx<'_, M> {
    fn now(&self) -> SimTime {
        sim_elapsed(self.origin)
    }

    fn node_id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, msg: M) {
        if to == self.id {
            // Local delivery after the current callback returns — the
            // simulator's instantaneous-loopback semantics.
            self.loopback.push_back(msg);
            return;
        }
        // A frame stays a message until the socket takes it; the count
        // sizes it for the queue's byte cap.
        let frame = match Frame::new(msg) {
            Ok(frame) => frame,
            // Unencodable or oversized: it could never reach the wire.
            Err(msg) => return self.drop_send(msg),
        };
        let Some(lf) = self.faults.as_mut() else {
            self.enqueue(to, frame);
            return;
        };
        let now = sim_elapsed(self.origin);
        let v = lf.on_send(now, self.id, to);
        if v.copies == 0 {
            return self.drop_send(frame.into_message());
        }
        // Every copy but the last is a clone; the last takes `frame`.
        for frame in std::iter::repeat_n(frame, v.copies as usize) {
            if v.extra_delay == SimDuration::ZERO {
                self.enqueue(to, frame);
            } else {
                // Held back in the shared deadline queue, behind the same
                // epoch check as the peer's timers: a killed peer's
                // delayed frames die with it.
                let due = now + v.extra_delay;
                self.timers.insert(
                    self.offset_ns.saturating_add(due.as_nanos()),
                    TimerEntry {
                        peer: self.id,
                        epoch: self.epoch,
                        kind: TimerKind::Release { to, frame },
                    },
                );
            }
        }
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = *self.next_timer_id;
        *self.next_timer_id += 1;
        let deadline = self.now() + delay;
        self.timers.insert(
            self.offset_ns.saturating_add(deadline.as_nanos()),
            TimerEntry {
                peer: self.id,
                epoch: self.epoch,
                kind: TimerKind::Actor { id, tag },
            },
        );
        TimerId(id)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
    }

    fn take_f64(&mut self, len: usize) -> Vec<f64> {
        self.vectors.take(len)
    }

    fn give_f64(&mut self, storage: Vec<f64>) {
        self.vectors.give(storage);
    }
}

impl<M: WireMsg + Send + 'static, A: Actor<M> + Send + 'static> Core<M, A> {
    /// Runs one actor callback with a live transport, drains the loopback
    /// it produced, mirrors stash/rejection counters, then kicks the
    /// network for every link the callback touched.
    fn dispatch<F>(&mut self, peer: NodeId, f: F)
    where
        F: FnOnce(&mut A, &mut dyn Transport<M>),
    {
        let origin = self.origin;
        let caps = (self.cfg.max_queue_frames, self.cfg.max_queue_bytes);
        {
            let Some(slot) = self.peers.get_mut(&peer) else {
                return;
            };
            let (actor, mut ctx) =
                slot.split(peer, origin, caps, &mut self.timers, &mut self.vectors);
            f(actor, &mut ctx);
            while let Some(m) = ctx.loopback.pop_front() {
                actor.on_message(&mut ctx, peer, m);
            }
            slot.stats
                .stash_evicted
                .store(slot.actor.stash_evicted(), Ordering::Relaxed);
            slot.stats
                .shares_rejected
                .store(slot.actor.shares_rejected(), Ordering::Relaxed);
        }
        self.flush_touched(peer);
    }

    /// Flushes (or dials for) every link `peer`'s last dispatch touched.
    fn flush_touched(&mut self, peer: NodeId) {
        let touched = match self.peers.get_mut(&peer) {
            Some(slot) => std::mem::take(&mut slot.touched),
            None => return,
        };
        for remote in touched {
            self.ensure_flow(peer, remote);
        }
    }

    /// Makes sure frames queued on `local`'s link to `remote` can move:
    /// flush if connected, dial if this side owns dialing, otherwise wait
    /// (for a redial timer or the remote's dial).
    fn ensure_flow(&mut self, local: NodeId, remote: NodeId) {
        enum Flow {
            Flush(u64),
            Dial,
            Wait,
        }
        let action = {
            let Some(slot) = self.peers.get_mut(&local) else {
                return;
            };
            let has_addr = slot.addrs.contains_key(&remote);
            let Some(ol) = slot.links.get_mut(&remote) else {
                return;
            };
            match ol.conn {
                Some(t) => Flow::Flush(t),
                None if local.0 < remote.0 && !ol.redial_armed && has_addr => Flow::Dial,
                None => Flow::Wait,
            }
        };
        match action {
            Flow::Flush(t) => self.flush_conn(t),
            Flow::Dial => self.dial(local, remote),
            Flow::Wait => {}
        }
    }

    /// Starts a non-blocking connect from `local` to `remote`'s reactor.
    /// Only ever called on the lower-id side of a pair.
    fn dial(&mut self, local: NodeId, remote: NodeId) {
        let Some(addr) = self
            .peers
            .get(&local)
            .and_then(|s| s.addrs.get(&remote))
            .copied()
        else {
            return;
        };
        match sys::connect_nonblocking(&addr) {
            Ok(stream) => {
                let token = self.next_token;
                self.next_token += 1;
                if self
                    .poller
                    .add(stream.as_raw_fd(), token, sys::Interest::WRITE)
                    .is_err()
                {
                    self.arm_redial(local, remote);
                    return;
                }
                self.conns
                    .insert(token, conn::Link::dialed(stream, local, remote));
                if let Some(ol) = self
                    .peers
                    .get_mut(&local)
                    .and_then(|s| s.links.get_mut(&remote))
                {
                    ol.conn = Some(token);
                }
            }
            Err(_) => self.arm_redial(local, remote),
        }
    }

    /// Schedules a jittered-backoff redial of `local`'s link to `remote`.
    fn arm_redial(&mut self, local: NodeId, remote: NodeId) {
        let now_ns = ns_since(self.origin);
        let Some(slot) = self.peers.get_mut(&local) else {
            return;
        };
        let Some(ol) = slot.links.get_mut(&remote) else {
            return;
        };
        if ol.redial_armed {
            return;
        }
        ol.redial_armed = true;
        ol.attempt = ol.attempt.saturating_add(1);
        slot.stats
            .reconnect_attempts
            .fetch_add(1, Ordering::Relaxed);
        let delay = ol.backoff + backoff_jitter(local, ol.attempt, ol.backoff);
        ol.backoff = (ol.backoff * 2).min(BACKOFF_MAX);
        self.timers.insert(
            now_ns.saturating_add(delay.as_nanos() as u64),
            TimerEntry {
                peer: local,
                epoch: slot.epoch,
                kind: TimerKind::Redial { remote },
            },
        );
    }

    /// A dialed connection finished connecting: send the hello. Payload
    /// waits for the acceptor's answer ([`Core::on_hello_answered`]).
    fn on_connected(&mut self, token: u64) {
        // Stay write-interested until the first flush decides otherwise.
        if let Some(link) = self.conns.get_mut(&token) {
            link.want_write = true;
            let _ = self
                .poller
                .modify(link.stream.as_raw_fd(), token, sys::Interest::BOTH);
        }
        self.flush_conn(token);
    }

    /// The acceptor attached a dialed connection to `remote` and said so:
    /// reset backoff, count the reconnect, and push whatever queued up
    /// while the link was away.
    fn on_hello_answered(&mut self, token: u64, local: NodeId, remote: NodeId) {
        if let Some(link) = self.conns.get_mut(&token) {
            link.got_hello = true;
        }
        if let Some(slot) = self.peers.get_mut(&local) {
            if let Some(ol) = slot.links.get_mut(&remote) {
                if ol.ever_connected {
                    slot.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                ol.ever_connected = true;
                ol.backoff = BACKOFF_INITIAL;
                ol.attempt = 0;
            }
        }
        self.flush_conn(token);
    }

    /// Writes as much of the owning link's queue as the socket takes and
    /// re-arms (or drops) write interest to match.
    fn flush_conn(&mut self, token: u64) {
        let outcome = {
            let Some(link) = self.conns.get_mut(&token) else {
                return;
            };
            if link.state != conn::LinkState::Open {
                return;
            }
            let (Some(local), Some(remote)) = (link.local, link.remote) else {
                return;
            };
            let Some(slot) = self.peers.get_mut(&local) else {
                return;
            };
            let Some(ol) = slot.links.get_mut(&remote) else {
                return;
            };
            conn::flush_link(
                link,
                &mut ol.queue,
                &mut self.stage,
                &mut self.vectors,
                &slot.stats,
            )
        };
        match outcome {
            conn::FlushOutcome::Drained => self.set_write_interest(token, false),
            conn::FlushOutcome::Blocked => self.set_write_interest(token, true),
            conn::FlushOutcome::Dead => self.close_conn(token, true),
        }
    }

    /// Adds or removes write interest on a connection, tracking the
    /// current registration to avoid redundant `epoll_ctl` calls.
    fn set_write_interest(&mut self, token: u64, want: bool) {
        let Some(link) = self.conns.get_mut(&token) else {
            return;
        };
        if link.want_write == want {
            return;
        }
        let interest = if want {
            sys::Interest::BOTH
        } else {
            sys::Interest::READ
        };
        if self
            .poller
            .modify(link.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            link.want_write = want;
        }
    }

    /// Tears a connection down. Partial write progress on the owning
    /// queue is voided (the frame will be re-sent whole), and the dialer
    /// side schedules a redial unless `allow_redial` is off (duplicate
    /// replacement, despawn, shutdown).
    fn close_conn(&mut self, token: u64, allow_redial: bool) {
        let Some(link) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.delete(link.stream.as_raw_fd());
        link.rx.discard(&mut self.vectors);
        let (Some(local), Some(remote)) = (link.local, link.remote) else {
            return;
        };
        let redial = {
            let Some(ol) = self
                .peers
                .get_mut(&local)
                .and_then(|s| s.links.get_mut(&remote))
            else {
                return;
            };
            if ol.conn != Some(token) {
                // A newer connection already owns this link; the old
                // socket just goes away.
                return;
            }
            ol.conn = None;
            ol.queue.reset_progress();
            link.dialed && allow_redial
        };
        if redial {
            self.arm_redial(local, remote);
        }
    }

    /// Accepts every pending connection on the shared listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, sys::Interest::READ)
                        .is_ok()
                    {
                        self.conns.insert(token, conn::Link::accepted(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Routes one readiness event for a connection token.
    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, error: bool) {
        let state = match self.conns.get(&token) {
            Some(l) => l.state,
            None => return, // stale event for a closed connection
        };
        if state == conn::LinkState::Connecting {
            if error {
                self.close_conn(token, true);
                return;
            }
            if writable {
                let ok = match self.conns.get_mut(&token) {
                    Some(link) => conn::complete_connect(link).is_ok(),
                    None => return,
                };
                if ok {
                    self.on_connected(token);
                } else {
                    self.close_conn(token, true);
                }
            }
            return;
        }
        if readable || error {
            // Drain data (possibly the final frames before a FIN) first;
            // `handle_readable` closes on EOF/corruption itself.
            self.handle_readable(token);
            if error && self.conns.contains_key(&token) {
                self.close_conn(token, true);
            }
        }
        if writable {
            self.flush_conn(token);
        }
    }

    /// Reads what a connection has, dispatching complete frames as they
    /// form. A read that takes all it asked for, or goes into a run, goes
    /// round again. A shorter one drained the socket: at a frame boundary
    /// that ends the burst, and since polling is level-triggered, later
    /// bytes (or an EOF) are a fresh readiness, so no empty `read` is
    /// spent to hear `WouldBlock`. Mid-frame, the rest of the frame is
    /// already on its way and reading on keeps a bulk stream moving:
    /// stopping there starved the one `sac_bulk_cnn_3` share block a round
    /// does not wait for, until the next round's block overflowed the send
    /// queue.
    fn handle_readable(&mut self, token: u64) {
        loop {
            let Some(link) = self.conns.get_mut(&token) else {
                return;
            };
            let status = conn::read_some(link, &mut self.scratch, &mut self.vectors);
            if status == conn::ReadStatus::Closed {
                self.close_conn(token, true);
                return;
            }
            match self.deliver_frames(token) {
                Ok(true) => {}
                Ok(false) => return,
                Err(_) => {
                    // Unframeable input (an oversize length prefix, a
                    // first frame that is no hello) cannot be
                    // resynchronized.
                    self.close_conn(token, true);
                    return;
                }
            }
            let Some(link) = self.conns.get(&token) else {
                return;
            };
            let more = match status {
                conn::ReadStatus::Full => true,
                conn::ReadStatus::Short => !link.rx.is_empty(),
                conn::ReadStatus::Drained | conn::ReadStatus::Closed => false,
            };
            if !more {
                return;
            }
        }
    }

    /// Delivers every frame the connection has whole: a hello attaches the
    /// connection to its destination peer, a payload decodes and
    /// dispatches. Until the hello is in, a frame of any other length is
    /// refused from its prefix, before a vector is drawn for it. Returns
    /// whether the connection is still there.
    fn deliver_frames(&mut self, token: u64) -> Result<bool, CodecError> {
        loop {
            let Some(link) = self.conns.get_mut(&token) else {
                return Ok(false);
            };
            let (got_hello, ends) = (link.got_hello, link.local.zip(link.remote));
            if !got_hello && link.rx.next_prefix().is_some_and(|p| p != conn::HELLO_LEN) {
                return Err(CodecError::Invalid("a first frame that is no hello"));
            }
            let Some(frame) = link.rx.next_frame(&mut self.vectors)? else {
                return Ok(true);
            };
            if !got_hello {
                match (ends, frame.payload().and_then(conn::parse_hello_v2)) {
                    // Accepted: attach to the hosted peer the dialer named.
                    (None, Some((src, dst))) if self.peers.contains_key(&dst) => {
                        self.attach_accepted(token, src, dst);
                    }
                    // Dialed: the acceptor answers with the hello reversed.
                    (Some((local, remote)), Some((src, dst))) if src == remote && dst == local => {
                        self.on_hello_answered(token, local, remote);
                    }
                    _ => {
                        // Wrong protocol, wrong identity, or a peer this
                        // reactor does not host (yet): drop the connection;
                        // a dialer's backoff will retry.
                        self.close_conn(token, true);
                        return Ok(false);
                    }
                }
                continue;
            }
            // Counted into the local peer's stats and decoded, unless the
            // connection names no hosted peer.
            let Some((local, remote)) = ends else {
                continue;
            };
            let Some(slot) = self.peers.get_mut(&local) else {
                continue;
            };
            slot.stats.frames_received.fetch_add(1, Ordering::Relaxed);
            let len = frame.wire_len() as u64;
            slot.stats.bytes_received.fetch_add(len, Ordering::Relaxed);
            match frame.decode::<M>(&mut self.vectors) {
                Ok(msg) => self.dispatch(local, move |a, ctx| a.on_message(ctx, remote, msg)),
                Err(_) => {
                    slot.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Binds an accepted connection to the hosted peer its hello named,
    /// adopting it as the pair's (single) socket in both directions, and
    /// answers the hello so the dialer starts sending.
    fn attach_accepted(&mut self, token: u64, src: NodeId, dst: NodeId) {
        let caps = (self.cfg.max_queue_frames, self.cfg.max_queue_bytes);
        let old = {
            let Some(link) = self.conns.get_mut(&token) else {
                return;
            };
            link.got_hello = true;
            link.local = Some(dst);
            link.remote = Some(src);
            link.preamble = Some((conn::hello_frame_v2(dst, src), 0));
            let Some(slot) = self.peers.get_mut(&dst) else {
                return;
            };
            let ol = slot.links.entry(src).or_insert_with(|| OutLink::new(caps));
            ol.queue.reset_progress();
            ol.conn.replace(token)
        };
        if let Some(old_token) = old {
            if old_token != token {
                // The remote re-dialed before we noticed the old socket
                // die; the newest connection wins.
                self.close_conn(old_token, false);
            }
        }
        self.flush_conn(token);
    }

    /// Fires every entry of the deadline queue that is due now.
    fn fire_timers(&mut self) {
        let now_ns = ns_since(self.origin);
        while let Some(TimerEntry { peer, epoch, kind }) = self.timers.pop_due(now_ns) {
            let Some(slot) = self.peers.get_mut(&peer) else {
                continue;
            };
            if slot.epoch != epoch {
                // Armed by a killed incarnation of this id.
                continue;
            }
            match kind {
                TimerKind::Actor { id, tag } => {
                    if !slot.cancelled.remove(&id) {
                        self.dispatch(peer, move |a, ctx| a.on_timer(ctx, tag));
                    }
                }
                TimerKind::Redial { remote } => {
                    let should = match slot.links.get_mut(&remote) {
                        Some(ol) => {
                            ol.redial_armed = false;
                            ol.conn.is_none()
                        }
                        None => false,
                    };
                    if should {
                        self.dial(peer, remote);
                    }
                }
                TimerKind::Release { to, frame } => {
                    let caps = (self.cfg.max_queue_frames, self.cfg.max_queue_bytes);
                    let (_, mut ctx) =
                        slot.split(peer, self.origin, caps, &mut self.timers, &mut self.vectors);
                    ctx.enqueue(to, frame);
                    self.flush_touched(peer);
                }
            }
        }
    }

    /// Executes one cross-thread task.
    fn handle_task(&mut self, task: Task<M, A>) {
        match task {
            Task::Spawn {
                id,
                actor,
                faults,
                stats,
                decode_errors,
                reply,
            } => {
                if self.peers.contains_key(&id) {
                    let _ = reply.send(Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "peer id already hosted on this reactor",
                    )));
                    return;
                }
                let epoch = self.next_epoch;
                self.next_epoch += 1;
                self.peers.insert(
                    id,
                    PeerSlot {
                        actor,
                        epoch,
                        origin: Instant::now(),
                        stats,
                        decode_errors,
                        faults,
                        next_timer_id: 1,
                        cancelled: HashSet::new(),
                        addrs: HashMap::new(),
                        links: HashMap::new(),
                        loopback: VecDeque::new(),
                        touched: Vec::new(),
                    },
                );
                self.dispatch(id, |a, ctx| a.on_start(ctx));
                let _ = reply.send(Ok(()));
            }
            Task::AddPeer { local, peer, addr } => {
                let caps = (self.cfg.max_queue_frames, self.cfg.max_queue_bytes);
                let dial = {
                    let Some(slot) = self.peers.get_mut(&local) else {
                        return;
                    };
                    // Overwrite on re-registration: a crash-rejoined peer
                    // may come back behind a different reactor/port.
                    slot.addrs.insert(peer, addr);
                    let ol = slot.links.entry(peer).or_insert_with(|| OutLink::new(caps));
                    local.0 < peer.0 && ol.conn.is_none() && !ol.redial_armed
                };
                if dial {
                    self.dial(local, peer);
                }
            }
            Task::Invoke { local, f } => self.dispatch(local, f),
            Task::Despawn { local, reply } => {
                let slot = self.peers.remove(&local);
                let tokens: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, l)| l.local == Some(local))
                    .map(|(t, _)| *t)
                    .collect();
                for t in tokens {
                    self.close_conn(t, false);
                }
                let _ = reply.send(slot.map(|s| s.actor));
            }
            Task::SeverAll => {
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for t in tokens {
                    if let Some(l) = self.conns.get(&t) {
                        let _ = l.stream.shutdown(std::net::Shutdown::Both);
                    }
                    self.close_conn(t, true);
                }
            }
            Task::Shutdown => self.shutdown = true,
        }
    }

    /// Empties the wake pipe so level-triggered polling goes quiet.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Time until the next deadline, capped so a stalled clock can't
    /// wedge the loop.
    fn poll_timeout(&self) -> Duration {
        let cap = Duration::from_millis(100);
        match self.timers.next_deadline_ns() {
            Some(d) => Duration::from_nanos(d.saturating_sub(ns_since(self.origin))).min(cap),
            None => cap,
        }
    }
}

/// The loop thread body: fire timers, run submitted tasks, poll, route
/// readiness. Lint root for the wire-path panic-freedom gate.
///
/// Returning drops `tasks`, the one receiver: later submissions fail, and
/// tasks still queued drop with their reply senders, unblocking any
/// handle mid-call with a disconnect error.
fn reactor_loop<M, A>(mut core: Core<M, A>, tasks: Receiver<Task<M, A>>)
where
    M: WireMsg + Send + 'static,
    A: Actor<M> + Send + 'static,
{
    let mut events = sys::Events::with_capacity(1024);
    let mut ready: Vec<sys::Readiness> = Vec::new();
    let mut batch: Vec<Task<M, A>> = Vec::new();
    loop {
        core.fire_timers();
        // Run what was queued when the pass began; later tasks wait behind
        // the readiness events already due. A kill's closed sockets are
        // then seen before a task submitted after it sends on them (sent
        // into a dead connection, such a frame would be lost).
        batch.extend(tasks.try_iter());
        for (i, t) in batch.drain(..).enumerate() {
            core.handle_task(t);
            // A large task batch can be a dial storm (a scale topology
            // registering thousands of links): drain the accept queue as
            // we go so it cannot overflow while the loop is heads-down.
            if i % 64 == 63 {
                core.accept_ready();
            }
        }
        if core.shutdown {
            break;
        }
        let timeout = core.poll_timeout();
        match core.poller.wait(&mut events, Some(timeout)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // poller gone: nothing left to drive
        }
        ready.clear();
        ready.extend(events.iter());
        for ev in &ready {
            match ev.token {
                TOKEN_WAKE => core.drain_wake(),
                TOKEN_LISTEN => core.accept_ready(),
                token => core.conn_event(token, ev.readable, ev.writable, ev.error),
            }
        }
    }
}

/// A single-threaded epoll runtime hosting many sans-IO peers.
///
/// Spawn one per process (or one per "machine" in a multi-reactor test
/// topology), then [`Reactor::spawn_peer`] each actor onto it. Dropping
/// the reactor shuts the loop down and discards every hosted actor;
/// use [`PeerHandle::stop`] first to retrieve actors.
pub struct Reactor<M, A> {
    shared: Arc<Shared<M, A>>,
    thread: Option<JoinHandle<()>>,
}

impl<M, A> Reactor<M, A>
where
    M: WireMsg + Send + 'static,
    A: Actor<M> + Send + 'static,
{
    /// Binds the shared listener and starts the loop thread.
    ///
    /// When `bind_addr` is a literal socket address the listener is
    /// created with a deep accept backlog (the kernel caps it at
    /// `net.core.somaxconn`): a scale topology dials hundreds of
    /// connections at this one listener in a burst, and `std`'s
    /// hardcoded backlog of 128 would turn the overflow into ~1 s
    /// kernel SYN-retransmit stalls. Hostname binds fall back to
    /// `std`'s resolver path.
    pub fn start(cfg: ReactorConfig) -> io::Result<Reactor<M, A>> {
        let listener = match cfg.bind_addr.parse::<SocketAddr>() {
            Ok(addr) => sys::listen_with_backlog(&addr, 4096)?,
            Err(_) => TcpListener::bind(&cfg.bind_addr)?,
        };
        listener.set_nonblocking(true)?;
        let listen_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = sys::Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTEN, sys::Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, sys::Interest::READ)?;
        let (task_tx, task_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            tasks: task_tx,
            wake: wake_tx,
            listen_addr,
        });
        let core = Core {
            cfg,
            origin: Instant::now(),
            poller,
            listener,
            wake_rx,
            peers: HashMap::new(),
            conns: HashMap::new(),
            next_token: TOKEN_CONN0,
            next_epoch: 0,
            timers: TimerQueue::new(),
            scratch: vec![0u8; conn::READ_CHUNK],
            stage: Stage::new(conn::STAGE_META),
            vectors: Pool::new(),
            shutdown: false,
        };
        let thread = std::thread::Builder::new()
            .name("p2pfl-reactor".to_owned())
            .spawn(move || reactor_loop(core, task_rx))?;
        Ok(Reactor {
            shared,
            thread: Some(thread),
        })
    }

    /// The address of the shared listener fronting every hosted peer.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// Hosts `actor` as peer `id`. Its `on_start` runs on the loop thread
    /// before this returns.
    pub fn spawn_peer(&self, id: NodeId, actor: A) -> io::Result<PeerHandle<M, A>> {
        self.spawn_inner(id, actor, None)
    }

    /// Like [`Reactor::spawn_peer`], but every outgoing send passes
    /// through `plan` — the same declarative fault schedule the simulator
    /// interprets, anchored at this peer's spawn time.
    pub fn spawn_peer_with_faults(
        &self,
        id: NodeId,
        actor: A,
        plan: &FaultPlan,
    ) -> io::Result<PeerHandle<M, A>> {
        self.spawn_inner(id, actor, Some(LinkFaults::new(plan)))
    }

    fn spawn_inner(
        &self,
        id: NodeId,
        actor: A,
        faults: Option<LinkFaults>,
    ) -> io::Result<PeerHandle<M, A>> {
        let stats = Arc::new(StatsCells::default());
        let decode_errors = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let task = Task::Spawn {
            id,
            actor,
            faults,
            stats: stats.clone(),
            decode_errors: decode_errors.clone(),
            reply: tx,
        };
        if !self.shared.submit(task) {
            return Err(stopped());
        }
        match rx.recv() {
            Ok(Ok(())) => Ok(PeerHandle {
                id,
                shared: self.shared.clone(),
                stats,
                decode_errors,
            }),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(stopped()),
        }
    }

    /// Severs every TCP connection on this reactor; dialers recover via
    /// jittered backoff. Chaos-test hook.
    pub fn kill_connections(&self) {
        self.shared.submit(Task::SeverAll);
    }
}

impl<M, A> Drop for Reactor<M, A> {
    fn drop(&mut self) {
        self.shared.submit(Task::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn stopped() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "reactor stopped")
}

/// Handle to one peer hosted on a [`Reactor`].
///
/// Register remote peers, run closures against the actor on the loop
/// thread, read transport counters, and stop (retrieving the actor) or
/// kill it. Dropping the handle leaves the peer running.
pub struct PeerHandle<M, A> {
    id: NodeId,
    shared: Arc<Shared<M, A>>,
    stats: Arc<StatsCells>,
    decode_errors: Arc<AtomicU64>,
}

impl<M, A> PeerHandle<M, A> {
    /// This peer's node id.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The listener address remote peers should be told about — the
    /// hosting reactor's shared listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// Registers a remote peer's reactor address, or re-points an
    /// existing one (crash-rejoin behind a fresh reactor/port). The
    /// lower-id side of each pair dials eagerly on registration.
    pub fn add_peer(&self, peer: NodeId, addr: SocketAddr) {
        self.shared.submit(Task::AddPeer {
            local: self.id,
            peer,
            addr,
        });
    }

    /// Transport counters for this peer.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Frames that arrived but failed to decode as `M` (dropped).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// Runs `f` against the actor *on the loop thread* with the live
    /// transport, returning its result. The closure can send messages
    /// and arm timers exactly like an actor callback (e.g. a SAC leader's
    /// `start_round`).
    ///
    /// # Panics
    /// Panics if the reactor has stopped or the peer was despawned.
    pub fn with<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut A, &mut dyn Transport<M>) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let call: Invocation<M, A> = Box::new(move |a, t| {
            let _ = tx.send(f(a, t));
        });
        let sent = self.shared.submit(Task::Invoke {
            local: self.id,
            f: call,
        });
        if !sent {
            panic!("reactor stopped");
        }
        rx.recv().expect("peer alive on reactor")
    }

    /// Stops the peer and returns its actor for final inspection.
    ///
    /// # Panics
    /// Panics if the reactor has stopped or the peer was already gone.
    pub fn stop(self) -> A {
        let (tx, rx) = mpsc::channel();
        let sent = self.shared.submit(Task::Despawn {
            local: self.id,
            reply: tx,
        });
        if !sent {
            panic!("reactor stopped");
        }
        rx.recv()
            .expect("reactor alive")
            .expect("peer alive on reactor")
    }

    /// Crash-stops the peer, discarding its actor, its timers and
    /// everything it had queued — a process kill, after which only durable
    /// state (e.g. a file-backed Raft record) survives. Its connections
    /// close. Restart by spawning a fresh actor under the same id, on this
    /// reactor or another (then re-point the neighbours with
    /// [`PeerHandle::add_peer`]): higher-id neighbours keep queueing for it
    /// until it dials them again, lower-id neighbours redial with backoff,
    /// and what they write at a listener that does not host the id (yet)
    /// is lost with the refused connection, like any frame in flight to a
    /// crashed process.
    pub fn kill(self) {
        let (tx, rx) = mpsc::channel();
        if self.shared.submit(Task::Despawn {
            local: self.id,
            reply: tx,
        }) {
            let _ = rx.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, Debug, Clone, PartialEq, Eq)]
    struct WireBlob {
        size: u64,
        tag: u64,
    }

    impl p2pfl_simnet::Payload for WireBlob {
        fn size_bytes(&self) -> u64 {
            self.size
        }
    }

    /// Echoes every message back with tag+1 until tag 3, counts
    /// deliveries, and proves timers + loopback work.
    #[derive(Default)]
    struct Echo {
        seen: u64,
        timer_fired: bool,
        loopback_seen: bool,
    }

    impl Actor<WireBlob> for Echo {
        fn on_start(&mut self, ctx: &mut dyn Transport<WireBlob>) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
            ctx.send(ctx.node_id(), WireBlob { size: 1, tag: 999 });
        }
        fn on_message(&mut self, ctx: &mut dyn Transport<WireBlob>, from: NodeId, msg: WireBlob) {
            if msg.tag == 999 {
                self.loopback_seen = true;
                return;
            }
            self.seen += 1;
            if msg.tag < 3 {
                ctx.send(
                    from,
                    WireBlob {
                        size: msg.size,
                        tag: msg.tag + 1,
                    },
                );
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn Transport<WireBlob>, tag: u64) {
            if tag == 42 {
                self.timer_fired = true;
            }
        }
    }

    fn reactor() -> Reactor<WireBlob, Echo> {
        Reactor::start(ReactorConfig::default()).unwrap()
    }

    fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ok() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn ping_pong_timers_and_loopback_one_reactor() {
        let r = reactor();
        let a = r.spawn_peer(NodeId(0), Echo::default()).unwrap();
        let b = r.spawn_peer(NodeId(1), Echo::default()).unwrap();
        a.add_peer(NodeId(1), r.local_addr());
        b.add_peer(NodeId(0), r.local_addr());

        a.with(|_, ctx| ctx.send(NodeId(1), WireBlob { size: 8, tag: 0 }));
        wait_until("ping-pong", || {
            a.with(|e, _| e.seen) + b.with(|e, _| e.seen) >= 4
        });
        std::thread::sleep(Duration::from_millis(20));
        let ea = a.stop();
        let eb = b.stop();
        assert!(ea.timer_fired && eb.timer_fired, "timers did not fire");
        assert!(ea.loopback_seen && eb.loopback_seen, "loopback skipped");
        assert_eq!(ea.seen + eb.seen, 4);
    }

    #[test]
    fn ping_pong_across_two_reactors() {
        let r1 = reactor();
        let r2 = reactor();
        let a = r1.spawn_peer(NodeId(0), Echo::default()).unwrap();
        let b = r2.spawn_peer(NodeId(1), Echo::default()).unwrap();
        a.add_peer(NodeId(1), r2.local_addr());
        b.add_peer(NodeId(0), r1.local_addr());

        // The higher-id peer sends first: its frames must queue until the
        // lower-id side's dial attaches, then flow back over that socket.
        b.with(|_, ctx| ctx.send(NodeId(0), WireBlob { size: 8, tag: 0 }));
        wait_until("cross-reactor ping-pong", || {
            a.with(|e, _| e.seen) + b.with(|e, _| e.seen) >= 4
        });
        let sa = a.stats();
        assert!(sa.frames_sent >= 2 && sa.frames_received >= 2, "{sa:?}");
        a.stop();
        b.stop();
    }

    #[test]
    fn duplicate_spawn_id_is_rejected() {
        let r = reactor();
        let _a = r.spawn_peer(NodeId(0), Echo::default()).unwrap();
        let err = r
            .spawn_peer(NodeId(0), Echo::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn fault_plan_duplicates_and_delays_on_reactor() {
        let plan = FaultPlan::new(7)
            .duplicate(SimTime::ZERO, SimTime::from_secs(3600), 1.0)
            .delay(
                SimTime::ZERO,
                SimTime::from_secs(3600),
                SimDuration::from_millis(30),
                SimDuration::ZERO,
            );
        let r = reactor();
        let b = r.spawn_peer(NodeId(1), Echo::default()).unwrap();
        let a = r
            .spawn_peer_with_faults(NodeId(0), Echo::default(), &plan)
            .unwrap();
        a.add_peer(NodeId(1), r.local_addr());
        let sent_at = Instant::now();
        a.with(|_, ctx| ctx.send(NodeId(1), WireBlob { size: 8, tag: 3 }));

        wait_until("duplicate copy", || b.with(|e, _| e.seen) >= 2);
        assert!(
            sent_at.elapsed() >= Duration::from_millis(30),
            "delay window did not hold the frames back"
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.with(|e, _| e.seen), 2, "expected exactly two copies");
    }

    #[test]
    fn fault_plan_loss_counts_dropped_sends() {
        let plan = FaultPlan::new(3).loss(SimTime::ZERO, SimTime::from_secs(3600), 1.0);
        let r = reactor();
        let b = r.spawn_peer(NodeId(1), Echo::default()).unwrap();
        let a = r
            .spawn_peer_with_faults(NodeId(0), Echo::default(), &plan)
            .unwrap();
        a.add_peer(NodeId(1), r.local_addr());
        for tag in 0..5u64 {
            a.with(move |_, ctx| {
                ctx.send(
                    NodeId(1),
                    WireBlob {
                        size: 8,
                        tag: 3 + tag,
                    },
                )
            });
        }
        wait_until("drops counted", || a.stats().sends_dropped >= 5);
        assert_eq!(a.stats().frames_sent, 0, "lossy frames reached the wire");
        assert_eq!(b.with(|e, _| e.seen), 0);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct T {
            fired: bool,
        }
        impl Actor<WireBlob> for T {
            fn on_start(&mut self, ctx: &mut dyn Transport<WireBlob>) {
                let id = ctx.set_timer(SimDuration::from_millis(30), 1);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _: &mut dyn Transport<WireBlob>, _: NodeId, _: WireBlob) {}
            fn on_timer(&mut self, _: &mut dyn Transport<WireBlob>, _: u64) {
                self.fired = true;
            }
        }
        let r: Reactor<WireBlob, T> = Reactor::start(ReactorConfig::default()).unwrap();
        let h = r.spawn_peer(NodeId(0), T { fired: false }).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert!(!h.stop().fired);
    }

    #[test]
    fn sever_reconnects_and_counts() {
        let r1 = reactor();
        let r2 = reactor();
        let a = r1.spawn_peer(NodeId(0), Echo::default()).unwrap();
        let b = r2.spawn_peer(NodeId(1), Echo::default()).unwrap();
        a.add_peer(NodeId(1), r2.local_addr());
        b.add_peer(NodeId(0), r1.local_addr());

        a.with(|_, ctx| ctx.send(NodeId(1), WireBlob { size: 8, tag: 3 }));
        wait_until("first delivery", || b.with(|e, _| e.seen) >= 1);

        r1.kill_connections();
        r2.kill_connections();
        a.with(|_, ctx| ctx.send(NodeId(1), WireBlob { size: 8, tag: 3 }));
        wait_until("delivery after sever", || b.with(|e, _| e.seen) >= 2);
        let stats = a.stats();
        assert!(stats.reconnects >= 1, "reconnect not counted: {stats:?}");
        assert!(
            stats.reconnect_attempts >= 1,
            "redial not counted: {stats:?}"
        );
    }

    /// An actor whose bounded stash evicts everything it is sent and
    /// whose commitment check rejects it twice over — the reactor must
    /// mirror both cumulative counts into [`NetStats`].
    #[derive(Default)]
    struct Stashy {
        evicted: u64,
    }

    impl Actor<WireBlob> for Stashy {
        fn on_message(&mut self, _ctx: &mut dyn Transport<WireBlob>, _from: NodeId, _m: WireBlob) {
            self.evicted += 1;
        }
        fn stash_evicted(&self) -> u64 {
            self.evicted
        }
        fn shares_rejected(&self) -> u64 {
            2 * self.evicted
        }
    }

    #[test]
    fn actor_stash_evictions_and_share_rejections_surface_in_net_stats() {
        let r: Reactor<WireBlob, Stashy> = Reactor::start(ReactorConfig::default()).unwrap();
        let h = r.spawn_peer(NodeId(0), Stashy::default()).unwrap();
        assert_eq!((h.stats().stash_evicted, h.stats().shares_rejected), (0, 0));
        h.with(|a, ctx| {
            for _ in 0..3 {
                a.on_message(ctx, NodeId(1), WireBlob { size: 1, tag: 0 });
            }
        });
        wait_until("counter mirror", || h.stats().shares_rejected >= 6);
        assert_eq!((h.stats().stash_evicted, h.stats().shares_rejected), (3, 6));
        h.stop();
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
            "distinct dialers should de-synchronize"
        );
    }

    /// Records who sent which tag; sends only when driven via `with`.
    #[derive(Default)]
    struct Log {
        got: Vec<(u32, u64)>,
    }

    impl Actor<WireBlob> for Log {
        fn on_message(&mut self, _ctx: &mut dyn Transport<WireBlob>, from: NodeId, m: WireBlob) {
            self.got.push((from.0, m.tag));
        }
    }

    type LogHandle = PeerHandle<WireBlob, Log>;

    fn log_reactor_at(bind_addr: &str) -> Reactor<WireBlob, Log> {
        Reactor::start(ReactorConfig {
            bind_addr: bind_addr.to_owned(),
            ..ReactorConfig::default()
        })
        .unwrap()
    }

    fn send_tags(from: &LogHandle, to: u32, tags: std::ops::Range<u64>) {
        from.with(move |_, ctx| {
            for tag in tags {
                ctx.send(NodeId(to), WireBlob { size: 8, tag });
            }
        });
    }

    /// Tags `at` has received from `from`, in arrival order.
    fn tags_from(at: &LogHandle, from: u32) -> Vec<u64> {
        at.with(move |a, _| {
            let of_sender = a.got.iter().filter(|(f, _)| *f == from);
            of_sender.map(|(_, t)| *t).collect()
        })
    }

    fn wait_tags(what: &str, at: &LogHandle, from: u32, want: std::ops::Range<u64>) {
        let want: Vec<u64> = want.collect();
        wait_until(what, || tags_from(at, from) == want);
    }

    #[test]
    fn messages_queued_before_listener_peer_arrive() {
        // Register b at its future address before anything listens there:
        // a (the dialer) must keep retrying and deliver once b is hosted.
        // Reserve a port by binding then dropping (racy in principle, fine
        // on loopback in practice).
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let r1 = log_reactor_at("127.0.0.1:0");
        let a = r1.spawn_peer(NodeId(0), Log::default()).unwrap();
        a.add_peer(NodeId(1), addr);
        send_tags(&a, 1, 0..3);
        wait_until("refused dials", || a.stats().reconnect_attempts >= 2);

        // The listener comes up before the peer does: a dial landing in
        // between is refused at the hello and must cost no frame.
        let r2 = log_reactor_at(&addr.to_string());
        std::thread::sleep(Duration::from_millis(30));
        let b = r2.spawn_peer(NodeId(1), Log::default()).unwrap();
        wait_tags("early frames", &b, 0, 0..3);
        assert_eq!(a.stats().sends_dropped, 0);
        assert_eq!(a.stats().frames_sent, 3);
    }

    #[test]
    fn frames_split_over_small_writes_arrive_in_order_and_a_fin_behind_them_closes() {
        // Reads stop at a short one unless a frame is half in; frames cut
        // anywhere, header included, must still all come out, in order,
        // and an EOF right behind the last byte must still close the link.
        let r = log_reactor_at("127.0.0.1:0");
        let p = r.spawn_peer(NodeId(0), Log::default()).unwrap();
        let mut wire = conn::hello_frame_v2(NodeId(7), NodeId(0));
        for tag in 0..20 {
            wire.extend(crate::codec::to_frame_bytes(&WireBlob { size: 8, tag }).unwrap());
        }
        let mut s = std::net::TcpStream::connect(r.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for (i, piece) in wire.chunks(5).enumerate() {
            s.write_all(piece).unwrap();
            if i % 8 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        s.shutdown(std::net::Shutdown::Write).unwrap();
        wait_tags("frames cut into 5-byte writes", &p, 7, 0..20);
        // The hello is answered, then the EOF closes the connection.
        let mut back = Vec::new();
        s.read_to_end(&mut back).unwrap();
        assert_eq!(back, conn::hello_frame_v2(NodeId(0), NodeId(7)));
        assert_eq!(p.stats().frames_received, 20);
    }

    /// Kills peer 1 of a {0, 1, 2} mesh on `r1` once every link is up,
    /// then has both neighbours send it `tags` while it is gone.
    fn mesh_with_peer_1_killed(
        r1: &Reactor<WireBlob, Log>,
        tags: std::ops::Range<u64>,
    ) -> (LogHandle, LogHandle) {
        let spawn = |id| r1.spawn_peer(NodeId(id), Log::default()).unwrap();
        let (l, p, h) = (spawn(0), spawn(1), spawn(2));
        for a in [&l, &p, &h] {
            for b in 0..3 {
                if a.node_id() != NodeId(b) {
                    a.add_peer(NodeId(b), r1.local_addr());
                }
            }
        }
        send_tags(&l, 1, 0..1);
        send_tags(&h, 1, 0..1);
        wait_until("links to the first incarnation", || {
            p.with(|a, _| a.got.len()) == 2
        });
        p.kill();
        send_tags(&l, 1, tags.clone());
        send_tags(&h, 1, tags);
        (l, h)
    }

    /// Both neighbours' downtime frames reach the new incarnation `p` in
    /// order, and fresh frames flow both ways on both links.
    fn assert_rejoined(l: &LogHandle, p: &LogHandle, h: &LogHandle, queued: std::ops::Range<u64>) {
        wait_tags("lower-id neighbour's queue", p, 0, queued.clone());
        wait_tags("higher-id neighbour's queue", p, 2, queued.clone());
        for n in [l, h] {
            let s = n.stats();
            assert_eq!(s.sends_dropped, 0, "{:?}: {s:?}", n.node_id());
            assert_eq!(s.frames_sent, 1 + queued.clone().count() as u64);
        }
        assert!(
            l.stats().reconnects >= 1,
            "redial not counted: {:?}",
            l.stats()
        );

        send_tags(p, 0, 50..52);
        send_tags(p, 2, 50..52);
        wait_tags("new incarnation -> lower", l, 1, 50..52);
        wait_tags("new incarnation -> higher", h, 1, 50..52);
        send_tags(l, 1, 90..91);
        wait_until("lower -> new incarnation", || {
            tags_from(p, 0).last() == Some(&90)
        });
    }

    #[test]
    fn killed_peer_respawns_on_the_same_reactor() {
        let r1 = log_reactor_at("127.0.0.1:0");
        let (l, h) = mesh_with_peer_1_killed(&r1, 10..15);
        // Long enough for the lower-id neighbour to redial a listener
        // that no longer hosts peer 1 and be refused.
        wait_until("refused redial", || l.stats().reconnect_attempts >= 2);

        let p = r1.spawn_peer(NodeId(1), Log::default()).unwrap();
        p.add_peer(NodeId(0), r1.local_addr());
        p.add_peer(NodeId(2), r1.local_addr());
        assert_rejoined(&l, &p, &h, 10..15);
    }

    #[test]
    fn killed_peer_respawns_on_a_fresh_reactor() {
        let r1 = log_reactor_at("127.0.0.1:0");
        let (l, h) = mesh_with_peer_1_killed(&r1, 10..15);

        // Crash-rejoin at a new address: a second reactor hosts the new
        // incarnation and the neighbours are re-pointed.
        let r2 = log_reactor_at("127.0.0.1:0");
        let p = r2.spawn_peer(NodeId(1), Log::default()).unwrap();
        p.add_peer(NodeId(0), r1.local_addr());
        p.add_peer(NodeId(2), r1.local_addr());
        l.add_peer(NodeId(1), r2.local_addr());
        h.add_peer(NodeId(1), r2.local_addr());
        assert_rejoined(&l, &p, &h, 10..15);
    }

    #[test]
    fn timers_of_a_killed_incarnation_do_not_fire_into_its_successor() {
        struct Alarm {
            incarnation: u64,
            fired: Vec<u64>,
        }
        impl Actor<WireBlob> for Alarm {
            fn on_start(&mut self, ctx: &mut dyn Transport<WireBlob>) {
                ctx.set_timer(SimDuration::from_millis(40), self.incarnation);
            }
            fn on_message(&mut self, _: &mut dyn Transport<WireBlob>, _: NodeId, _: WireBlob) {}
            fn on_timer(&mut self, _: &mut dyn Transport<WireBlob>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let alarm = |incarnation| Alarm {
            incarnation,
            fired: Vec::new(),
        };
        let r: Reactor<WireBlob, Alarm> = Reactor::start(ReactorConfig::default()).unwrap();
        r.spawn_peer(NodeId(0), alarm(1)).unwrap().kill();
        let h = r.spawn_peer(NodeId(0), alarm(2)).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(h.stop().fired, vec![2]);
    }

    #[test]
    fn killed_peer_fault_delayed_frames_die_with_it() {
        let plan = FaultPlan::new(5).delay(
            SimTime::ZERO,
            SimTime::from_secs(3600),
            SimDuration::from_millis(200),
            SimDuration::ZERO,
        );
        let r = log_reactor_at("127.0.0.1:0");
        let remote = r.spawn_peer(NodeId(1), Log::default()).unwrap();
        let dead = r
            .spawn_peer_with_faults(NodeId(0), Log::default(), &plan)
            .unwrap();
        dead.add_peer(NodeId(1), r.local_addr());
        send_tags(&dead, 1, 0..3);
        let killed_at = Instant::now();
        dead.kill();

        let next = r.spawn_peer(NodeId(0), Log::default()).unwrap();
        next.add_peer(NodeId(1), r.local_addr());
        send_tags(&next, 1, 100..101);
        wait_tags("the new incarnation's frame", &remote, 0, 100..101);
        // Well past the dead incarnation's release time.
        std::thread::sleep(Duration::from_millis(400).saturating_sub(killed_at.elapsed()));
        assert_eq!(tags_from(&remote, 0), vec![100]);
    }

    #[test]
    fn handles_outliving_their_reactor_fail_fast() {
        let r = reactor();
        let a = r.spawn_peer(NodeId(0), Echo::default()).unwrap();
        let b = r.spawn_peer(NodeId(1), Echo::default()).unwrap();
        drop(r);
        a.kill();
        let panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.with(|e, _| e.seen)))
                .unwrap_err();
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"reactor stopped"));

        // `spawn_peer` needs the reactor itself, so stop its loop the way
        // dropping it does and keep it.
        let mut r = reactor();
        r.shared.submit(Task::Shutdown);
        r.thread.take().unwrap().join().unwrap();
        let err = r
            .spawn_peer(NodeId(2), Echo::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    use p2pfl_secagg::{SacMsg, WeightVector};

    struct Quiet;

    impl Actor<SacMsg> for Quiet {
        fn on_message(&mut self, _: &mut dyn Transport<SacMsg>, _: NodeId, _: SacMsg) {}
    }

    /// Sends to `NodeId(9)`, which never connects, a subtotal of `dim`
    /// drawn from the host's pool after `first` (a message sent ahead of
    /// it), and returns whether the pool lends that storage out again at
    /// once: whether the message's vector came back.
    fn dropped_vector_comes_back(
        h: &PeerHandle<SacMsg, Quiet>,
        first: Option<SacMsg>,
        dim: usize,
    ) -> bool {
        h.with(move |_, ctx| {
            if let Some(first) = first {
                ctx.send(NodeId(9), first);
            }
            let mut storage = ctx.take_f64(dim);
            storage.resize(dim, 7.0);
            let value = WeightVector::new(storage);
            ctx.send(
                NodeId(9),
                SacMsg::Subtotal {
                    round: 1,
                    idx: 0,
                    value,
                },
            );
            // Pooled storage comes back as it was given; fresh storage
            // is empty.
            ctx.take_f64(dim).first() == Some(&7.0)
        })
    }

    #[test]
    fn a_frame_dropped_before_the_wire_gives_its_vectors_back() {
        let begin = || Some(SacMsg::Begin { round: 0 });
        // Refused by a one-frame queue cap.
        let cfg = ReactorConfig {
            max_queue_frames: 1,
            ..ReactorConfig::default()
        };
        let r: Reactor<SacMsg, Quiet> = Reactor::start(cfg).unwrap();
        let h = r.spawn_peer(NodeId(0), Quiet).unwrap();
        assert!(dropped_vector_comes_back(&h, begin(), 1000), "queue cap");
        // Lost to the fault plan.
        let plan = FaultPlan::new(3).loss(SimTime::ZERO, SimTime::from_secs(3600), 1.0);
        let r: Reactor<SacMsg, Quiet> = Reactor::start(ReactorConfig::default()).unwrap();
        let h = r.spawn_peer_with_faults(NodeId(0), Quiet, &plan).unwrap();
        assert!(dropped_vector_comes_back(&h, None, 1000), "fault plan");
        // Over `MAX_FRAME`: it has no frame.
        let h = r.spawn_peer(NodeId(1), Quiet).unwrap();
        assert!(
            dropped_vector_comes_back(&h, None, crate::codec::MAX_FRAME / 8),
            "unframeable"
        );
        assert_eq!(h.stats().sends_dropped, 1);
        // A queued frame keeps its vector until written.
        assert!(!dropped_vector_comes_back(&h, None, 1000), "queued");
    }
}
