//! Receive storage is reused from round to round. Four links of one
//! reactor carry concurrent bulk frames in bursts. A bulk frame's vector
//! is received in place, into storage drawn from the reactor's vector
//! pool when the frame's header is in, and the receiving actor gives it
//! back once done, as a round core does; so the reactor keeps what its
//! links held at once, and the third burst is received into the second's
//! storage and allocates none. A reactor that received a bulk frame into
//! a buffer of its own, or into vectors it did not keep, allocates every
//! burst afresh, and a sender that encoded each bulk frame whole would
//! allocate one buffer of frame size per frame sent.
//!
//! The bursts' frames are written from the test over raw connections, so
//! that all four are in flight together by construction: each link gets
//! the first half of its frame, the reactor is seen to have read every
//! half, and only then do the second halves go out. A last burst is sent
//! by a hosted peer, of messages built before counting starts, into
//! storage the reactor already keeps, so any buffer allocated then of a
//! vector's or a frame's size is the reactor's.

use p2pfl_bench::testkit::{assert_clean_wire, reactor, spawn_group, wait_for};
use p2pfl_net::codec::{read_frame, to_frame_bytes, write_frame};
use p2pfl_net::PeerHandle;
use p2pfl_secagg::{SacMsg, WeightVector};
use p2pfl_simnet::{Actor, NodeId, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Counts allocations of exactly [`WATCHED`] or [`WATCHED_FRAME`] bytes,
/// process-wide: the receive storage lives on the reactor's loop thread,
/// not the test's.
struct SizeCounter;

/// The size of a decoded vector: the storage a bulk frame's run is
/// received into.
static WATCHED: AtomicUsize = AtomicUsize::new(usize::MAX);
/// The size of the frame carrying it: a buffer that held the whole frame.
static WATCHED_FRAME: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size == WATCHED.load(Ordering::Relaxed) || size == WATCHED_FRAME.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only an atomic add.
unsafe impl GlobalAlloc for SizeCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: SizeCounter = SizeCounter;

/// Receivers of the bursts, each a link of its own.
const LINKS: u32 = 4;
/// Parameters per bulk frame: 8 MB of `f64`s.
const PARAMS: usize = 1_000_000;
/// Bursts written over the raw links: each carries one bulk frame per
/// burst.
const BURSTS: usize = 3;

/// Counts what arrives and gives its vector back to the host.
#[derive(Default)]
struct Drain {
    got: usize,
}

impl Actor<SacMsg> for Drain {
    fn on_message(&mut self, ctx: &mut dyn Transport<SacMsg>, _from: NodeId, msg: SacMsg) {
        self.got += 1;
        if let SacMsg::Subtotal { value, .. } = msg {
            ctx.give_f64(value.into_inner());
        }
    }
}

fn subtotal(params: usize) -> SacMsg {
    SacMsg::Subtotal {
        round: 1,
        idx: 0,
        value: WeightVector::zeros(params),
    }
}

/// The hello payload of `src` dialing `dst`.
fn hello(src: u32, dst: u32) -> Vec<u8> {
    let mut hello = b"p2pf\x02".to_vec();
    hello.extend_from_slice(&src.to_le_bytes());
    hello.extend_from_slice(&dst.to_le_bytes());
    hello
}

/// Returns once the reactor loop has handled every socket event that
/// was due when it was called: a task runs at the start of a loop pass,
/// before that pass waits for readiness, so the second task runs after
/// a whole pass that began behind the first.
fn settle(h: &PeerHandle<SacMsg, Drain>) {
    h.with(|_, _| ());
    h.with(|_, _| ());
}

#[test]
fn concurrent_bulk_frames_reuse_the_last_bursts_receive_storage() {
    let r = reactor::<SacMsg, Drain>();
    let peers = spawn_group(&r, (0..=LINKS).map(|i| (NodeId(i), Drain::default())), None);
    let (sender, receivers) = peers.split_first().expect("a sender");
    for d in receivers {
        sender.add_peer(d.node_id(), r.local_addr());
        d.add_peer(sender.node_id(), r.local_addr());
    }
    let to: Vec<NodeId> = receivers.iter().map(|d| d.node_id()).collect();
    let delivered = |n: usize| receivers.iter().all(|d| d.with(|a, _| a.got) == n);

    // Every hosted link up, with a small frame through it.
    let links = to.clone();
    sender.with(move |_, ctx| links.iter().for_each(|&d| ctx.send(d, subtotal(1))));
    wait_for("links up", Duration::from_secs(30), || delivered(1));

    // One raw link per receiver, from a peer the reactor does not host.
    let mut raw: Vec<TcpStream> = to
        .iter()
        .map(|d| {
            let mut conn = TcpStream::connect(r.local_addr()).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            write_frame(&mut conn, &hello(100 + d.0, d.0)).expect("hello");
            let answer = read_frame(&mut conn).expect("hello answered");
            assert_eq!(answer, hello(d.0, 100 + d.0));
            conn
        })
        .collect();

    // A frame's run is received into storage of exactly the decoded
    // vector's size, so every allocation of that size, or of the frame's,
    // on either side, counts. The bursts' bytes are encoded once, and the
    // hosted sender's messages built, before counting starts.
    let wire = to_frame_bytes(&subtotal(PARAMS)).expect("encodes");
    let (vector, frame) = (8 * PARAMS, wire.len());
    let (head, tail) = wire.split_at(frame / 2);
    let burst: Vec<SacMsg> = (0..LINKS).map(|_| subtotal(PARAMS)).collect();
    WATCHED.store(vector, Ordering::Relaxed);
    WATCHED_FRAME.store(frame, Ordering::Relaxed);
    let mut fresh = Vec::new();
    for burst in 0..BURSTS {
        let before = COUNT.load(Ordering::Relaxed);
        // Every link's frame begins before any can end.
        for conn in &mut raw {
            conn.write_all(head).expect("first half");
        }
        settle(&receivers[0]);
        for conn in &mut raw {
            conn.write_all(tail).expect("second half");
        }
        wait_for("bulk frames", Duration::from_secs(60), || {
            delivered(burst + 2)
        });
        fresh.push(COUNT.load(Ordering::Relaxed) - before);
    }

    // The first burst draws each link's vector, and the second's
    // storage is kept; the third must need nothing new.
    assert_eq!(
        fresh.last(),
        Some(&0),
        "buffers of {vector} or {frame} B allocated per burst of {LINKS} frames: {fresh:?}; \
         the last burst should have reused the storage of the one before"
    );

    // A burst from the hosted sender: the reactor keeps storage for four
    // vectors at once, so nothing of their size is needed on receipt,
    // and the sender writes from the messages' own vectors.
    let before = COUNT.load(Ordering::Relaxed);
    let links = to.clone();
    sender.with(move |_, ctx| {
        for (&d, msg) in links.iter().zip(burst) {
            ctx.send(d, msg);
        }
    });
    wait_for("bulk frames", Duration::from_secs(60), || {
        delivered(BURSTS + 2)
    });
    wait_for("send queue drained", Duration::from_secs(30), || {
        sender.stats().frames_sent == 2 * LINKS as u64
    });
    let sent = COUNT.load(Ordering::Relaxed) - before;
    WATCHED.store(usize::MAX, Ordering::Relaxed);
    WATCHED_FRAME.store(usize::MAX, Ordering::Relaxed);
    assert_clean_wire(&peers);
    assert_eq!(
        sent, 0,
        "a hosted burst allocated {sent} buffers of {vector} or {frame} B"
    );
}
