//! Receive storage is reused from round to round. Four links of one
//! reactor carry concurrent bulk frames in bursts. The storage of a
//! link's first bulk frame is kept only as the one spare a one-off burst
//! may leave (`tests/rx_memory.rs`); from a link's second bulk frame on,
//! the reactor keeps what its links held at once, so the third burst is
//! received into the second's storage and allocates none. A reactor that
//! kept one spare buffer allocates all but one of every burst's receive
//! buffers afresh, and a sender that encoded each bulk frame whole would
//! allocate one buffer of frame size per frame sent.
//!
//! The bursts' frames are written from the test over raw connections, so
//! that all four are in flight together by construction: each link gets
//! the first half of its frame, the reactor is seen to have read every
//! half, and only then do the second halves go out. A last burst is sent
//! by a hosted peer, into storage the reactor already keeps, so any
//! buffer of frame size allocated then is the sender's.

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

/// Counts allocations of exactly [`WATCHED`] bytes, process-wide: the
/// receive buffers live on the reactor's loop thread, not the test's.
struct SizeCounter;

static WATCHED: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size == WATCHED.load(Ordering::Relaxed) {
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

/// Counts what arrives and drops it.
#[derive(Default)]
struct Drain {
    got: usize,
}

impl Actor<SacMsg> for Drain {
    fn on_message(&mut self, _ctx: &mut dyn Transport<SacMsg>, _from: NodeId, _msg: SacMsg) {
        self.got += 1;
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

    // A frame's receive storage is exactly its wire size, so every
    // allocation of that size, on either side, counts. The bursts'
    // bytes are encoded once, before counting starts.
    let wire = to_frame_bytes(&subtotal(PARAMS)).expect("encodes");
    let frame = wire.len();
    let (head, tail) = wire.split_at(frame / 2);
    WATCHED.store(frame, Ordering::Relaxed);
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

    // The first burst is each link's first bulk frame, and the second's
    // storage is kept; the third must need nothing new.
    assert_eq!(
        fresh.last(),
        Some(&0),
        "buffers of {frame} B allocated per burst of {LINKS} frames: {fresh:?}; \
         the last burst should have reused the storage of the one before \
         and sent without a frame-sized buffer"
    );

    // A burst from the hosted sender: the reactor keeps storage for four
    // frames at once, so nothing of frame size is needed on receipt.
    let before = COUNT.load(Ordering::Relaxed);
    let links = to.clone();
    sender.with(move |_, ctx| links.iter().for_each(|&d| ctx.send(d, subtotal(PARAMS))));
    wait_for("bulk frames", Duration::from_secs(60), || {
        delivered(BURSTS + 2)
    });
    wait_for("send queue drained", Duration::from_secs(30), || {
        sender.stats().frames_sent == 2 * LINKS as u64
    });
    let sent = COUNT.load(Ordering::Relaxed) - before;
    WATCHED.store(usize::MAX, Ordering::Relaxed);
    assert_clean_wire(&peers);
    assert_eq!(sent, 0, "the sender allocated {sent} buffers of {frame} B");
}
