//! Receive storage is reused from round to round. Four links of one
//! reactor carry concurrent bulk frames in bursts. The storage of a
//! link's first bulk frame is kept only as the one spare a one-off burst
//! may leave (`tests/rx_memory.rs`); from a link's second bulk frame on,
//! the reactor keeps what its links held at once, so the third burst is
//! received into the second's storage and allocates none. A reactor that
//! kept one spare buffer allocates all but one of every burst's receive
//! buffers afresh.

use p2pfl_bench::testkit::{assert_clean_wire, reactor, spawn_group, wait_for};
use p2pfl_net::codec::to_frame_bytes;
use p2pfl_secagg::{SacMsg, WeightVector};
use p2pfl_simnet::{Actor, NodeId, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// Receivers of the one sender, each a link of its own.
const LINKS: u32 = 4;
/// Parameters per bulk frame: 8 MB of `f64`s, more than a loopback
/// socket takes in one write, so the frames of a burst are in flight
/// together.
const PARAMS: usize = 1_000_000;
/// Bursts sent: each link carries one bulk frame per burst.
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

    // Every link up, with a small frame through it.
    let links = to.clone();
    sender.with(move |_, ctx| links.iter().for_each(|&d| ctx.send(d, subtotal(1))));
    wait_for("links up", Duration::from_secs(30), || delivered(1));

    // A frame's receive storage is exactly its wire size; so is the
    // sender's encoding of it, once per frame sent.
    let frame = to_frame_bytes(&subtotal(PARAMS)).expect("encodes").len();
    WATCHED.store(frame, Ordering::Relaxed);
    let mut fresh = Vec::new();
    for burst in 0..BURSTS {
        let before = COUNT.load(Ordering::Relaxed);
        // One callback sends the whole burst, so every frame is queued
        // before any is read.
        let links = to.clone();
        sender.with(move |_, ctx| links.iter().for_each(|&d| ctx.send(d, subtotal(PARAMS))));
        wait_for("bulk frames", Duration::from_secs(60), || {
            delivered(burst + 2)
        });
        wait_for("send queue drained", Duration::from_secs(30), || {
            sender.stats().frames_sent == (LINKS as u64) * (burst as u64 + 2)
        });
        let sized = COUNT.load(Ordering::Relaxed) - before;
        fresh.push(
            sized
                .checked_sub(LINKS as usize)
                .expect("one encoding per frame sent"),
        );
    }
    WATCHED.store(usize::MAX, Ordering::Relaxed);
    assert_clean_wire(&peers);

    // The first burst is each link's first bulk frame, and the second's
    // storage is kept; the third must need nothing new.
    assert_eq!(
        fresh.last(),
        Some(&0),
        "receive buffers of {frame} B allocated per burst of {LINKS} frames: {fresh:?}; \
         the last burst should have reused the storage of the one before"
    );
}
