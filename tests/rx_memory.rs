//! Receive memory follows the frames in flight, not the links: after one
//! reactor has delivered a bulk frame on each of sixteen links, and the
//! receivers have dropped the vectors they got, the live heap is back
//! within two decoded vectors of where it stood before the sends — a
//! vector the reactor's pool may keep from the burst, plus slack. A
//! bulk frame's run is received straight into the vector it decodes to,
//! so a link keeps no storage of a frame's size; one that kept the
//! buffer its largest frame was read into would hold sixteen.

use p2pfl_bench::testkit::{assert_clean_wire, reactor, spawn_group, wait_for};
use p2pfl_secagg::{SacMsg, WeightVector};
use p2pfl_simnet::{Actor, NodeId, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Counts the bytes currently allocated, process-wide: the receive
/// storage lives on the reactor's loop thread, not the test's.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is only an atomic add/sub.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Pairs of sender -> receiver on the one reactor.
const PAIRS: u32 = 16;
/// Parameters per bulk frame: 4 MB of `f64`s.
const PARAMS: usize = 500_000;

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
fn delivered_bulk_frames_leave_no_receive_buffer_per_link() {
    let r = reactor::<SacMsg, Drain>();
    let peers = spawn_group(
        &r,
        (0..2 * PAIRS).map(|i| (NodeId(i), Drain::default())),
        None,
    );
    let (senders, receivers) = peers.split_at(PAIRS as usize);
    for (s, d) in senders.iter().zip(receivers) {
        s.add_peer(d.node_id(), r.local_addr());
        d.add_peer(s.node_id(), r.local_addr());
    }
    let delivered = |n: usize| receivers.iter().all(|d| d.with(|a, _| a.got) == n);

    // Every link up, with a small frame through it, before the baseline.
    for (s, d) in senders.iter().zip(receivers) {
        let to = d.node_id();
        s.with(move |_, ctx| ctx.send(to, subtotal(1)));
    }
    wait_for("links up", Duration::from_secs(30), || delivered(1));
    let baseline = LIVE.load(Ordering::Relaxed);

    for (s, d) in senders.iter().zip(receivers) {
        let to = d.node_id();
        s.with(move |_, ctx| ctx.send(to, subtotal(PARAMS)));
    }
    wait_for("bulk frames", Duration::from_secs(60), || delivered(2));
    wait_for("send queues drained", Duration::from_secs(30), || {
        senders.iter().all(|s| s.stats().frames_sent == 2)
    });
    assert_clean_wire(&peers);

    // The size of a decoded vector, which a frame's run is received into.
    let vector = 8 * PARAMS;
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        retained < 2 * vector,
        "{retained} B still allocated after {PAIRS} vectors of {vector} B were delivered and \
         dropped: {:.1} vectors, expected under 2 (one the pool keeps plus slack)",
        retained as f64 / vector as f64
    );
}
