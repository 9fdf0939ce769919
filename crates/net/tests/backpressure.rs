//! Backpressure isolation: a slow consumer stalls *only its own* link.
//!
//! One reactor-hosted sender pushes bulk frames at two destinations: a
//! healthy receiver on a second reactor, and a deliberately slow TCP
//! endpoint that drains its socket at ~1/100th of the send rate. The
//! reactor's bounded per-link queue must absorb the slow link by
//! *dropping* (counted in `sends_dropped`, memory capped at the
//! configured frame/byte limits) while the healthy link — and the loop
//! itself — keeps flowing at full speed.

use p2pfl_net::{PeerHandle, Reactor, ReactorConfig};
use p2pfl_simnet::{Actor, NodeId, Payload, Transport};
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize, Deserialize, Debug, Clone)]
struct Bulk {
    seq: u64,
    pad: Vec<u8>,
}

impl Payload for Bulk {
    fn size_bytes(&self) -> u64 {
        8 + self.pad.len() as u64
    }
}

/// Counts deliveries; sends only when driven via `with`.
#[derive(Default)]
struct Counter {
    seen: u64,
}

impl Actor<Bulk> for Counter {
    fn on_message(&mut self, _ctx: &mut dyn Transport<Bulk>, _from: NodeId, _m: Bulk) {
        self.seen += 1;
    }
}

const FRAME_PAD: usize = 256 << 10; // 256 KiB payload per frame
const FRAMES: u64 = 600; // ~150 MiB per destination
const QUEUE_FRAMES: usize = 64;
const QUEUE_BYTES: usize = 2 << 20; // 2 MiB — far below the offered load
/// Frames the sender may be ahead of the healthy receiver: 1 MiB.
const HEALTHY_AHEAD: u64 = 4;
/// Time the healthy link has to deliver the whole load, pacing included.
const HEALTHY_DEADLINE: Duration = Duration::from_secs(30);

/// A TCP sink that reads tiny chunks with long pauses: the "1/100th
/// speed" peer. Returns total bytes drained when `stop` flips.
fn slow_sink(listener: TcpListener, stop: Arc<AtomicBool>, drained: Arc<AtomicU64>) {
    let Ok((mut sock, _)) = listener.accept() else {
        return;
    };
    // Answer the sender's hello as peer 2 would, or it sends no payload.
    let mut answer = b"p2pf\x02".to_vec();
    answer.extend_from_slice(&2u32.to_le_bytes());
    answer.extend_from_slice(&0u32.to_le_bytes());
    if p2pfl_net::codec::write_frame(&mut sock, &answer).is_err() {
        return;
    }
    let _ = sock.set_read_timeout(Some(Duration::from_millis(20)));
    let mut buf = [0u8; 256];
    while !stop.load(Ordering::Relaxed) {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                drained.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        // A fast sender could push this many bytes ~100x faster.
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn wait_until(what: &str, timeout: Duration, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slow_consumer_stalls_only_its_own_link() {
    let cfg = ReactorConfig {
        max_queue_frames: QUEUE_FRAMES,
        max_queue_bytes: QUEUE_BYTES,
        ..ReactorConfig::default()
    };
    let r_send: Reactor<Bulk, Counter> = Reactor::start(cfg).unwrap();
    let r_recv: Reactor<Bulk, Counter> = Reactor::start(ReactorConfig::default()).unwrap();

    let sender = r_send.spawn_peer(NodeId(0), Counter::default()).unwrap();
    let healthy = r_recv.spawn_peer(NodeId(1), Counter::default()).unwrap();

    // The slow endpoint accepts the sender's dial but drains at a crawl.
    let slow_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let slow_addr = slow_listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let drained = Arc::new(AtomicU64::new(0));
    let sink = {
        let (stop, drained) = (stop.clone(), drained.clone());
        std::thread::spawn(move || slow_sink(slow_listener, stop, drained))
    };

    sender.add_peer(NodeId(1), r_recv.local_addr());
    sender.add_peer(NodeId(2), slow_addr);

    // Send the same bulk load to both destinations, a few frames ahead
    // of what the healthy link has delivered: under its queue's byte cap,
    // so a healthy link that flows never drops, while the slow link's
    // queue fills and drops. The healthy link must deliver *everything*
    // promptly even though the slow link is wedged the whole time: a
    // healthy link held up by the slow one fails the deadline here.
    let started = Instant::now();
    let deadline = started + HEALTHY_DEADLINE;
    for seq in 0..FRAMES {
        while healthy.with(|c, _| c.seen) + HEALTHY_AHEAD <= seq {
            assert!(
                Instant::now() < deadline,
                "healthy link stalled: {} of {seq} frames delivered in {HEALTHY_DEADLINE:?}; {:?}",
                healthy.with(|c, _| c.seen),
                sender.stats()
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        sender.with(move |_, ctx| {
            let pad = vec![0xAB; FRAME_PAD];
            ctx.send(
                NodeId(1),
                Bulk {
                    seq,
                    pad: pad.clone(),
                },
            );
            ctx.send(NodeId(2), Bulk { seq, pad });
        });
    }

    wait_until(
        "healthy link full delivery",
        deadline.saturating_duration_since(Instant::now()),
        || healthy.with(|c, _| c.seen) >= FRAMES,
    );
    let healthy_done = started.elapsed();

    let stats = sender.stats();
    // The slow link's queue overflowed: drops were counted, not buffered
    // without bound. Every drop is the slow link's: it was offered
    // `FRAMES` frames, and the healthy link delivered all of its own.
    assert!(
        stats.sends_dropped > 0,
        "slow link never hit the bounded queue: {stats:?}"
    );
    assert!(
        stats.sends_dropped <= FRAMES,
        "drops beyond the slow link's frames: {stats:?}"
    );
    // Bounded memory: the high-water mark respects the configured cap.
    assert!(
        stats.send_queue_peak <= QUEUE_FRAMES as u64,
        "queue grew past its cap: {stats:?}"
    );
    // Conservation: every frame was retired to a socket, dropped at a
    // full queue, or is still parked in the slow link's bounded queue
    // (at most its frame cap) — none vanished into unbounded buffers.
    assert!(
        stats.frames_sent + stats.sends_dropped + QUEUE_FRAMES as u64 >= 2 * FRAMES,
        "frames unaccounted for: {stats:?}"
    );
    // The slow sink is still crawling: it cannot have absorbed anywhere
    // near the full load by the time the healthy link finished. This is
    // the isolation claim — the round did not wait for the straggler.
    let slow_bytes = drained.load(Ordering::Relaxed);
    let offered = FRAMES * (FRAME_PAD as u64 + 32);
    assert!(
        slow_bytes < offered / 32,
        "slow sink absorbed {slow_bytes} of {offered} bytes in {healthy_done:?} — not slow enough to prove isolation"
    );

    stop.store(true, Ordering::Relaxed);
    let _ = sink.join();
    drop(sender);
    drop(healthy);
}

/// The same bounded queue drops sends when *no* connection can form at
/// all (dial target never accepts) instead of buffering without limit.
#[test]
fn undialable_peer_bounds_memory_via_drops() {
    let cfg = ReactorConfig {
        max_queue_frames: 8,
        max_queue_bytes: 1 << 20,
        ..ReactorConfig::default()
    };
    let r: Reactor<Bulk, Counter> = Reactor::start(cfg).unwrap();
    let sender = r.spawn_peer(NodeId(0), Counter::default()).unwrap();
    // A bound-but-never-accepting listener: connects succeed (backlog)
    // but nothing ever drains, so the queue must cap.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    sender.add_peer(NodeId(9), dead.local_addr().unwrap());

    for seq in 0..200u64 {
        sender.with(move |_, ctx| {
            ctx.send(
                NodeId(9),
                Bulk {
                    seq,
                    pad: vec![1; 128 << 10],
                },
            )
        });
    }
    wait_until("drops on wedged link", Duration::from_secs(10), || {
        sender.stats().sends_dropped > 0
    });
    let stats = sender.stats();
    assert!(stats.send_queue_peak <= 8, "cap violated: {stats:?}");
    drop(dead);
}

type _HandleIsSendSync = PeerHandle<Bulk, Counter>;
