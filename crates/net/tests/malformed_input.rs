//! Negative-path hardening: truncated, oversized, and garbage input on
//! every untrusted surface — the binary codec, the incremental
//! [`FrameBuffer`], the piecewise receive of a bulk frame into pooled
//! vectors ([`BulkFrame`]), and a live [`Reactor`] peer fed raw hostile
//! frames and hellos over TCP — must produce typed errors (or counted
//! drops, or a closed connection), never a panic.

use p2pfl_hierraft::{FedConfig, HierMsg, RobustCombiner, SubCmd};
use p2pfl_net::codec::{
    from_bytes, read_frame, to_bytes, to_frame_bytes, write_frame, BulkFrame, CodecError,
    FrameBuffer, Pool, MAX_FRAME,
};
use p2pfl_net::{PeerHandle, Reactor, ReactorConfig};
use p2pfl_raft::{Entry, LogCmd, RaftMsg};
use p2pfl_secagg::{SacEngine, SacMsg, WeightVector};
use p2pfl_simnet::{Actor, NodeId, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Records, per thread, the largest single allocation requested — how the
/// tests below see that a hostile length prefix sized nothing. Per thread
/// because the harness runs tests concurrently.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only touches a `Cell<usize>`.
unsafe impl GlobalAlloc for LargestAlloc {
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
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `f`, returning its result and the largest allocation it made.
fn largest_alloc_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Valid encodings of representative wire messages, used as mutation
/// seeds.
fn seeds() -> Vec<Vec<u8>> {
    let raft: RaftMsg<u64> = RaftMsg::AppendEntries {
        term: 3,
        leader: NodeId(1),
        prev_log_index: 2,
        prev_log_term: 1,
        entries: vec![Entry {
            term: 3,
            index: 3,
            cmd: LogCmd::App(77),
        }],
        leader_commit: 2,
    };
    let hier = HierMsg::Sub(RaftMsg::AppendEntries {
        term: 1,
        leader: NodeId(0),
        prev_log_index: 0,
        prev_log_term: 0,
        entries: vec![Entry {
            term: 1,
            index: 1,
            cmd: LogCmd::App(SubCmd::FedConfig(FedConfig {
                founding: vec![NodeId(0), NodeId(3)],
                current: vec![NodeId(0), NodeId(3)],
                engine: SacEngine::Ring,
                combiner: RobustCombiner::TrimmedMean,
                version: 1,
            })),
        }],
        leader_commit: 0,
    });
    let sac = SacMsg::ShareBlock {
        round: 1,
        from_pos: 2,
        parts: vec![(0, WeightVector::new(vec![1.0, -2.5]).into())],
    };
    let subtotal = SacMsg::Subtotal {
        round: 1,
        idx: 4,
        value: WeightVector::new(vec![0.5, 3.25]),
    };
    vec![
        to_bytes(&raft),
        to_bytes(&hier),
        to_bytes(&sac),
        to_bytes(&subtotal),
    ]
}

fn decode_any(seed_idx: usize, bytes: &[u8]) {
    // Whichever type the seed was, decoding mutated bytes must return —
    // Ok or Err — without panicking.
    match seed_idx {
        0 => {
            let _ = from_bytes::<RaftMsg<u64>>(bytes);
        }
        1 => {
            let _ = from_bytes::<HierMsg>(bytes);
        }
        _ => {
            let _ = from_bytes::<SacMsg>(bytes);
        }
    }
}

#[test]
fn codec_never_panics_on_truncated_input() {
    for (i, seed) in seeds().iter().enumerate() {
        for cut in 0..seed.len() {
            decode_any(i, &seed[..cut]);
        }
    }
}

#[test]
fn codec_never_panics_on_bit_flips() {
    for (i, seed) in seeds().iter().enumerate() {
        for pos in 0..seed.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut m = seed.clone();
                m[pos] ^= flip;
                decode_any(i, &m);
            }
        }
    }
}

#[test]
fn codec_rejects_hostile_length_prefixes_with_typed_error() {
    // A sequence length prefix claiming u32::MAX elements must be refused
    // up front, before it can size an allocation or element loop.
    let sac = SacMsg::ShareBlock {
        round: 1,
        from_pos: 0,
        parts: vec![(0, WeightVector::new(vec![1.0]).into())],
    };
    let mut bytes = to_bytes(&sac);
    // Layout: variant index (4) + round (8) + from_pos (8) + parts len (4).
    let len_at = 4 + 8 + 8;
    bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match from_bytes::<SacMsg>(&bytes) {
        Err(CodecError::LengthOverrun {
            declared,
            available,
        }) => {
            assert_eq!(declared, u32::MAX as usize);
            assert!(available < declared);
        }
        other => panic!("expected LengthOverrun, got {other:?}"),
    }
}

#[test]
fn hostile_f64_sequence_prefixes_size_no_allocation() {
    // The bulk `f64` decode makes one allocation of `8 * n` bytes for a
    // vector of `n`. Each prefix below declares far more than the input
    // holds; the decode must fail typed, having allocated nothing that
    // large — or anything much at all.
    const SMALL: usize = 4096;
    let subtotal_with = |declared: u32, payload_bytes: usize| {
        let mut bytes = to_bytes(&SacMsg::Subtotal {
            round: 1,
            idx: 0,
            value: WeightVector::zeros(0),
        });
        // Layout: variant (4) + round (8) + idx (8) + vector length (4).
        let len_at = bytes.len() - 4;
        bytes[len_at..].copy_from_slice(&declared.to_le_bytes());
        bytes.resize(bytes.len() + payload_bytes, 0x3c);
        bytes
    };

    // n fits the one-byte-per-element plausibility check (n <= remaining)
    // but 8n does not: a million elements over a megabyte of input.
    let bytes = subtotal_with(1 << 20, 1 << 20);
    let (got, largest) = largest_alloc_in(|| from_bytes::<SacMsg>(&bytes));
    assert_eq!(got, Err(CodecError::Eof));
    assert!(
        largest <= SMALL,
        "allocated {largest} B from a hostile prefix"
    );

    // The largest declarable count.
    let bytes = subtotal_with(u32::MAX, 64);
    let (got, largest) = largest_alloc_in(|| from_bytes::<SacMsg>(&bytes));
    assert_eq!(
        got,
        Err(CodecError::LengthOverrun {
            declared: u32::MAX as usize,
            available: 64
        })
    );
    assert!(
        largest <= SMALL,
        "allocated {largest} B from a hostile prefix"
    );

    // An honest prefix over a frame cut mid-element, at every byte of the
    // last element, inside a share block and a subtotal.
    let value = WeightVector::new((0..10_000).map(|i| i as f64).collect());
    let sac = to_bytes(&SacMsg::ShareBlock {
        round: 1,
        from_pos: 0,
        parts: vec![(0, value.clone().into())],
    });
    let subtotal = to_bytes(&SacMsg::Subtotal {
        round: 1,
        idx: 0,
        value,
    });
    for cut in 1..=8 {
        let (got, largest) = largest_alloc_in(|| from_bytes::<SacMsg>(&sac[..sac.len() - cut]));
        assert_eq!(got, Err(CodecError::Eof), "sac cut {cut}");
        assert!(largest <= SMALL, "sac cut {cut}: allocated {largest} B");
        let cut_total = &subtotal[..subtotal.len() - cut];
        let (got, largest) = largest_alloc_in(|| from_bytes::<SacMsg>(cut_total));
        assert_eq!(got, Err(CodecError::Eof), "subtotal cut {cut}");
        assert!(
            largest <= SMALL,
            "subtotal cut {cut}: allocated {largest} B"
        );
    }

    // The tracker does see the honest decode's one bulk allocation.
    let (got, largest) = largest_alloc_in(|| from_bytes::<SacMsg>(&sac));
    assert!(got.is_ok());
    assert_eq!(largest, 8 * 10_000);
}

#[test]
fn frame_buffer_handles_garbage_and_partial_frames() {
    // Oversize header: typed error, repeatably (stream unrecoverable).
    let mut fb = FrameBuffer::new();
    fb.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
    assert!(fb.next_frame().is_err());
    assert!(fb.next_frame().is_err());

    // A partial frame stays pending without error through arbitrarily
    // fragmented feeds.
    let mut wire = Vec::new();
    write_frame(&mut wire, &vec![0xAB; 1000]).unwrap();
    let mut fb = FrameBuffer::new();
    for chunk in wire[..wire.len() - 1].chunks(7) {
        fb.extend(chunk);
        assert!(matches!(fb.next_frame(), Ok(None)));
    }
    fb.extend(&wire[wire.len() - 1..]);
    assert_eq!(fb.next_frame().unwrap().unwrap().len(), 1000);
}

/// An actor that records every message it survives receiving.
struct Sink {
    got: u64,
}

impl Actor<SacMsg> for Sink {
    fn on_message(&mut self, _t: &mut dyn Transport<SacMsg>, _from: NodeId, _msg: SacMsg) {
        self.got += 1;
    }
}

/// A reactor hosting one [`Sink`] as peer 0.
fn sink_reactor() -> (Reactor<SacMsg, Sink>, PeerHandle<SacMsg, Sink>) {
    let reactor = Reactor::start(ReactorConfig::default()).expect("bind");
    let sink = reactor
        .spawn_peer(NodeId(0), Sink { got: 0 })
        .expect("spawn");
    (reactor, sink)
}

/// The hello payload of `src` dialing `dst`.
fn hello_v2(src: u32, dst: u32) -> Vec<u8> {
    let mut hello = b"p2pf\x02".to_vec();
    hello.extend_from_slice(&src.to_le_bytes());
    hello.extend_from_slice(&dst.to_le_bytes());
    hello
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn reactor_survives_raw_garbage_frames_over_tcp() {
    let (reactor, sink) = sink_reactor();

    // Handshake as peer 9, then send: a garbage payload, a truncated
    // message, and finally a valid one.
    let mut conn = TcpStream::connect(reactor.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut conn, &hello_v2(9, 0)).unwrap();
    write_frame(&mut conn, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let valid = to_bytes(&SacMsg::Begin { round: 1 });
    write_frame(&mut conn, &valid[..valid.len() - 2]).unwrap();
    write_frame(&mut conn, &valid).unwrap();
    conn.flush().unwrap();

    assert_eq!(
        read_frame(&mut conn).expect("answer"),
        hello_v2(0, 9),
        "hello not answered"
    );
    wait_until("hostile frames absorbed", || {
        sink.decode_errors() >= 2 && sink.with(|a, _| a.got) >= 1
    });
    assert_eq!(sink.decode_errors(), 2);
    assert_eq!(sink.with(|a, _| a.got), 1);
}

/// A connection that opens with anything but a hello naming a hosted peer
/// is closed without reaching an actor, and without disturbing a healthy
/// link on the same listener.
#[test]
fn bad_hellos_close_only_their_own_connection() {
    let (reactor, sink) = sink_reactor();
    let valid = to_bytes(&SacMsg::Begin { round: 1 });

    let mut healthy = TcpStream::connect(reactor.local_addr()).expect("connect");
    write_frame(&mut healthy, &hello_v2(9, 0)).unwrap();
    write_frame(&mut healthy, &valid).unwrap();
    wait_until("healthy link up", || sink.with(|a, _| a.got) == 1);

    let mut v1 = b"p2pf\x01".to_vec();
    v1.extend_from_slice(&8u32.to_le_bytes());
    let hostile: [(&str, &[u8]); 3] = [
        ("a v1 hello", &v1),
        ("a hello for a peer not hosted here", &hello_v2(8, 7)),
        ("payload before any hello", &valid),
    ];
    for (what, first_frame) in hostile {
        let mut conn = TcpStream::connect(reactor.local_addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut conn, first_frame).unwrap();
        // More would follow; it must never be looked at.
        let _ = write_frame(&mut conn, &valid);
        let mut buf = [0u8; 32];
        match conn.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("{what}: connection not closed: {other:?}"),
        }
    }

    write_frame(&mut healthy, &valid).unwrap();
    wait_until("healthy link still up", || sink.with(|a, _| a.got) == 2);
    assert_eq!(
        sink.decode_errors(),
        0,
        "a refused connection reached the decoder"
    );
    assert_eq!(sink.stats().frames_received, 2);
}

/// The reactor's read chunk: frames over it are received as
/// [`BulkFrame`]s, and `f64` sequences of at least it are runs.
const READ_CHUNK: usize = 64 << 10;

/// The payload of a bulk `Subtotal` frame of `len` bytes whose vector
/// declares `n` elements: more than the frame can hold when `8 * n`
/// passes what is left of it, though `n` alone does not.
fn overrunning_subtotal(len: usize, n: u32) -> Vec<u8> {
    let header = to_bytes(&SacMsg::Subtotal {
        round: 1,
        idx: 2,
        value: WeightVector::zeros(0),
    });
    let mut payload = header[..header.len() - 4].to_vec();
    payload.extend_from_slice(&n.to_le_bytes());
    payload.resize(len, 0);
    payload
}

#[test]
fn a_run_declared_past_its_frame_is_refused_before_a_vector_is_drawn() {
    let len = 100_000;
    let n = 20_000; // 160 000 bytes declared, ~99 970 left
    let payload = overrunning_subtotal(len, n);
    let mut pool = Pool::new();
    let kept = pool.take(n as usize);
    pool.give(kept);
    let mut rx = BulkFrame::new(len, READ_CHUNK);
    for piece in payload.chunks(4096) {
        assert_eq!(rx.feed::<SacMsg>(piece, &mut pool), piece.len());
        assert_eq!(pool.lent(), 0, "a vector was drawn for the run");
    }
    assert_eq!(rx.finish::<SacMsg>(&mut pool), Err(CodecError::Eof));
    assert_eq!((pool.lent(), pool.kept()), (0, n as usize));

    // On a live reactor: a decode error, and the link goes on.
    let (reactor, sink) = sink_reactor();
    let mut conn = TcpStream::connect(reactor.local_addr()).expect("connect");
    write_frame(&mut conn, &hello_v2(9, 0)).unwrap();
    write_frame(&mut conn, &payload).unwrap();
    write_frame(&mut conn, &to_bytes(&SacMsg::Begin { round: 1 })).unwrap();
    wait_until("the next frame delivered", || sink.with(|a, _| a.got) == 1);
    assert_eq!(sink.decode_errors(), 1);
}

#[test]
fn a_connection_cut_mid_run_gives_the_drawn_vectors_back() {
    let dim = 3 * READ_CHUNK / 8;
    let block = SacMsg::ShareBlock {
        round: 4,
        from_pos: 1,
        parts: vec![
            (0, WeightVector::zeros(dim).into()),
            (1, WeightVector::zeros(dim).into()),
        ],
    };
    let payload = to_bytes(&block);
    // Baseline: vectors already out, as a round core holds them.
    let mut pool = Pool::new();
    let held: Vec<Vec<f64>> = (0..3).map(|_| pool.take(dim)).collect();
    let baseline = pool.lent();
    for cut in [40, payload.len() / 2, payload.len() - 1] {
        let mut rx = BulkFrame::new(payload.len(), READ_CHUNK);
        for piece in payload[..cut].chunks(1500) {
            rx.feed::<SacMsg>(piece, &mut pool);
        }
        assert!(!rx.is_whole());
        assert!(
            pool.lent() > baseline || cut == 40,
            "cut {cut}: no run drawn"
        );
        rx.discard(&mut pool);
        assert_eq!(
            pool.lent(),
            baseline,
            "cut {cut}: drawn vectors not given back"
        );
    }
    drop(held);

    // On a live reactor, cut after half a run, over and over: each cut
    // closes only its link.
    let (reactor, sink) = sink_reactor();
    let wire = to_frame_bytes(&block).expect("fits a frame");
    for _ in 0..20 {
        let mut conn = TcpStream::connect(reactor.local_addr()).expect("connect");
        write_frame(&mut conn, &hello_v2(9, 0)).unwrap();
        conn.write_all(&wire[..wire.len() / 2]).unwrap();
    }
    let mut conn = TcpStream::connect(reactor.local_addr()).expect("connect");
    write_frame(&mut conn, &hello_v2(9, 0)).unwrap();
    conn.write_all(&wire).unwrap();
    wait_until("a whole frame after the cut ones", || {
        sink.with(|a, _| a.got) == 1
    });
    assert_eq!(sink.decode_errors(), 0);
}

/// Receives `msg` as a bulk frame in 4 KiB reads and checks the probes
/// that locate its runs walked at most its length plus a read chunk, and
/// that it decodes as `from_bytes` does.
fn parses_linearly(what: &str, msg: &SacMsg) {
    let payload = to_bytes(msg);
    let mut pool = Pool::new();
    let mut rx = BulkFrame::new(payload.len(), READ_CHUNK);
    for piece in payload.chunks(4096) {
        rx.feed::<SacMsg>(piece, &mut pool);
    }
    let bound = payload.len() + READ_CHUNK;
    assert!(
        rx.parsed() <= bound,
        "{what}: {} bytes parsed for a frame of {}: the prefix was re-parsed",
        rx.parsed(),
        payload.len()
    );
    let got = rx.finish::<SacMsg>(&mut pool).expect("decodes");
    assert!(to_bytes(&got) == payload, "{what}: decoded differently");
}

#[test]
fn meta_heavy_and_many_run_frames_parse_in_linear_work() {
    // Almost all meta: a commitment of 200 000 digests.
    let commit = SacMsg::Commit {
        round: 1,
        from_pos: 0,
        digests: (0..200_000).collect(),
    };
    parses_linearly("meta bytes", &commit);
    // Runs between ever longer meta: each run sits behind a small part,
    // decoded from the meta bytes, so a walk of the prefix per run would
    // cost ~16x the frame.
    let parts = (0..300)
        .map(|i| {
            let dim = if i % 2 == 0 { READ_CHUNK / 8 + 8 } else { 1000 };
            (i, WeightVector::new(vec![i as f64; dim]).into())
        })
        .collect();
    let block = SacMsg::ShareBlock {
        round: 2,
        from_pos: 0,
        parts,
    };
    parses_linearly("many runs", &block);
}
