//! Transcript oracle for the two aggregation actors: every scenario below
//! pins one digest over the simulator's ordered trace (sends with kind and
//! ledger bytes, deliveries, drops, timer tags, crashes), one digest over
//! the codec bytes of every message handed to the transport, and the
//! leader's verdict `(phase, contributors, recoveries, aborts, result
//! digest)`.
//!
//! The pinned values were captured before the two engines were folded
//! into one round core and must never be edited for a refactor: equal
//! transcripts are the licence for one (same wire bytes, same order, same
//! numbers). Only a deliberate protocol change may move them, and then
//! the commit message says which scenario moved and why.

use p2pfl_net::codec::to_bytes;
use p2pfl_secagg::{
    RingSacActor, SacConfig, SacEngine, SacMsg, SacPeerActor, ShareScheme, WeightVector,
};
use p2pfl_simnet::{
    Actor, NodeId, Payload, Sim, SimDuration, SimTime, TimerId, TraceKind, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// FNV-1a over a byte stream, with a message counter.
#[derive(Clone, Copy)]
struct Fnv {
    hash: u64,
    count: u64,
}

impl Fnv {
    fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hosts an engine actor and records, in order, the codec bytes of
/// everything it hands to the transport.
struct Tap<A> {
    inner: A,
    wire: Arc<Mutex<Fnv>>,
}

struct Recorder<'a, M: Payload> {
    t: &'a mut dyn Transport<M>,
    wire: &'a Mutex<Fnv>,
}

impl<M: Payload + serde::Serialize> Transport<M> for Recorder<'_, M> {
    fn now(&self) -> SimTime {
        self.t.now()
    }
    fn node_id(&self) -> NodeId {
        self.t.node_id()
    }
    fn send(&mut self, to: NodeId, msg: M) {
        let mut wire = self.wire.lock().unwrap();
        wire.feed(&self.t.node_id().0.to_le_bytes());
        wire.feed(&to.0.to_le_bytes());
        wire.feed(&to_bytes(&msg));
        wire.count += 1;
        drop(wire);
        self.t.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.t.set_timer(delay, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.t.cancel_timer(id)
    }
}

impl<A> Tap<A> {
    /// Runs `f` on the hosted actor with a recording transport.
    fn with<M: Payload + serde::Serialize, R>(
        &mut self,
        t: &mut dyn Transport<M>,
        f: impl FnOnce(&mut A, &mut dyn Transport<M>) -> R,
    ) -> R {
        let mut rec = Recorder {
            t,
            wire: &self.wire,
        };
        f(&mut self.inner, &mut rec)
    }
}

impl<M: Payload + serde::Serialize, A: Actor<M>> Actor<M> for Tap<A> {
    fn on_start(&mut self, t: &mut dyn Transport<M>) {
        self.with(t, |a, t| a.on_start(t));
    }
    fn on_message(&mut self, t: &mut dyn Transport<M>, from: NodeId, msg: M) {
        self.with(t, |a, t| a.on_message(t, from, msg));
    }
    fn on_timer(&mut self, t: &mut dyn Transport<M>, tag: u64) {
        self.with(t, |a, t| a.on_timer(t, tag));
    }
    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }
    fn on_restart(&mut self, t: &mut dyn Transport<M>) {
        self.with(t, |a, t| a.on_restart(t));
    }
}

/// What one scenario pins.
#[derive(Debug, PartialEq)]
struct Pin {
    trace: u64,
    wire: u64,
    msgs: u64,
    leader: String,
}

fn pin(trace: u64, wire: u64, msgs: u64, leader: &str) -> Pin {
    Pin {
        trace,
        wire,
        msgs,
        leader: leader.to_string(),
    }
}

fn config(ids: &[NodeId], i: usize, k: usize, engine: SacEngine, seed: u64) -> SacConfig {
    SacConfig {
        group: ids.to_vec(),
        position: i,
        leader_pos: 0,
        k,
        scheme: ShareScheme::Masked,
        engine,
        share_deadline: SimDuration::from_millis(100),
        collect_deadline: SimDuration::from_millis(100),
        round_deadline: None,
        seed,
    }
}

/// One harness per actor type; a macro rather than a trait so this file
/// compiles unchanged whether the two actors are separate types or
/// aliases of one generic core.
macro_rules! harness {
    ($name:ident, $actor:ty, $msg:ty, $engine:expr) => {
        mod $name {
            use super::*;

            pub struct Group {
                pub sim: Sim<$msg>,
                pub ids: Vec<NodeId>,
                wire: Arc<Mutex<Fnv>>,
            }

            pub fn build(n: usize, k: usize, dim: usize, seed: u64, supervised: bool) -> Group {
                let mut sim = Sim::new(seed);
                sim.enable_trace();
                let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
                let mut rng = StdRng::seed_from_u64(seed + 999);
                let wire = Arc::new(Mutex::new(Fnv::new()));
                for i in 0..n {
                    let model = WeightVector::random(dim, 1.0, &mut rng);
                    let mut cfg = config(&ids, i, k, $engine, seed + i as u64);
                    if supervised {
                        cfg.round_deadline = Some(SimDuration::from_millis(600));
                    }
                    let id = sim.add_node(Tap {
                        inner: <$actor>::new(cfg, model),
                        wire: wire.clone(),
                    });
                    assert_eq!(id, ids[i]);
                }
                sim.run_until_quiet(100); // flush on_start events
                Group { sim, ids, wire }
            }

            impl Group {
                pub fn actor(&mut self, i: usize, f: impl FnOnce(&mut $actor)) {
                    f(&mut self.sim.actor_mut::<Tap<$actor>>(self.ids[i]).inner);
                }

                pub fn start(&mut self, round: u64) {
                    self.sim.exec::<Tap<$actor>, _, _>(self.ids[0], |tap, ctx| {
                        tap.with(ctx, |a, t| a.start_round(t, round))
                    });
                }

                pub fn crash_in(&mut self, i: usize, ms: u64) {
                    let at = self.sim.now() + SimDuration::from_millis(ms);
                    self.sim.schedule_crash(self.ids[i], at);
                }

                pub fn run_secs(&mut self, secs: u64) {
                    let until = self.sim.now() + SimDuration::from_secs(secs);
                    self.sim.run_until(until);
                }

                pub fn finish(&mut self) -> Pin {
                    let mut trace = Fnv::new();
                    for ev in self.sim.trace().events() {
                        // Every recorded kind is part of the transcript;
                        // the match keeps a new kind from slipping by.
                        match &ev.kind {
                            TraceKind::Send { .. }
                            | TraceKind::Deliver { .. }
                            | TraceKind::Drop { .. }
                            | TraceKind::TimerFired { .. }
                            | TraceKind::Crash { .. }
                            | TraceKind::Restart { .. } => trace.feed(format!("{ev}\n").as_bytes()),
                        }
                    }
                    let wire = *self.wire.lock().unwrap();
                    let a = &self.sim.actor::<Tap<$actor>>(self.ids[0]).inner;
                    Pin {
                        trace: trace.hash,
                        wire: wire.hash,
                        msgs: wire.count,
                        leader: format!(
                            "{:?} c={:?} rec={} ab={} r={:?} n={} k={} d={:x?}",
                            a.phase,
                            a.contributors,
                            a.recoveries,
                            a.aborts,
                            a.round,
                            a.sac_config().group.len(),
                            a.sac_config().k,
                            a.result.as_ref().map(WeightVector::digest),
                        ),
                    }
                }
            }

            pub fn happy(n: usize, k: usize, seed: u64) -> Pin {
                let mut g = build(n, k, 16, seed, false);
                g.start(1);
                g.run_secs(2);
                g.finish()
            }

            pub fn crash_after_share(n: usize, k: usize, victim: usize) -> Pin {
                let mut g = build(n, k, 8, 7, false);
                g.start(1);
                g.crash_in(victim, 40); // shares settle within ~30 ms
                g.run_secs(2);
                g.finish()
            }

            pub fn crash_before_share(n: usize, k: usize, victim: usize) -> Pin {
                let mut g = build(n, k, 8, 11, false);
                g.crash_in(victim, 1);
                g.sim.run_until_quiet(100);
                g.start(1);
                g.run_secs(2);
                g.finish()
            }

            /// k = n: one post-share crash kills the only holder of a
            /// partition; the supervisor aborts and retries degraded.
            pub fn supervised_retry(victim: usize) -> Pin {
                let mut g = build(4, 4, 4, 13, true);
                g.start(1);
                g.crash_in(victim, 40);
                g.run_secs(5);
                g.finish()
            }

            pub fn refusal_below_two() -> Pin {
                let mut g = build(3, 3, 4, 17, true);
                g.crash_in(1, 1);
                g.crash_in(2, 1);
                g.sim.run_until_quiet(100);
                g.start(1);
                g.run_secs(5);
                g.finish()
            }

            pub fn rekey_then_round(n: usize, k: usize) -> Pin {
                let mut g = build(n, k, 8, 51, false);
                g.start(1);
                g.run_secs(2);
                let ids = g.ids.clone();
                for i in 0..n {
                    g.actor(i, |a| {
                        assert!(a.rekey(ids.clone(), ids[0], k, 0xe1a5_71c0 + i as u64));
                    });
                }
                g.start(2);
                g.run_secs(2);
                g.finish()
            }

            pub fn back_to_back(n: usize, k: usize) -> Pin {
                let mut g = build(n, k, 8, 61, false);
                g.start(1);
                g.run_secs(2);
                g.start(2);
                g.run_secs(2);
                g.finish()
            }
        }
    };
}

harness!(pairwise, SacPeerActor, SacMsg, SacEngine::Pairwise);
harness!(ring, RingSacActor, SacMsg, SacEngine::Ring);

/// n = 4, k = 2 ring: stages [2, 2]; peer 3 dies before the round, so the
/// announced set {0, 1, 2} isolates peer 2 in stage 1.
fn ring_singleton_stage(supervised: bool) -> Pin {
    let mut g = ring::build(4, 2, 8, 23, supervised);
    g.crash_in(3, 1);
    g.sim.run_until_quiet(100);
    g.start(1);
    g.run_secs(5);
    g.finish()
}

/// Peer 3 commits to honest digests, then scales every share it sends.
fn pairwise_commit_then_skew() -> Pin {
    let mut g = pairwise::build(5, 3, 8, 51, false);
    g.actor(3, |a| a.byz_share_skew = Some(0.5));
    g.start(1);
    g.run_secs(2);
    g.finish()
}

fn check(failures: &mut Vec<String>, name: &str, got: Pin, want: Pin) {
    if got != want {
        failures.push(format!(
            "(\"{name}\", pin({:#018x}, {:#018x}, {}, {:?})),",
            got.trace, got.wire, got.msgs, got.leader
        ));
    }
}

#[test]
fn transcripts_match_the_pinned_parent() {
    let runs: Vec<(&str, Pin)> = vec![
        ("pairwise happy n=5 k=3", pairwise::happy(5, 3, 42)),
        ("ring happy n=6 k=2", ring::happy(6, 2, 48)),
        ("ring happy n=16 k=12", ring::happy(16, 12, 58)),
        (
            "pairwise crash after share",
            pairwise::crash_after_share(5, 3, 4),
        ),
        ("ring crash after share", ring::crash_after_share(6, 2, 4)),
        (
            "pairwise crash before share",
            pairwise::crash_before_share(5, 3, 3),
        ),
        ("ring crash before share", ring::crash_before_share(6, 2, 3)),
        ("pairwise supervised retry", pairwise::supervised_retry(2)),
        ("ring supervised retry", ring::supervised_retry(3)),
        ("pairwise refusal below two", pairwise::refusal_below_two()),
        ("ring refusal below two", ring::refusal_below_two()),
        (
            "ring singleton stage unsupervised",
            ring_singleton_stage(false),
        ),
        (
            "ring singleton stage supervised",
            ring_singleton_stage(true),
        ),
        ("pairwise commit then skew", pairwise_commit_then_skew()),
        (
            "pairwise rekey then round",
            pairwise::rekey_then_round(4, 2),
        ),
        ("ring rekey then round", ring::rekey_then_round(5, 2)),
        ("pairwise back to back", pairwise::back_to_back(5, 3)),
        ("ring back to back", ring::back_to_back(6, 2)),
    ];
    let pinned = pinned();
    assert_eq!(runs.len(), pinned.len(), "every scenario has a pin");
    let mut failures = Vec::new();
    for ((name, got), (pinned_name, want)) in runs.into_iter().zip(pinned) {
        assert_eq!(name, pinned_name, "scenario order");
        check(&mut failures, name, got, want);
    }
    assert!(
        failures.is_empty(),
        "transcripts moved; actual values:\n{}",
        failures.join("\n")
    );
}

/// Pairwise pins: captured before the round core landed. Ring pins:
/// re-captured once when ring frames moved onto `SacMsg` (its variant
/// indices and `sac.*` kinds, subtotals named by global index with no
/// stage field, abort reasons naming `partition {idx}`); message counts
/// and verdicts held.
fn pinned() -> Vec<(&'static str, Pin)> {
    vec![
        ("pairwise happy n=5 k=3", pin(0x66a73b7e3259683f, 0x292e7a6448ef6ab3, 50, "Done c=[0, 1, 2, 3, 4] rec=0 ab=0 r=1 n=5 k=3 d=Some(8efb22cc4c28d752)")),
        ("ring happy n=6 k=2", pin(0x5cf288771a4a8504, 0x0869cb4c61312194, 37, "Done c=[0, 1, 2, 3, 4, 5] rec=0 ab=0 r=1 n=6 k=2 d=Some(6f83eed443c41c64)")),
        ("ring happy n=16 k=12", pin(0xf81e2beadcf2dc65, 0x2b78c2888d5cc0cb, 122, "Done c=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15] rec=0 ab=0 r=1 n=16 k=12 d=Some(90013bf9188d8f76)")),
        ("pairwise crash after share", pin(0x4594810b870ac5e2, 0xf8a794555bbd8625, 53, "Done c=[0, 1, 2, 3, 4] rec=1 ab=0 r=1 n=5 k=3 d=Some(a5c48f9dc8a13ff0)")),
        ("ring crash after share", pin(0xf4f0e5085d4f0a35, 0x25d2ae56f1246a9f, 38, "Done c=[0, 1, 2, 3, 4, 5] rec=1 ab=0 r=1 n=6 k=2 d=Some(f69dfe068e9014ce)")),
        ("pairwise crash before share", pin(0xd7c3ee77c937ff41, 0xca725ae7f1c5593e, 45, "Done c=[0, 1, 2, 4] rec=1 ab=0 r=1 n=5 k=3 d=Some(f38d04fe482bc53a)")),
        ("ring crash before share", pin(0x8fe93b600aedee39, 0xf53ee50170c23962, 34, "Done c=[0, 1, 2, 4, 5] rec=1 ab=0 r=1 n=6 k=2 d=Some(552c62c5f8a2b6b7)")),
        ("pairwise supervised retry", pin(0xe8193c370db2c894, 0x7cda5c9cc67ecb10, 53, "Done c=[0, 1, 2] rec=0 ab=1 r=2 n=3 k=3 d=Some(2c64e2866434f4f)")),
        ("ring supervised retry", pin(0x85d716dcbbcfd67a, 0x99a79f294bc74688, 36, "Done c=[0, 1, 2] rec=0 ab=1 r=2 n=3 k=3 d=Some(e9310a6c7b495560)")),
        ("pairwise refusal below two", pin(0xa3ad2dda890e7b03, 0xb339bef8be9c4a24, 8, "Failed(\"degraded below 2 members (n' = 1): fewer than k contributors at freeze\") c=[] rec=0 ab=1 r=1 n=3 k=3 d=None")),
        ("ring refusal below two", pin(0x37b61cd85bca16e9, 0x1af1adcc0150a0ef, 6, "Failed(\"degraded below 2 members (n' = 1): fewer than k contributors at freeze\") c=[] rec=0 ab=1 r=1 n=3 k=3 d=None")),
        ("ring singleton stage unsupervised", pin(0x1d3022bea23994de, 0x6980216fd295152a, 11, "Failed(\"stage 1 frozen to a single contributor (per-stage anonymity set below 2)\") c=[] rec=0 ab=0 r=1 n=4 k=2 d=None")),
        ("ring singleton stage supervised", pin(0x6938ad0146c635ff, 0xb50fed8da62ce399, 27, "Done c=[0, 1, 2] rec=0 ab=1 r=2 n=3 k=2 d=Some(3e1f9184908098ab)")),
        ("pairwise commit then skew", pin(0x712311a3275c0223, 0x482b473d725fd23e, 50, "Done c=[0, 1, 2, 4] rec=0 ab=0 r=1 n=5 k=3 d=Some(2bd7eead113e540c)")),
        ("pairwise rekey then round", pin(0x99f00aa7f4b98fe7, 0xd85e92a8076f2296, 62, "Done c=[0, 1, 2, 3] rec=0 ab=0 r=2 n=4 k=2 d=Some(7011ab6580a17830)")),
        ("ring rekey then round", pin(0xaf6e65d6b82a25bb, 0x9bc27770a0f636c4, 66, "Done c=[0, 1, 2, 3, 4] rec=0 ab=0 r=2 n=5 k=2 d=Some(35a0532e34b153c4)")),
        ("pairwise back to back", pin(0x601a8f3348222d23, 0x3e7c91684350b169, 100, "Done c=[0, 1, 2, 3, 4] rec=0 ab=0 r=2 n=5 k=3 d=Some(9cd9040b8800dd00)")),
        ("ring back to back", pin(0xbf0906342520c6fd, 0xc2ff59d36c9139a2, 74, "Done c=[0, 1, 2, 3, 4, 5] rec=0 ab=0 r=2 n=6 k=2 d=Some(c7241e157244a87b)")),
    ]
}
