//! Golden pins for the synchronous reference round and everything that
//! runs it: direct calls of the Alg. 4 and Ring-SAC references over every
//! dropout shape, the two Alg. 2 variants, the Figs. 6-9 trainer, the
//! X-layer tree and the Raft-backed session on both engines.
//!
//! Each section folds one canonical line per case (result digest,
//! contributors, recoveries, ledger bytes and messages, or the error
//! value) through FNV-1a and pins `(cases, hash)`. The values were
//! re-pinned once, when the reference began to draw each member's shares
//! from the mask stream a `RoundCore` at that position uses and the
//! session began to aggregate through the engine; they must never be
//! edited for a refactor. Equal pins here, plus the bitwise engine test
//! (`full_stack.rs`, `distributed_engine_agrees_with_synchronous_reference`),
//! are the licence for one. On a mismatch the test prints every line of
//! the section, to diff against the same test run on the commit that
//! pinned it.

use p2pfl::multilayer::MultilayerTree;
use p2pfl::runner::ResilientConfig;
use p2pfl::system::{SystemKind, TwoLayerConfig, TwoLayerSystem};
use p2pfl_bench::testkit::synthetic_session;
use p2pfl_fed::{Client, LocalTrainConfig};
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Partition};
use p2pfl_ml::models::mlp;
use p2pfl_secagg::{
    fault_tolerant_secure_average, reference_round, DropPhase, Dropout, RingPlan, RingWire,
    SacEngine, ShareScheme, TransferLog, WeightVector,
};
use p2pfl_simnet::SimDuration;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One pinned section: FNV-1a over its case lines, and the lines.
struct Pin {
    hash: u64,
    lines: Vec<String>,
}

impl Pin {
    fn new() -> Self {
        Pin {
            hash: 0xcbf2_9ce4_8422_2325,
            lines: Vec::new(),
        }
    }

    fn case(&mut self, line: String) {
        for b in line.bytes().chain([b'\n']) {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.lines.push(line);
    }

    fn check(self, section: &str, cases: usize, hash: u64) {
        let got = (self.lines.len(), self.hash);
        assert!(
            got == (cases, hash),
            "{section}: got ({}, {:#018x}), pinned ({cases}, {hash:#018x}); cases:\n{}",
            got.0,
            got.1,
            self.lines.join("\n")
        );
    }
}

/// The canonical line of one reference round's result.
macro_rules! outcome {
    ($result:expr) => {
        match $result {
            Ok(o) => format!(
                "avg={:016x} contributors={:?} recoveries={} bytes={} msgs={}",
                o.average.digest(),
                o.contributors,
                o.recoveries,
                o.log.bytes(),
                o.log.messages()
            ),
            Err(e) => format!("err={e:?}"),
        }
    };
}

/// The canonical line of an average and its ledger.
fn ledger(average: &WeightVector, log: &TransferLog) -> String {
    let (bytes, msgs) = (log.bytes(), log.messages());
    format!("avg={:016x} bytes={bytes} msgs={msgs}", average.digest())
}

const SCHEMES: [ShareScheme; 2] = [ShareScheme::Scaled, ShareScheme::Masked];

fn models(n: usize, seed: u64) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| WeightVector::random(5, 1.0, &mut rng))
        .collect()
}

fn drops(peers: impl IntoIterator<Item = usize>, phase: DropPhase) -> Vec<Dropout> {
    peers
        .into_iter()
        .map(|peer| Dropout { peer, phase })
        .collect()
}

/// The five dropout shapes of one `(n, k, leader)`: none, the leader's
/// predecessor (outside the leader's block unless `k = 1`) before sharing,
/// the same peer after sharing, the `n - k + 1` peers after the leader
/// crashing after sharing (over the pairwise budget), and every member but
/// the last of the staged layout's last stage leaving before sharing (a
/// lone ring-stage contributor), the leader spared.
fn schedules(n: usize, k: usize, leader: usize) -> [(&'static str, Vec<Dropout>); 5] {
    let follower = (leader + n - 1) % n;
    let last = RingPlan::new(n, k).members(RingPlan::new(n, k).num_stages() - 1);
    let isolate = last.clone().filter(|&p| p != leader && p + 1 != last.end);
    [
        ("none", Vec::new()),
        ("before", drops([follower], DropPhase::BeforeShare)),
        ("after", drops([follower], DropPhase::AfterShare)),
        (
            "over",
            drops(
                (1..=n - k + 1).map(|d| (leader + d) % n),
                DropPhase::AfterShare,
            ),
        ),
        ("isolate", drops(isolate, DropPhase::BeforeShare)),
    ]
}

#[test]
fn reference_rounds_match_the_pins() {
    let (mut pairwise, mut ring) = (Pin::new(), Pin::new());
    for n in [1usize, 2, 3, 5, 8, 16] {
        let ms = models(n, n as u64);
        let mut ks = vec![1, n.div_ceil(2), n];
        ks.dedup();
        for k in ks {
            for leader in [0, n - 1] {
                for (shape, dropouts) in schedules(n, k, leader) {
                    for (s, scheme) in SCHEMES.into_iter().enumerate() {
                        let case = format!("n={n} k={k} leader={leader} {shape} scheme={s}");
                        let seed = (n * 10_000 + k * 100 + leader) as u64;
                        let mut rng = StdRng::seed_from_u64(seed);
                        let out = fault_tolerant_secure_average(
                            &ms, k, leader, &dropouts, scheme, &mut rng,
                        );
                        pairwise.case(format!("{case} {}", outcome!(out)));
                        let mut rng = StdRng::seed_from_u64(seed);
                        let out = reference_round::<RingWire, _>(
                            &ms, k, leader, &dropouts, scheme, &mut rng,
                        );
                        ring.case(format!("{case} {}", outcome!(out)));
                    }
                }
            }
        }
    }
    pairwise.check("fault_tolerant_secure_average", 300, 0x84fa_402b_34b6_3d0f);
    ring.check("ring_secure_average", 300, 0x1b57_6012_5888_947a);
}

#[test]
fn alg2_variants_match_the_pins() {
    let mut pin = Pin::new();
    for n in 1..=8usize {
        let ms = models(n, 100 + n as u64);
        for (s, scheme) in SCHEMES.into_iter().enumerate() {
            // Alg. 2 proper: the k = n round, then every subtotal broadcast
            // to every other peer, (n-1)² more transfers of |w|.
            let mut rng = StdRng::seed_from_u64(200 + n as u64);
            let mut out = fault_tolerant_secure_average(&ms, n, 0, &[], scheme, &mut rng).unwrap();
            let broadcast = ((n - 1) * (n - 1)) as u64;
            out.log
                .record_many("secagg.total", broadcast, broadcast * ms[0].wire_bytes());
            let line = ledger(&out.average, &out.log);
            pin.case(format!("n={n} scheme={s} broadcast {line}"));
            for leader in [0, n - 1] {
                let mut rng = StdRng::seed_from_u64(300 + n as u64);
                let out =
                    fault_tolerant_secure_average(&ms, n, leader, &[], scheme, &mut rng).unwrap();
                let line = ledger(&out.average, &out.log);
                pin.case(format!("n={n} scheme={s} leader={leader} {line}"));
            }
        }
    }
    pin.check("secure_average", 48, 0x7cba_190a_f32a_7044);
}

fn two_layer(n_total: usize, cfg: TwoLayerConfig) -> (TwoLayerSystem, p2pfl_ml::data::Dataset) {
    let (train, test) = train_test_split(&features_like(8, n_total * 20 + 60, 3), n_total * 20);
    let parts = partition_dataset(&train, n_total, Partition::Iid, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let clients: Vec<Client> = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| Client::new(i, mlp(&[8, 6, 10], &mut rng), d, 1e-2, 6 + i as u64))
        .collect();
    let eval = mlp(&[8, 6, 10], &mut rng);
    (TwoLayerSystem::new(clients, eval, cfg), test)
}

#[test]
fn two_layer_system_matches_the_pins() {
    use DropPhase::{AfterShare, BeforeShare};
    let base = TwoLayerConfig {
        train: LocalTrainConfig {
            epochs: 1,
            batch_size: 10,
        },
        seed: 7,
        ..TwoLayerConfig::default()
    };
    let with = |edit: fn(&mut TwoLayerConfig)| {
        let mut cfg = base.clone();
        edit(&mut cfg);
        cfg
    };
    #[rustfmt::skip]
    let configs = [
        ("original", 6, with(|c| c.kind = SystemKind::OriginalSac), vec![(4, 2, BeforeShare)]),
        ("n-of-n", 7, with(|_| {}), vec![(3, 1, BeforeShare)]),
        ("k=2", 6, with(|c| c.threshold = Some(2)),
            vec![(2, 1, AfterShare), (2, 4, BeforeShare), (4, 0, BeforeShare)]),
        ("fed-layer-sac", 9, with(|c| c.fed_layer_sac = true), Vec::new()),
        ("fraction", 12, with(|c| c.fraction = 0.5), Vec::new()),
    ];
    let mut pin = Pin::new();
    for (name, n_total, cfg, dropouts) in configs {
        let (mut sys, test) = two_layer(n_total, cfg);
        for round in 1..=5 {
            let now: Vec<(usize, DropPhase)> = dropouts
                .iter()
                .filter(|d| d.0 == round)
                .map(|&(_, peer, phase)| (peer, phase))
                .collect();
            sys.inject_dropouts(&now);
            let rec = sys.run_round(round, &test);
            pin.case(format!(
                "{name} round={round} bytes={} groups={}",
                rec.bytes, rec.groups_used
            ));
        }
        let global = WeightVector::new(sys.global().to_vec()).digest();
        pin.case(format!("{name} global={global:016x}"));
    }
    pin.check("TwoLayerSystem", 30, 0xbce6_ac4a_9fd7_e614);
}

#[test]
fn multilayer_tree_matches_the_pin() {
    let tree = MultilayerTree::build(3, 3);
    let ms = models(tree.total_peers(), 8);
    let mut pin = Pin::new();
    for scheme in SCHEMES {
        let mut rng = StdRng::seed_from_u64(9);
        let (avg, log) = tree.aggregate(&ms, scheme, &mut rng);
        pin.case(ledger(&avg, &log));
    }
    pin.check("MultilayerTree", 2, 0xa4dd_098b_3d95_7fc6);
}

#[test]
fn resilient_session_matches_the_pins() {
    let mut pin = Pin::new();
    for engine in [SacEngine::Pairwise, SacEngine::Ring] {
        // A follower crash after the first round (the ring runs 2 stages
        // of 2, the pairwise engine 3 subgroups of 3) ...
        let mut cfg = ResilientConfig::small(21);
        cfg.deployment.engine = engine;
        if engine == SacEngine::Ring {
            cfg.deployment.num_subgroups = 2;
            cfg.deployment.subgroup_size = 4;
        }
        let (mut s, _, test) = synthetic_session(cfg, 0, 20);
        let mut rounds = vec![s.run_round(1, &test)];
        let leader = s.dep.sub_leader_of(0).unwrap();
        let victim = *s.dep.subgroups[0].iter().find(|&&m| m != leader).unwrap();
        s.crash(victim);
        rounds.extend(s.run(3, &test));
        // ... and the n = k = 3 crash too late for the failure detector,
        // which aborts and retries degraded.
        let mut cfg = ResilientConfig::small(22);
        cfg.deployment.engine = engine;
        cfg.threshold = 3;
        let (mut late, _, test) = synthetic_session(cfg, 0, 20);
        rounds.extend(late.run(2, &test));
        let leader = late.dep.sub_leader_of(0).unwrap();
        let victim = *late.dep.subgroups[0]
            .iter()
            .find(|&&m| m != leader)
            .unwrap();
        let at = late.dep.sim.now() + SimDuration::from_millis(590);
        late.dep.sim.schedule_crash(victim, at);
        rounds.extend((3..=4).map(|r| late.run_round(r, &test)));
        for (i, r) in rounds.iter().enumerate() {
            pin.case(format!(
                "{engine:?} {i} bytes={} groups={} degraded={:?}",
                r.record.bytes, r.record.groups_used, r.degraded
            ));
        }
        for (shape, global) in [("crash", s.global()), ("late", late.global())] {
            let digest = WeightVector::new(global.to_vec()).digest();
            pin.case(format!("{engine:?} {shape} global={digest:016x}"));
        }
    }
    pin.check("ResilientSession", 20, 0x801b_d7c5_9835_d905);
}
