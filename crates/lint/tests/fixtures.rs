//! Fixture self-tests: every rule family must fire on a known-bad
//! snippet and stay quiet on a known-good one. These pin the lint's
//! *sensitivity* — a refactor of the scanner that silently stops
//! detecting a class of violation fails here, not in production.

use p2pfl_lint::walk::Workspace;
use p2pfl_lint::{allow, panics, pins, purity, secrets, wire, AllowEntry, Finding, Rule};

fn ws(sources: &[(&str, &str, &str)]) -> Workspace {
    let ws = Workspace::from_sources(sources);
    assert!(
        ws.parse_errors.is_empty(),
        "fixture must parse: {:?}",
        ws.parse_errors
    );
    ws
}

fn rule_findings(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------------
// Rule 1: sans-IO purity
// ---------------------------------------------------------------------

#[test]
fn purity_fires_on_wall_clock_in_actor() {
    let ws = ws(&[(
        "hierraft",
        "crates/hierraft/src/actor.rs",
        r#"
        pub struct A;
        impl A {
            pub fn on_message(&mut self) {
                let t = std::time::Instant::now();
                let _ = t;
            }
        }
        "#,
    )]);
    let findings = purity::check(&ws);
    let hits = rule_findings(&findings, Rule::Purity);
    assert_eq!(hits.len(), 1, "exactly the Instant use: {findings:?}");
    assert!(hits[0].msg.contains("Instant"));
    assert_eq!(hits[0].item, "A::on_message");
}

#[test]
fn purity_fires_on_os_entropy_and_stdout() {
    let ws = ws(&[(
        "secagg",
        "crates/secagg/src/engine.rs",
        r#"
        pub fn bad_entropy() -> u64 {
            let mut rng = rand::thread_rng();
            rng.next()
        }
        pub fn bad_print(x: u64) {
            println!("{x}");
        }
        "#,
    )]);
    let findings = purity::check(&ws);
    let hits = rule_findings(&findings, Rule::Purity);
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert!(hits.iter().any(|f| f.msg.contains("thread_rng")));
    assert!(hits.iter().any(|f| f.msg.contains("println")));
}

#[test]
fn purity_allows_seeded_rng_and_test_code() {
    let ws = ws(&[(
        "raft",
        "crates/raft/src/node.rs",
        r#"
        pub fn jitter(seed: u64) -> u64 {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            rng.gen_range(0..10)
        }
        #[cfg(test)]
        mod tests {
            #[test]
            fn timing() {
                let _ = std::time::Instant::now();
                println!("test output is fine");
            }
        }
        "#,
    )]);
    let findings = purity::check(&ws);
    assert!(
        rule_findings(&findings, Rule::Purity).is_empty(),
        "seeded StdRng and #[cfg(test)] code are allowed: {findings:?}"
    );
}

#[test]
fn purity_covers_pinned_reactor_files_in_io_crate() {
    // queue.rs is pinned pure even though `net` as a crate does IO.
    let ws = ws(&[
        (
            "net",
            "crates/net/src/reactor/queue.rs",
            r#"
            pub fn bad_clock() -> u64 {
                let _ = std::time::Instant::now();
                0
            }
            "#,
        ),
        (
            "net",
            "crates/net/src/reactor/timer.rs",
            r#"
            pub fn pure_wheel(deadline_ns: u64) -> u64 {
                deadline_ns / 2
            }
            "#,
        ),
        // A non-pinned net file with IO stays out of scope.
        (
            "net",
            "crates/net/src/reactor/conn.rs",
            r#"
            pub fn io_is_fine() {
                let _ = std::time::Instant::now();
            }
            "#,
        ),
    ]);
    let findings = purity::check(&ws);
    let hits = rule_findings(&findings, Rule::Purity);
    assert_eq!(
        hits.len(),
        1,
        "only the pinned queue.rs fires: {findings:?}"
    );
    assert!(hits[0].file.ends_with("queue.rs"));
    assert!(hits[0].msg.contains("Instant"));
}

#[test]
fn purity_reports_scope_rot_when_pinned_reactor_file_vanishes() {
    // `net` crate present but the pinned files are missing (renamed
    // away) — the rule must flag scope rot, not pass silently.
    let ws = ws(&[(
        "net",
        "crates/net/src/lib.rs",
        r#"
        pub fn io_is_fine() {}
        "#,
    )]);
    let findings = purity::check(&ws);
    let rot = rule_findings(&findings, Rule::SelfCheck);
    assert!(
        rot.iter().any(|f| f.file.ends_with("queue.rs"))
            && rot.iter().any(|f| f.file.ends_with("timer.rs")),
        "missing pinned files must surface as scope rot: {findings:?}"
    );
}

// ---------------------------------------------------------------------
// Rule 2: wire-path panic-freedom
// ---------------------------------------------------------------------

fn fixture_panic_cfg() -> panics::Config {
    panics::Config {
        roots: vec![panics::RootMatcher {
            crate_name: None,
            file_suffix: None,
            self_ty: None,
            fn_name: Some("on_message"),
        }],
        decode_layer: vec!["src/codec.rs"],
        dot_blocklist: vec!["get", "insert", "len"],
        required_roots: vec![],
    }
}

#[test]
fn panic_fires_on_unwrap_reachable_from_decode_root() {
    let ws = ws(&[(
        "fake",
        "crates/fake/src/actor.rs",
        r#"
        pub struct A;
        impl A {
            pub fn on_message(&mut self, msg: u64) {
                helper(msg);
            }
        }
        fn helper(x: u64) -> u64 {
            deeper(x)
        }
        fn deeper(x: u64) -> u64 {
            let v: Option<u64> = Some(x);
            v.unwrap()
        }
        fn unreachable_helper() {
            let v: Option<u64> = None;
            v.expect("never flagged: not reachable from a root");
        }
        "#,
    )]);
    let out = panics::check(&ws, &fixture_panic_cfg());
    let hits = rule_findings(&out.findings, Rule::WirePanic);
    assert_eq!(
        hits.len(),
        1,
        "only the reachable unwrap: {:?}",
        out.findings
    );
    assert_eq!(hits[0].item, "deeper");
    assert!(
        hits[0].msg.contains("on_message"),
        "witness path names the root: {}",
        hits[0].msg
    );
    assert_eq!(out.reachable_fns, 3, "root + helper + deeper");
}

#[test]
fn panic_follows_a_generic_core_into_every_adaptor() {
    // The shape of the secagg round core: one actor generic over a wire
    // adaptor. A panic reachable only through the core's own dispatch and
    // one reachable only through an adaptor's `decode` — called as
    // `W::decode(..)`, a path through a generic parameter — must both be
    // flagged, each with the path that reaches it.
    let ws = ws(&[
        (
            "fake",
            "crates/fake/src/engine.rs",
            r#"
            pub trait Wire {
                type Msg;
                fn decode(msg: Self::Msg) -> u64;
            }
            pub struct RoundCore<W: Wire> { round: u64, wire: std::marker::PhantomData<W> }
            impl<W: Wire> RoundCore<W> {
                fn dispatch(&mut self, event: u64) {
                    let slot: Option<u64> = self.round.checked_sub(event);
                    self.round = slot.unwrap();
                }
            }
            impl<W: Wire> Actor<W::Msg> for RoundCore<W> {
                fn on_message(&mut self, msg: W::Msg) {
                    self.dispatch(W::decode(msg));
                }
            }
            "#,
        ),
        (
            "fake",
            "crates/fake/src/ring.rs",
            r#"
            pub struct RingWire;
            impl Wire for RingWire {
                type Msg = Vec<u64>;
                fn decode(msg: Vec<u64>) -> u64 {
                    msg.first().copied().expect("adaptor trusts the frame")
                }
            }
            pub struct QuietWire;
            impl Wire for QuietWire {
                type Msg = u64;
                fn decode(msg: u64) -> u64 { msg }
            }
            impl QuietWire {
                fn unrelated(&self) -> u64 {
                    let v: Option<u64> = None;
                    v.expect("not a trait method, not reachable")
                }
            }
            "#,
        ),
    ]);
    let mut cfg = fixture_panic_cfg();
    cfg.required_roots = vec!["RoundCore::on_message", "RingWire::decode"];
    let out = panics::check(&ws, &cfg);
    assert!(
        rule_findings(&out.findings, Rule::SelfCheck).is_empty(),
        "core and adaptor are both reachable: {:?}",
        out.findings
    );
    let hits = rule_findings(&out.findings, Rule::WirePanic);
    assert_eq!(hits.len(), 2, "{:?}", out.findings);
    let core = hits.iter().find(|f| f.item == "RoundCore::dispatch");
    let core = core.expect("panic in the generic core's dispatch");
    assert!(
        core.msg
            .contains("RoundCore::on_message -> RoundCore::dispatch"),
        "{}",
        core.msg
    );
    let adaptor = hits.iter().find(|f| f.item == "RingWire::decode");
    let adaptor = adaptor.expect("panic in the adaptor's decode");
    assert!(
        adaptor
            .msg
            .contains("RoundCore::on_message -> RingWire::decode"),
        "{}",
        adaptor.msg
    );
}

#[test]
fn panic_decode_layer_flags_indexing_and_asserts() {
    let ws = ws(&[(
        "fake",
        "crates/fake/src/codec.rs",
        r#"
        pub struct D;
        impl D {
            pub fn on_message(&mut self, bytes: &[u8]) -> u8 {
                assert!(!bytes.is_empty(), "decode layer must not assert");
                bytes[0]
            }
        }
        "#,
    )]);
    let out = panics::check(&ws, &fixture_panic_cfg());
    let hits = rule_findings(&out.findings, Rule::WirePanic);
    assert_eq!(hits.len(), 2, "{:?}", out.findings);
    assert!(hits.iter().any(|f| f.msg.contains("assert")));
    assert!(hits.iter().any(|f| f.msg.contains("indexing")));
}

#[test]
fn panic_quiet_on_total_decode_code() {
    let ws = ws(&[(
        "fake",
        "crates/fake/src/codec.rs",
        r#"
        pub struct D;
        impl D {
            pub fn on_message(&mut self, bytes: &[u8]) -> Option<u8> {
                let [first] = bytes.first_chunk::<1>()?;
                Some(*first)
            }
        }
        "#,
    )]);
    let out = panics::check(&ws, &fixture_panic_cfg());
    assert!(
        rule_findings(&out.findings, Rule::WirePanic).is_empty(),
        "get/first_chunk-based decode is total: {:?}",
        out.findings
    );
}

#[test]
fn panic_scope_rot_when_required_root_vanishes() {
    let mut cfg = fixture_panic_cfg();
    cfg.required_roots = vec!["D::on_message"];
    let ws = ws(&[(
        "fake",
        "crates/fake/src/codec.rs",
        r#"
        pub struct D;
        impl D {
            pub fn handle_renamed(&mut self) {}
        }
        pub struct E;
        impl E {
            pub fn on_message(&mut self) {}
        }
        "#,
    )]);
    let out = panics::check(&ws, &cfg);
    let rot = rule_findings(&out.findings, Rule::SelfCheck);
    assert_eq!(rot.len(), 1, "{:?}", out.findings);
    assert!(rot[0].msg.contains("D::on_message"));
}

#[test]
fn panic_scope_rot_when_a_root_matcher_matches_nothing() {
    let mut cfg = fixture_panic_cfg();
    cfg.roots.push(panics::RootMatcher {
        crate_name: Some("fake"),
        file_suffix: None,
        self_ty: None,
        fn_name: Some("reader_loop"),
    });
    let ws = ws(&[(
        "fake",
        "crates/fake/src/actor.rs",
        r#"
        pub struct A;
        impl A {
            pub fn on_message(&mut self) {}
        }
        "#,
    )]);
    let out = panics::check(&ws, &cfg);
    let rot = rule_findings(&out.findings, Rule::SelfCheck);
    assert_eq!(rot.len(), 1, "{:?}", out.findings);
    assert!(
        rot[0].msg.contains("reader_loop") && rot[0].msg.contains("scope rot"),
        "{}",
        rot[0].msg
    );
}

// ---------------------------------------------------------------------
// Rule 3: secret-flow confinement
// ---------------------------------------------------------------------

/// The production sinks and sources; fixtures are a few lines long, so
/// only the production crate is held to the production sink-site floor.
fn fixture_secret_cfg() -> secrets::Config {
    secrets::Config {
        min_sink_sites: 1,
        ..secrets::Config::production()
    }
}

#[test]
fn secret_flow_fires_on_raw_weights_into_wire_constructor() {
    let ws = ws(&[(
        "secagg",
        "crates/secagg/src/engine.rs",
        r#"
        pub struct E { model: Vec<f64> }
        pub enum SacMsg { ShareBlock { parts: Vec<f64> } }
        impl E {
            pub fn leak(&self) -> SacMsg {
                SacMsg::ShareBlock { parts: self.model.clone() }
            }
        }
        "#,
    )]);
    let findings = secrets::check(&ws, &fixture_secret_cfg());
    let hits = rule_findings(&findings, Rule::SecretFlow);
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].item, "E::leak");
    assert!(hits[0].msg.contains("SacMsg::ShareBlock"));
}

#[test]
fn secret_flow_tracks_let_bindings() {
    let ws = ws(&[(
        "secagg",
        "crates/secagg/src/engine.rs",
        r#"
        pub struct E { model: Vec<f64> }
        pub enum RingMsg { StageShare(Vec<f64>) }
        impl E {
            pub fn leak_via_local(&self) -> RingMsg {
                let weights = self.model.clone();
                let renamed = weights;
                RingMsg::StageShare(renamed)
            }
        }
        "#,
    )]);
    let findings = secrets::check(&ws, &fixture_secret_cfg());
    let hits = rule_findings(&findings, Rule::SecretFlow);
    assert_eq!(hits.len(), 1, "taint must survive let chains: {findings:?}");
}

#[test]
fn secret_flow_quiet_on_approved_laundering() {
    let ws = ws(&[(
        "secagg",
        "crates/secagg/src/engine.rs",
        r#"
        pub struct E { model: Vec<f64> }
        pub enum SacMsg { ShareBlock { parts: Vec<f64> }, Commit { digest: u64 } }
        fn divide(w: &[f64], n: usize) -> Vec<f64> { let _ = n; w.to_vec() }
        impl E {
            pub fn share(&self) -> SacMsg {
                SacMsg::ShareBlock { parts: divide(&self.model, 4) }
            }
            pub fn commit(&self) -> SacMsg {
                SacMsg::Commit { digest: self.model.digest() }
            }
        }
        "#,
    )]);
    let findings = secrets::check(&ws, &fixture_secret_cfg());
    assert!(
        rule_findings(&findings, Rule::SecretFlow).is_empty(),
        "divide()/digest() launder the flow: {findings:?}"
    );
    // And the scope-rot self-check stayed quiet: sinks were seen.
    assert!(rule_findings(&findings, Rule::SelfCheck).is_empty());
}

#[test]
fn secret_flow_follows_the_core_into_an_adaptor_constructor() {
    // The round core never names a wire enum: it builds the event the
    // adaptor's `encode` turns into one. Raw weights handed to that event
    // are reported where they enter it — the `divide()`d ones beside them
    // are not — and the adaptor's own constructor, fed only the event's
    // fields, stays clean.
    let ws = ws(&[
        (
            "secagg",
            "crates/secagg/src/engine.rs",
            r#"
            pub struct RoundCore<W> { model: Vec<f64>, wire: W }
            pub enum RoundEvent { Share { parts: Vec<f64> } }
            fn divide(w: &[f64], n: usize) -> Vec<f64> { let _ = n; w.to_vec() }
            impl<W: Wire> RoundCore<W> {
                fn leak(&self) -> Option<W::Msg> {
                    let parts = self.model.clone();
                    W::encode(RoundEvent::Share { parts })
                }
                fn share(&self) -> Option<W::Msg> {
                    let parts = divide(&self.model, 4);
                    W::encode(RoundEvent::Share { parts })
                }
            }
            "#,
        ),
        (
            "secagg",
            "crates/secagg/src/ring/engine.rs",
            r#"
            pub enum RingMsg { StageShare { parts: Vec<f64> } }
            pub struct RingWire;
            impl Wire for RingWire {
                type Msg = RingMsg;
                fn encode(event: RoundEvent) -> Option<RingMsg> {
                    match event {
                        RoundEvent::Share { parts } => Some(RingMsg::StageShare { parts }),
                    }
                }
            }
            "#,
        ),
    ]);
    let findings = secrets::check(&ws, &fixture_secret_cfg());
    let hits = rule_findings(&findings, Rule::SecretFlow);
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].item, "RoundCore::leak");
    assert!(hits[0].msg.contains("RoundEvent::Share"));
}

#[test]
fn secret_flow_scope_rot_when_sink_sites_drop() {
    // One constructor is plenty for a fixture but far below what the
    // production crate is known to hold: under the production floor the
    // pass must report that it is no longer seeing the adaptors.
    let ws = ws(&[(
        "secagg",
        "crates/secagg/src/engine.rs",
        r#"
        pub enum SacMsg { Begin { round: u64 } }
        pub fn begin() -> SacMsg { SacMsg::Begin { round: 1 } }
        "#,
    )]);
    assert!(secrets::check(&ws, &fixture_secret_cfg()).is_empty());
    let findings = secrets::check(&ws, &secrets::Config::production());
    let rot = rule_findings(&findings, Rule::SelfCheck);
    assert_eq!(rot.len(), 1, "{findings:?}");
    assert!(rot[0].msg.contains("scope rot"));
}

#[test]
fn secret_flow_scope_rot_when_no_sinks_seen() {
    let ws = ws(&[(
        "secagg",
        "crates/secagg/src/engine.rs",
        "pub fn nothing_here() {}",
    )]);
    let findings = secrets::check(&ws, &fixture_secret_cfg());
    let rot = rule_findings(&findings, Rule::SelfCheck);
    assert_eq!(rot.len(), 1, "{findings:?}");
    assert!(rot[0].msg.contains("scope rot"));
}

// ---------------------------------------------------------------------
// Rule 4: pinned security fixes
// ---------------------------------------------------------------------

const PLAN_WITH_FIX: &str = r#"
    pub fn ceil_log2(n: usize) -> usize { n }
    pub struct RingPlan { stages: usize }
    impl RingPlan {
        pub fn new(n: usize, k: usize) -> RingPlan {
            let _ = k;
            RingPlan { stages: ceil_log2(n).max(2) }
        }
        pub fn stage_k(&self, k: usize) -> usize {
            (k / self.stages).max(2)
        }
    }
"#;

const CODEC_WITH_CHECK: &str = r#"
    pub struct BinDeserializer { pos: usize }
    impl BinDeserializer {
        fn de_f64_seq(&mut self) -> Result<Vec<f64>, CodecError> {
            let n = self.read_len()?;
            let nbytes = n.checked_mul(8).ok_or(CodecError::Eof)?;
            let (elems, _) = self.take(nbytes)?.as_chunks::<8>();
            Ok(elems.iter().map(|b| f64::from_le_bytes(*b)).collect())
        }
    }
"#;

const PLAN_PATH: &str = "crates/secagg/src/ring/plan.rs";
const CODEC_PATH: &str = "crates/simnet/src/codec.rs";

#[test]
fn pins_pass_while_fix_is_present() {
    let ws = ws(&[
        ("secagg", PLAN_PATH, PLAN_WITH_FIX),
        ("simnet", CODEC_PATH, CODEC_WITH_CHECK),
    ]);
    let findings = pins::check(&ws, pins::PRODUCTION);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn pins_fire_when_bulk_decode_bounds_check_dropped() {
    // A refactor that allocates from the declared count and fills it
    // element by element: no `take` of the whole run up front, and the
    // byte count computed with a plain multiply.
    let unchecked = CODEC_WITH_CHECK
        .replace("n.checked_mul(8).ok_or(CodecError::Eof)?", "n * 8")
        .replace("self.take(nbytes)?", "self.peek(nbytes)");
    let ws = ws(&[
        ("secagg", PLAN_PATH, PLAN_WITH_FIX),
        ("simnet", CODEC_PATH, unchecked.as_str()),
    ]);
    let findings = pins::check(&ws, pins::PRODUCTION);
    let hits = rule_findings(&findings, Rule::Pin);
    assert_eq!(hits.len(), 2, "both decode pins must fire: {findings:?}");
    assert!(hits.iter().all(|f| f.item == "de_f64_seq"));
}

#[test]
fn pins_fire_when_share_confinement_fix_reverted() {
    // The PR 6 fix reverted: thresholds and stage counts lose their
    // `.max(2)` floors — exactly the singleton-stage leak shape.
    let reverted = PLAN_WITH_FIX.replace(".max(2)", "");
    let ws = ws(&[
        ("secagg", PLAN_PATH, reverted.as_str()),
        ("simnet", CODEC_PATH, CODEC_WITH_CHECK),
    ]);
    let findings = pins::check(&ws, pins::PRODUCTION);
    let hits = rule_findings(&findings, Rule::Pin);
    assert_eq!(hits.len(), 2, "both pins must fire: {findings:?}");
    assert!(hits.iter().any(|f| f.item == "stage_k"));
    assert!(hits.iter().any(|f| f.item == "new"));
}

#[test]
fn pins_fire_when_pinned_function_disappears() {
    let ws = ws(&[
        ("secagg", PLAN_PATH, "pub fn unrelated() {}"),
        ("simnet", CODEC_PATH, "pub fn unrelated() {}"),
    ]);
    let findings = pins::check(&ws, pins::PRODUCTION);
    assert_eq!(findings.len(), pins::PRODUCTION.len(), "{findings:?}");
    assert!(findings.iter().all(|f| f.msg.contains("not found")));
}

// ---------------------------------------------------------------------
// Allowlist policy
// ---------------------------------------------------------------------

fn synthetic(rule: Rule, file: &str, item: &str) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line: 1,
        item: item.to_string(),
        msg: "synthetic".to_string(),
    }
}

#[test]
fn allowlist_suppresses_matching_findings() {
    let entries = [AllowEntry {
        rule: Rule::Purity,
        file_suffix: "src/parallel.rs",
        item: "*",
        justification: "fixture",
    }];
    let findings = vec![
        synthetic(Rule::Purity, "crates/fed/src/parallel.rs", "local_updates"),
        synthetic(Rule::Purity, "crates/fed/src/lib.rs", "other"),
        synthetic(
            Rule::WirePanic,
            "crates/fed/src/parallel.rs",
            "local_updates",
        ),
    ];
    let (active, suppressed) = allow::apply(findings, &entries);
    assert_eq!(suppressed.len(), 1, "only (rule, file) matches suppress");
    assert_eq!(active.len(), 2, "{active:?}");
}

#[test]
fn allowlist_stale_entry_is_a_finding() {
    let entries = [AllowEntry {
        rule: Rule::WirePanic,
        file_suffix: "src/gone.rs",
        item: "Fixed::long_ago",
        justification: "fixture",
    }];
    let (active, suppressed) = allow::apply(Vec::new(), &entries);
    assert!(suppressed.is_empty());
    assert_eq!(active.len(), 1);
    assert!(active[0].msg.contains("stale"), "{:?}", active[0]);
}

#[test]
fn allowlist_over_cap_is_a_finding() {
    let entry = |i: &'static str| AllowEntry {
        rule: Rule::Purity,
        file_suffix: "src/x.rs",
        item: i,
        justification: "fixture",
    };
    let entries = [
        entry("a"),
        entry("b"),
        entry("c"),
        entry("d"),
        entry("e"),
        entry("f"),
    ];
    let findings: Vec<Finding> = ["a", "b", "c", "d", "e", "f"]
        .iter()
        .map(|i| synthetic(Rule::Purity, "crates/k/src/x.rs", i))
        .collect();
    let (active, suppressed) = allow::apply(findings, &entries);
    assert_eq!(suppressed.len(), 6);
    assert!(
        active.iter().any(|f| f.msg.contains("cap is")),
        "oversize list must fail even when every entry is used: {active:?}"
    );
    assert!(allow::ALLOWLIST.len() <= allow::MAX_ENTRIES);
}

// ---------------------------------------------------------------------
// Wire-surface lint (migrated from the xtask line scanner)
// ---------------------------------------------------------------------

#[test]
fn wire_surface_flags_missing_derives_and_registry() {
    let ws = ws(&[(
        "fake",
        "crates/fake/src/msg.rs",
        r#"
        pub enum FooMsg { Ping }
        "#,
    )]);
    let report = wire::check(&ws, &[("reg.rs".to_string(), String::new())]);
    let hits = rule_findings(&report.findings, Rule::WireSurface);
    assert_eq!(hits.len(), 2, "derives + registry: {:?}", report.findings);
    assert!(hits.iter().any(|f| f.msg.contains("serde")));
    assert!(hits.iter().any(|f| f.msg.contains("round-trip")));
    assert_eq!(report.checked, 1);
}

#[test]
fn wire_surface_quiet_on_derived_and_registered_type() {
    let ws = ws(&[(
        "fake",
        "crates/fake/src/msg.rs",
        r#"
        #[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
        pub enum FooMsg { Ping }
        struct PrivateHelper;
        #[cfg(test)]
        mod tests {
            pub enum TestOnlyMsg { X }
        }
        "#,
    )]);
    let report = wire::check(
        &ws,
        &[("reg.rs".to_string(), "roundtrip::<FooMsg>()".to_string())],
    );
    assert!(
        rule_findings(&report.findings, Rule::WireSurface).is_empty(),
        "{:?}",
        report.findings
    );
    assert_eq!(report.checked, 1, "private and test-only types are skipped");
}

#[test]
fn wire_surface_scope_rot_when_must_find_types_vanish() {
    let ws = ws(&[("fake", "crates/fake/src/lib.rs", "pub struct NotAMsg;")]);
    let report = wire::check(&ws, &[]);
    let rot = rule_findings(&report.findings, Rule::SelfCheck);
    assert_eq!(
        rot.len(),
        3,
        "RaftMsg/SacMsg/HierMsg: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------
// End-to-end: the production lint over the real workspace
// ---------------------------------------------------------------------

#[test]
fn production_lint_is_green_on_this_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = p2pfl_lint::run_at(&root).expect("workspace loads");
    assert!(
        report.is_clean(),
        "production lint must stay green:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.suppressed.len() <= 2 * allow::MAX_ENTRIES);
    let wire = wire::run_at(&root).expect("workspace loads");
    assert!(wire.findings.is_empty(), "{:?}", wire.findings);
    assert!(wire.checked >= 22, "wire surface shrank: {}", wire.checked);
}
