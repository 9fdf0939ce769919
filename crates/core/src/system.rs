//! The two-layer aggregation system (paper Alg. 3), synchronous form.
//!
//! This is the trainer behind the accuracy experiments (Figs. 6–9): peers
//! train locally, every subgroup aggregates its members' models with
//! (fault-tolerant) SAC — executing the real share arithmetic, including
//! its floating-point error — and the FedAvg leader combines the subgroup
//! averages weighted by subgroup sample counts. The full message-level
//! deployment with Raft-elected leaders lives in [`crate::runner`]; this
//! synchronous form factors out wall-clock concerns so thousand-round
//! sweeps are tractable, while charging every logical transfer to a
//! [`TransferLog`] that the cost model is tested against.

use crate::cost::even_groups;
use p2pfl_fed::{fedavg, Client, LocalTrainConfig};
use p2pfl_ml::data::Dataset;
use p2pfl_ml::metrics::evaluate;
use p2pfl_ml::Sequential;
use p2pfl_secagg::dp::{privatize, GaussianDp};
use p2pfl_secagg::{
    fault_tolerant_secure_average, DropPhase, Dropout, FtSacError, ShareScheme, TransferLog,
    WeightVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which aggregation topology to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The paper's proposal: SAC inside subgroups, FedAvg across them.
    TwoLayer,
    /// The baseline: one-layer SAC over all peers with full subtotal
    /// broadcast (paper Alg. 2; the `n = N` curves in Figs. 6–7).
    OriginalSac,
}

/// Configuration of a [`TwoLayerSystem`].
#[derive(Debug, Clone)]
pub struct TwoLayerConfig {
    /// Aggregation topology.
    pub kind: SystemKind,
    /// Subgroup size `n` (ignored for [`SystemKind::OriginalSac`]).
    pub subgroup_size: usize,
    /// Reconstruction threshold `k`; `None` means n-out-of-n per group.
    pub threshold: Option<usize>,
    /// Share construction scheme.
    pub scheme: ShareScheme,
    /// Fraction `p` of subgroups whose models the FedAvg leader waits for
    /// each round (Figs. 8–9); the rest time out and are skipped.
    pub fraction: f64,
    /// Local training hyperparameters.
    pub train: LocalTrainConfig,
    /// System RNG seed (subgroup sampling, share randomness).
    pub seed: u64,
    /// Optional per-peer differential privacy: each peer clips its model
    /// and adds Gaussian-mechanism noise *before* sharing (paper
    /// Sec. IV-D's suggested hardening).
    pub dp: Option<GaussianDp>,
    /// Run SAC among the subgroup leaders too, instead of plain FedAvg —
    /// the "stronger privacy guarantees in the higher layer" variant the
    /// paper sketches. Raises the upper-layer cost from `2(m-1)|w|` to
    /// `(m²-1)|w|` (see [`crate::cost::two_layer_units_fed_sac`]).
    pub fed_layer_sac: bool,
}

impl Default for TwoLayerConfig {
    fn default() -> Self {
        TwoLayerConfig {
            kind: SystemKind::TwoLayer,
            subgroup_size: 3,
            threshold: None,
            scheme: ShareScheme::Masked,
            fraction: 1.0,
            train: LocalTrainConfig::default(),
            seed: 0,
            dp: None,
            fed_layer_sac: false,
        }
    }
}

/// Per-round measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: usize,
    /// Mean training loss over participating peers.
    pub train_loss: f64,
    /// Global model test loss after aggregation.
    pub test_loss: f64,
    /// Global model test accuracy after aggregation.
    pub test_accuracy: f64,
    /// Bytes transferred this round (SAC + FedAvg + broadcast).
    pub bytes: u64,
    /// Number of subgroups whose aggregate made it into FedAvg.
    pub groups_used: usize,
}

/// The synchronous two-layer training system.
pub struct TwoLayerSystem {
    cfg: TwoLayerConfig,
    groups: Vec<Vec<usize>>,
    clients: Vec<Client>,
    eval_model: Sequential,
    global: Vec<f64>,
    rng: StdRng,
    pending_dropouts: Vec<Dropout>,
    /// Cumulative communication ledger across all rounds.
    pub log: TransferLog,
}

impl TwoLayerSystem {
    /// Builds the system. Peers are grouped evenly in index order (the
    /// paper's Fig. 6 rule: `N = 10, n = 3` gives groups of 3, 3, 4).
    /// `eval_model` supplies both the architecture twin for evaluation and
    /// the initial global parameters.
    pub fn new(clients: Vec<Client>, eval_model: Sequential, cfg: TwoLayerConfig) -> Self {
        assert!(!clients.is_empty(), "need at least one peer");
        assert!(
            (0.0..=1.0).contains(&cfg.fraction) && cfg.fraction > 0.0,
            "fraction must be in (0, 1]"
        );
        assert!(
            cfg.threshold != Some(0),
            "threshold k must be at least 1 (None means n-out-of-n)"
        );
        let n_total = clients.len();
        let groups: Vec<Vec<usize>> = match cfg.kind {
            SystemKind::OriginalSac => vec![(0..n_total).collect()],
            SystemKind::TwoLayer => {
                assert!(
                    cfg.subgroup_size >= 1 && cfg.subgroup_size <= n_total,
                    "subgroup size out of range"
                );
                let m = n_total / cfg.subgroup_size;
                let m = m.max(1);
                let sizes = even_groups(n_total, m);
                let mut groups = Vec::with_capacity(m);
                let mut next = 0usize;
                for s in sizes {
                    groups.push((next..next + s).collect());
                    next += s;
                }
                groups
            }
        };
        let global = eval_model.params_flat();
        let mut sys = TwoLayerSystem {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x2fa7),
            cfg,
            groups,
            clients,
            eval_model,
            global,
            pending_dropouts: Vec::new(),
            log: TransferLog::new(),
        };
        sys.push_global();
        sys
    }

    /// The subgroup memberships (peer indices).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The current global parameters.
    pub fn global(&self) -> &[f64] {
        &self.global
    }

    /// Schedules peer dropouts for the next round only (exercises the
    /// fault-tolerant SAC path; requires a `threshold`).
    pub fn inject_dropouts(&mut self, dropouts: &[(usize, DropPhase)]) {
        self.pending_dropouts = dropouts
            .iter()
            .map(|&(peer, phase)| Dropout { peer, phase })
            .collect();
    }

    fn push_global(&mut self) {
        for c in &mut self.clients {
            c.set_params(&self.global);
        }
    }

    fn select_groups(&mut self) -> Vec<usize> {
        let m = self.groups.len();
        let take = ((m as f64 * self.cfg.fraction).round() as usize).clamp(1, m);
        if take == m {
            return (0..m).collect();
        }
        let mut idx: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            let j = self.rng.random_range(0..=i);
            idx.swap(i, j);
        }
        idx.truncate(take);
        idx.sort_unstable();
        idx
    }

    /// Runs one full round (paper Alg. 3) and evaluates on `test`.
    pub fn run_round(&mut self, round: usize, test: &Dataset) -> RoundRecord {
        let bytes_before = self.log.bytes();

        // 1. Local updates on every peer (paper: peers train, then models
        //    are aggregated via SAC in subgroups). Peers are independent,
        //    so their training runs on scoped worker threads; each client
        //    owns its RNG/optimizer, so the result is deterministic
        //    regardless of scheduling.
        let every = vec![true; self.clients.len()];
        let losses =
            p2pfl_fed::parallel::local_updates_masked(&mut self.clients, &every, self.cfg.train);
        let train_loss = losses.iter().flatten().sum::<f64>() / losses.len() as f64;

        // 2. Subgroup SAC for each selected subgroup.
        let selected = self.select_groups();
        let dropouts = std::mem::take(&mut self.pending_dropouts);
        let mut group_avgs: Vec<Vec<f64>> = Vec::new();
        let mut group_counts: Vec<usize> = Vec::new();
        for &g in &selected {
            match self.aggregate_group(g, &dropouts) {
                Some((avg, count)) => {
                    group_avgs.push(avg.into_inner());
                    group_counts.push(count);
                }
                None => continue, // subgroup lost this round
            }
        }
        let groups_used = group_avgs.len();

        // 3. FedAvg across subgroup aggregates, weighted by sample counts
        //    (Alg. 3 line 10). Upload cost: one model per non-leading
        //    subgroup leader (the FedAvg leader's own subgroup is local).
        if groups_used > 0 {
            if self.cfg.fed_layer_sac && groups_used > 1 {
                // Secure aggregation among the leaders themselves: SAC the
                // count-scaled subgroup means, then renormalize (counts are
                // public metadata). Cost: (m'^2 - 1)|w| instead of the
                // plain uploads.
                let total: usize = group_counts.iter().sum();
                let inputs: Vec<WeightVector> = group_avgs
                    .iter()
                    .zip(&group_counts)
                    .map(|(a, &c)| WeightVector::new(a.clone()).scaled(c as f64))
                    .collect();
                let out = fault_tolerant_secure_average(
                    &inputs,
                    groups_used,
                    0,
                    &[],
                    self.cfg.scheme,
                    &mut self.rng,
                )
                .expect("an n-of-n round without dropouts completes");
                self.log.absorb(&out.log);
                let mut global = out.average;
                global.scale(groups_used as f64 / total as f64);
                self.global = global.into_inner();
            } else {
                for _ in 1..groups_used {
                    self.log.record("fedavg.upload", self.model_bytes());
                }
                self.global = fedavg(&group_avgs, &group_counts);
            }
        }

        // 4. Broadcast the new global model: FedAvg leader -> subgroup
        //    leaders -> members (all peers resume from it).
        for (gi, group) in self.groups.iter().enumerate() {
            if gi != 0 {
                self.log.record("fedavg.download", self.model_bytes());
            }
            for _ in 1..group.len() {
                self.log.record("bcast.member", self.model_bytes());
            }
        }
        self.push_global();

        // 5. Evaluate the global model.
        self.eval_model.set_params_flat(&self.global);
        let (test_loss, test_accuracy) = evaluate(&mut self.eval_model, test, 256);
        RoundRecord {
            round,
            train_loss,
            test_loss,
            test_accuracy,
            bytes: self.log.bytes() - bytes_before,
            groups_used,
        }
    }

    fn model_bytes(&self) -> u64 {
        self.global.len() as u64 * p2pfl_secagg::WIRE_BYTES_PER_PARAM
    }

    /// Aggregates subgroup `g`, honoring this round's dropout schedule.
    /// Returns the subgroup average and its total sample count, or `None`
    /// if the subgroup could not aggregate.
    fn aggregate_group(&mut self, g: usize, dropouts: &[Dropout]) -> Option<(WeightVector, usize)> {
        let members = &self.groups[g];
        let local: Vec<Dropout> = dropouts
            .iter()
            .filter_map(|d| {
                members
                    .iter()
                    .position(|&p| p == d.peer)
                    .map(|pos| Dropout {
                        peer: pos,
                        phase: d.phase,
                    })
            })
            .collect();
        let models: Vec<WeightVector> = members
            .iter()
            .map(|&p| {
                let mut w = WeightVector::new(self.clients[p].params());
                if let Some(dp) = self.cfg.dp {
                    // Noise is injected on the peer, before any share
                    // leaves it, so the guarantee holds against everyone.
                    privatize(&mut w, dp, &mut self.rng);
                }
                w
            })
            .collect();

        // The baseline runs Alg. 2 over everyone, ignoring the threshold; a
        // subgroup runs Alg. 4 at its threshold, n-out-of-n without one.
        let n = members.len();
        let threshold = match self.cfg.kind {
            SystemKind::OriginalSac => None,
            SystemKind::TwoLayer => self.cfg.threshold,
        };
        if threshold.is_none() && !local.is_empty() {
            return None; // n-out-of-n aborts outright on any dropout
        }
        // Leader: lowest-index member that is not dropping out. In the full
        // system Raft makes this choice (crate::runner).
        let leader = (0..n).find(|pos| !local.iter().any(|d| d.peer == *pos))?;
        let k = threshold.unwrap_or(n).min(n);
        let out = match fault_tolerant_secure_average(
            &models,
            k,
            leader,
            &local,
            self.cfg.scheme,
            &mut self.rng,
        ) {
            Ok(out) => out,
            Err(FtSacError::TooManyDropouts { .. }) => return None,
            Err(e) => panic!("unexpected FT-SAC failure: {e}"),
        };
        self.log.absorb(&out.log);
        if self.cfg.kind == SystemKind::OriginalSac {
            // Alg. 2 broadcasts every subtotal to every peer rather than
            // collecting them at a leader: (n-1)^2 more model transfers,
            // which no engine sends (2n(n-1) in all, Sec. III-B).
            for _ in 0..(n - 1) * (n - 1) {
                self.log.record("secagg.total", self.model_bytes());
            }
        }
        let count: usize = out
            .contributors
            .iter()
            .map(|&pos| self.clients[members[pos]].num_samples())
            .sum();
        Some((out.average, count))
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize, test: &Dataset) -> Vec<RoundRecord> {
        (1..=rounds).map(|r| self.run_round(r, test)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Partition};
    use p2pfl_ml::models::mlp;

    fn build(
        n_total: usize,
        cfg: TwoLayerConfig,
        partition: Partition,
        seed: u64,
    ) -> (TwoLayerSystem, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) =
            train_test_split(&features_like(16, 60 * n_total + 300, seed), 60 * n_total);
        let parts = partition_dataset(&train, n_total, partition, seed + 1);
        let clients: Vec<Client> = parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                Client::new(
                    i,
                    mlp(&[16, 24, 10], &mut rng),
                    d,
                    5e-3,
                    seed + 2 + i as u64,
                )
            })
            .collect();
        let eval = mlp(&[16, 24, 10], &mut rng);
        (TwoLayerSystem::new(clients, eval, cfg), test)
    }

    fn base_cfg(n: usize) -> TwoLayerConfig {
        TwoLayerConfig {
            subgroup_size: n,
            train: LocalTrainConfig {
                epochs: 1,
                batch_size: 32,
            },
            ..TwoLayerConfig::default()
        }
    }

    #[test]
    fn grouping_matches_paper_fig6_caption() {
        // "in case of n = 3, the N = 10 peers are divided into three
        // subgroups with 3, 3, and 4 peers each".
        let (sys, _) = build(10, base_cfg(3), Partition::Iid, 1);
        let sizes: Vec<usize> = sys.groups().iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn two_layer_learns() {
        let (mut sys, test) = build(6, base_cfg(3), Partition::Iid, 2);
        let recs = sys.run(20, &test);
        let first = recs.first().unwrap().test_accuracy;
        let last = recs.last().unwrap().test_accuracy;
        assert!(last > first + 0.15, "accuracy {first:.3} -> {last:.3}");
    }

    #[test]
    fn two_layer_tracks_original_sac_accuracy() {
        // Fig. 6's core claim: same accuracy as the baseline.
        let mut cfg = base_cfg(3);
        let (mut two, test) = build(6, cfg.clone(), Partition::Iid, 3);
        cfg.kind = SystemKind::OriginalSac;
        let (mut base, _) = build(6, cfg, Partition::Iid, 3);
        let a2 = two.run(15, &test).last().unwrap().test_accuracy;
        let a1 = base.run(15, &test).last().unwrap().test_accuracy;
        assert!(
            (a1 - a2).abs() < 0.08,
            "two-layer {a2:.3} vs baseline {a1:.3}"
        );
    }

    #[test]
    fn round_cost_matches_eq4() {
        // Equal groups, n-out-of-n: Eq. 4 = (m n² + m n − 2)|w|.
        let (mut sys, test) = build(6, base_cfg(3), Partition::Iid, 4);
        let rec = sys.run_round(1, &test);
        let w = sys.model_bytes();
        let expected = crate::cost::two_layer_units_eq4(2, 3) as u64 * w;
        assert_eq!(rec.bytes, expected);
    }

    #[test]
    fn baseline_cost_matches_alg2_plus_broadcast() {
        let mut cfg = base_cfg(3);
        cfg.kind = SystemKind::OriginalSac;
        let (mut sys, test) = build(5, cfg, Partition::Iid, 5);
        let rec = sys.run_round(1, &test);
        let w = sys.model_bytes();
        // 2N(N-1) for SAC; everyone already holds the result, but our
        // runner still counts the (N-1) global distribution it performs.
        assert_eq!(rec.bytes, (2 * 5 * 4 + 4) as u64 * w);
    }

    #[test]
    fn fraction_uses_subset_of_groups() {
        let mut cfg = base_cfg(3);
        cfg.fraction = 0.5;
        let (mut sys, test) = build(12, cfg, Partition::Iid, 6);
        let rec = sys.run_round(1, &test);
        assert_eq!(rec.groups_used, 2, "half of 4 groups");
    }

    #[test]
    fn ft_threshold_survives_dropout() {
        let mut cfg = base_cfg(3);
        cfg.threshold = Some(2);
        let (mut sys, test) = build(6, cfg, Partition::Iid, 7);
        sys.run_round(1, &test);
        sys.inject_dropouts(&[(1, DropPhase::AfterShare)]);
        let rec = sys.run_round(2, &test);
        assert_eq!(rec.groups_used, 2, "both groups still aggregate");
        assert!(rec.test_accuracy > 0.0);
    }

    #[test]
    fn n_out_of_n_drops_group_on_dropout() {
        let (mut sys, test) = build(6, base_cfg(3), Partition::Iid, 8);
        sys.inject_dropouts(&[(1, DropPhase::BeforeShare)]);
        let rec = sys.run_round(1, &test);
        assert_eq!(rec.groups_used, 1, "affected group must be skipped");
    }

    #[test]
    fn dp_noise_perturbs_but_preserves_learning_signal() {
        use p2pfl_secagg::dp::GaussianDp;
        let mut cfg = base_cfg(3);
        let (mut clean, test) = build(6, cfg.clone(), Partition::Iid, 11);
        cfg.dp = Some(GaussianDp {
            epsilon: 1.0,
            delta: 1e-5,
            sensitivity: 5.0,
        });
        let (mut noisy, _) = build(6, cfg, Partition::Iid, 11);
        let rc = clean.run_round(1, &test);
        let rn = noisy.run_round(1, &test);
        // Same seed, same data: any difference comes from the mechanism.
        assert_ne!(
            clean.global()[..8].to_vec(),
            noisy.global()[..8].to_vec(),
            "DP must perturb the aggregate"
        );
        // Communication cost is unchanged: noise travels for free.
        assert_eq!(rc.bytes, rn.bytes);
    }

    #[test]
    fn fed_layer_sac_matches_plain_fedavg_result() {
        // The stronger-privacy variant must compute the same weighted mean
        // (SAC over count-scaled inputs, renormalized), just at higher
        // upper-layer cost.
        let mut cfg = base_cfg(3);
        let (mut plain, test) = build(9, cfg.clone(), Partition::Iid, 12);
        cfg.fed_layer_sac = true;
        let (mut strong, _) = build(9, cfg, Partition::Iid, 12);
        let rp = plain.run_round(1, &test);
        let rs = strong.run_round(1, &test);
        let err = plain
            .global()
            .iter()
            .zip(strong.global())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-6, "results diverge by {err}");
        // Cost: the upload leg goes from (m-1) to (m^2-1) model units.
        let w = plain.model_bytes();
        assert_eq!(
            rs.bytes - rp.bytes,
            ((3 * 3 - 1) - (3 - 1)) as u64 * w,
            "fed-layer SAC premium"
        );
        assert_eq!(
            rs.bytes,
            crate::cost::two_layer_units_fed_sac(3, 3) as u64 * w
        );
    }

    #[test]
    #[should_panic(expected = "threshold k must be at least 1")]
    fn zero_threshold_is_rejected_at_construction() {
        let mut cfg = base_cfg(3);
        cfg.threshold = Some(0);
        build(6, cfg, Partition::Iid, 10);
    }

    #[test]
    fn dropouts_only_apply_to_next_round() {
        let mut cfg = base_cfg(3);
        cfg.threshold = Some(2);
        let (mut sys, test) = build(6, cfg, Partition::Iid, 9);
        sys.inject_dropouts(&[(0, DropPhase::BeforeShare)]);
        sys.run_round(1, &test);
        let rec = sys.run_round(2, &test);
        assert_eq!(rec.groups_used, 2, "dropout schedule must not persist");
    }
}
