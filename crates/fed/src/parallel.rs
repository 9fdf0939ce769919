//! Parallel per-peer local training.
//!
//! One aggregation round trains every peer's model independently — the
//! single most expensive step of a sweep — so the peers are fanned out
//! over scoped OS threads, one per hardware core (at most eight). Every
//! [`Client`] owns its RNG (seeded per peer at construction), its
//! optimizer state, and its dataset, so the result of a round is a pure
//! function of each client's state: the fan-out is **bit-identical** to
//! the plain per-client loop regardless of thread count or scheduling.

use crate::client::{Client, LocalTrainConfig};

/// Runs `local_update` on every client whose `active` flag is set (e.g.
/// peers the simulator reports alive), over one scoped worker thread per
/// hardware core; inactive clients are left untouched and report `None`.
/// Losses come back in client order.
pub fn local_updates_masked(
    clients: &mut [Client],
    active: &[bool],
    cfg: LocalTrainConfig,
) -> Vec<Option<f64>> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    fan_out(clients, active, cfg, cores)
}

/// [`local_updates_masked`] over at most `width` worker threads (capped at
/// 8, memory-bandwidth-bound past that, and at the live client count); a
/// width of one is the plain loop.
fn fan_out(
    clients: &mut [Client],
    active: &[bool],
    cfg: LocalTrainConfig,
    width: usize,
) -> Vec<Option<f64>> {
    assert_eq!(clients.len(), active.len(), "one flag per client");
    let live = active.iter().filter(|&&a| a).count();
    let threads = width.min(8).min(live);
    if threads <= 1 {
        return clients
            .iter_mut()
            .zip(active)
            .map(|(c, &a)| a.then(|| c.local_update(cfg).0))
            .collect();
    }
    let mut losses: Vec<Option<f64>> = vec![None; clients.len()];
    // Chunk by client index (not by live index): contiguous chunks keep
    // the borrow checker happy and the imbalance is negligible at the
    // peer counts the sweeps use.
    let chunk = clients.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((cs, fs), ls) in clients
            .chunks_mut(chunk)
            .zip(active.chunks(chunk))
            .zip(losses.chunks_mut(chunk))
        {
            s.spawn(move || {
                for ((c, &a), l) in cs.iter_mut().zip(fs).zip(ls.iter_mut()) {
                    if a {
                        *l = Some(c.local_update(cfg).0);
                    }
                }
            });
        }
    });
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_ml::data::{features_like, partition_dataset, Partition};
    use p2pfl_ml::models::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CFG: LocalTrainConfig = LocalTrainConfig {
        epochs: 1,
        batch_size: 16,
    };

    fn make_clients(n: usize, seed: u64) -> Vec<Client> {
        let data = features_like(8, n * 30, seed);
        let parts = partition_dataset(&data, n, Partition::Iid, seed + 1);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| Client::new(i, mlp(&[8, 8, 10], &mut rng), d, 5e-3, seed + 10 + i as u64))
            .collect()
    }

    fn digest(clients: &[Client]) -> Vec<Vec<f64>> {
        clients.iter().map(|c| c.params()).collect()
    }

    #[test]
    fn fan_out_is_bit_identical_to_the_plain_loop() {
        let mut plain = make_clients(6, 42);
        let mut threaded = make_clients(6, 42);
        let expect: Vec<Option<f64>> = plain
            .iter_mut()
            .map(|c| Some(c.local_update(CFG).0))
            .collect();
        // Three workers whatever this host's core count, so the threaded
        // path runs on a single-core host too.
        let got = fan_out(&mut threaded, &[true; 6], CFG, 3);
        assert_eq!(got, expect, "losses diverged");
        assert_eq!(digest(&threaded), digest(&plain), "models diverged");
    }

    #[test]
    fn masked_updates_skip_inactive_clients() {
        let mut clients = make_clients(4, 7);
        let before = clients[2].params();
        let active = [true, true, false, true];
        let losses = fan_out(&mut clients, &active, CFG, 3);
        assert!(losses[0].is_some() && losses[1].is_some() && losses[3].is_some());
        assert!(losses[2].is_none());
        assert_eq!(
            clients[2].params(),
            before,
            "inactive client must not train"
        );
    }
}
