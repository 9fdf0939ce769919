//! Ablation — share-construction schemes: the paper's Alg. 1 (random
//! convex scaling), standard additive masking, and the exact fixed-point
//! ring extension. Compares reconstruction error at Fig. 5 scale, wire
//! size, and what a single share leaks.
//!
//! Run: `cargo run -rp p2pfl-bench --bin abl_share_schemes`.

use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_secagg::{
    divide_masked, divide_scaled, fault_tolerant_secure_average, fixed, ShareScheme, WeightVector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let dim = args.get_usize("dim", 1_248_394); // the Fig. 5 CNN
    let n = args.get_usize("n", 5);
    let mut rng = StdRng::seed_from_u64(args.get_u64("seed", 1));
    args.finish();

    banner(
        "Ablation: share-construction schemes at Fig. 5 model scale",
        "Alg. 1 scaled shares leak direction; masked/ring shares do not",
    );
    let w = WeightVector::random(dim, 0.5, &mut rng);

    let mut rows = Vec::new();

    // Paper Alg. 1: scaled shares.
    let t = Instant::now();
    let shares = divide_scaled(&w, n, &mut rng);
    let dt = t.elapsed().as_secs_f64() * 1e3;
    let err = WeightVector::sum(shares.iter()).linf_distance(&w);
    rows.push(format!(
        "scaled(Alg.1),{dim},{n},{err:.3e},{},{dt:.1},direction",
        4 * dim
    ));

    // Masked additive shares.
    let t = Instant::now();
    let shares = divide_masked(&w, n, &mut rng);
    let dt = t.elapsed().as_secs_f64() * 1e3;
    let err = WeightVector::sum(shares.iter()).linf_distance(&w);
    rows.push(format!(
        "masked,{dim},{n},{err:.3e},{},{dt:.1},none(bounded)",
        4 * dim
    ));

    // Fixed-point ring shares.
    let t = Instant::now();
    let shares = fixed::divide_ring(&w, n, &mut rng);
    let dt = t.elapsed().as_secs_f64() * 1e3;
    let err = fixed::reconstruct_sum(&[shares]).linf_distance(&w);
    rows.push(format!(
        "ring(Q32.24),{dim},{n},{err:.3e},{},{dt:.1},none(exact)",
        8 * dim
    ));

    print_csv(
        "scheme,dim,shares,reconstruction_linf_error,bytes_per_share,split_ms,leak",
        rows,
    );

    // End-to-end SAC error accumulation over many peers.
    println!("\n# end-to-end SAC average error vs plain mean (dim 10k):");
    let models: Vec<WeightVector> = (0..30)
        .map(|_| WeightVector::random(10_000, 0.5, &mut rng))
        .collect();
    let plain = WeightVector::mean(models.iter());
    for (label, scheme) in [
        ("scaled", ShareScheme::Scaled),
        ("masked", ShareScheme::Masked),
    ] {
        let out =
            fault_tolerant_secure_average(&models, models.len(), 0, &[], scheme, &mut rng).unwrap();
        println!(
            "#   {label:<8} N=30: {:.3e}",
            out.average.linf_distance(&plain)
        );
    }
    let exact = fixed::secure_average_exact(&models, &mut rng);
    println!(
        "#   {:<8} N=30: {:.3e}",
        "ring",
        exact.linf_distance(&plain)
    );
    println!("# masked shares pay ~1e-10 float error for real secrecy; the ring");
    println!("# scheme is exact and information-theoretically hiding at 2x wire size.");
}
