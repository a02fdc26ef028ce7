//! Differential property suite for the incremental GP fast path.
//!
//! Three contracts, each pinned over randomized problem shapes:
//!
//! 1. **Factor extension** — building a Cholesky factor one border column
//!    at a time with [`Matrix::extend_cholesky`] lands within 1e-9 of the
//!    full factorization of the final matrix (and in fact bitwise: both
//!    paths share the same unrolled dot kernel and recurrence order).
//! 2. **Batched posterior** — [`GaussianProcess::posterior_batch`]'s
//!    candidate-lane tiles are bitwise identical to scoring each candidate
//!    through [`GaussianProcess::posterior`] one at a time, over the
//!    shapes BayesOpt runs: up to 8 dimensions, up to 130 observations
//!    (including n < 4 and n not a multiple of 4, which exercise `dot`'s
//!    remainder path) and candidate counts that leave a partial tile.
//! 3. **Oracle equivalence** — a GP fitted through the full-refit oracle
//!    (`with_incremental(false)`) produces posteriors within 1e-9 of the
//!    incremental path on arbitrary add-sequences — after *every* add, not
//!    just the last.
//!
//! The suite is part of the CI `tuners` leg.

use nostop_baselines::gp::{GaussianProcess, Kernel};
use nostop_baselines::linalg::Matrix;
use nostop_simcore::SimRng;
use proptest::prelude::*;

/// A random symmetric positive-definite matrix: `A Aᵀ + n·I` over entries
/// in `[-1, 1]`.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = SimRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Matrix::from_fn(n, |i, j| {
        let mut s = 0.0;
        for k in 0..n {
            s += a[i * n + k] * a[j * n + k];
        }
        s + if i == j { n as f64 } else { 0.0 }
    })
}

/// `count` random points in the scaled configuration cube `[1, 20]^dim`,
/// packed row-major.
fn random_points(count: usize, dim: usize, rng: &mut SimRng) -> Vec<f64> {
    (0..count * dim).map(|_| rng.uniform(1.0, 20.0)).collect()
}

proptest! {
    #[test]
    fn incremental_factor_matches_full_factorization(
        n in 1usize..28,
        seed in 0u64..1_000_000,
    ) {
        let m = random_spd(n, seed);
        let full = m.cholesky().expect("SPD by construction");

        // Grow a factor from empty, one border column at a time.
        let mut grown = Matrix::zeros(0);
        for k in 0..n {
            let col: Vec<f64> = (0..k).map(|j| m.get(k, j)).collect();
            prop_assert!(
                grown.extend_cholesky(&col, m.get(k, k)),
                "border {k} rejected on an SPD matrix"
            );
        }

        prop_assert_eq!(grown.n, full.n);
        for i in 0..n {
            for j in 0..=i {
                let (a, b) = (grown.get(i, j), full.get(i, j));
                prop_assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "L[{i}][{j}]: incremental {a} vs full {b}"
                );
            }
        }
    }

    #[test]
    fn posterior_batch_matches_per_point_bitwise(
        dim in 1usize..=8,
        n_obs in 1usize..=130,
        n_cand in 0usize..=300,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xBA7C4);
        let mut gp = GaussianProcess::new(Kernel::default());
        for (i, x) in random_points(n_obs, dim, &mut rng).chunks_exact(dim).enumerate() {
            let y = rng.uniform(-5.0, 5.0) + i as f64 * 0.1;
            gp.add(x, y);
        }
        let candidates = random_points(n_cand, dim, &mut rng);
        let batch = gp.posterior_batch(&candidates, dim);
        prop_assert_eq!(batch.len(), n_cand);
        for (cand, (bm, bv)) in candidates.chunks_exact(dim).zip(&batch) {
            let (m, v) = gp.posterior(cand);
            prop_assert_eq!(m.to_bits(), bm.to_bits(), "mean diverged");
            prop_assert_eq!(v.to_bits(), bv.to_bits(), "variance diverged");
        }
    }

    #[test]
    fn probe_refit_tracks_incremental_on_random_add_sequences(
        dim in 1usize..6,
        n_adds in 1usize..32,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9B0BE);
        let mut fast = GaussianProcess::new(Kernel::default()).with_incremental(true);
        let mut probe = GaussianProcess::new(Kernel::default()).with_incremental(false);
        let probes = random_points(4, dim, &mut rng);
        for x in random_points(n_adds, dim, &mut rng).chunks_exact(dim) {
            let y = rng.uniform(-10.0, 10.0);
            fast.add(x, y);
            probe.add(x, y);
            for p in probes.chunks_exact(dim) {
                let (fm, fv) = fast.posterior(p);
                let (pm, pv) = probe.posterior(p);
                prop_assert!(
                    (fm - pm).abs() <= 1e-9 * pm.abs().max(1.0),
                    "mean: incremental {fm} vs refit {pm} at n={}",
                    fast.len()
                );
                prop_assert!(
                    (fv - pv).abs() <= 1e-9 * pv.abs().max(1.0),
                    "variance: incremental {fv} vs refit {pv} at n={}",
                    fast.len()
                );
            }
        }
    }
}
