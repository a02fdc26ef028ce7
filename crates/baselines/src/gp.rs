//! Gaussian-process regression with an RBF kernel.
//!
//! The surrogate model behind the Bayesian-optimization comparator.
//! Observations live in the *scaled* configuration space (every dimension
//! in the same `[1, 20]` range — the same normalization NoStop uses), so a
//! single isotropic length scale is appropriate. Targets are centered; the
//! posterior reverts to the prior mean away from data. Training inputs are
//! one flat row-major `len × dim` buffer.
//!
//! # Fast path
//!
//! Because the Gram matrix depends only on the inputs, adding an
//! observation only *borders* `K + σ_n² I` with one new column — so
//! [`GaussianProcess::add`] extends the existing Cholesky factor with a
//! single forward solve plus diagonal update
//! ([`Matrix::extend_cholesky`], O(n²)) instead of refactoring from
//! scratch (O(n³)). The new point's kernel column is computed once and
//! reused for both the factor extension and the Gram border (kernel-row
//! cache). `alpha` *is* re-solved every add — recentering the targets
//! shifts every entry of `y − ȳ` — but that is two triangular solves,
//! still O(n²).
//!
//! [`GaussianProcess::with_incremental`]`(false)` routes every add through
//! a full refit instead. It is a test oracle chosen in code, not a runtime
//! mode (no environment variable selects it): the two paths share
//! `linalg`'s single dot kernel, making their factors — and therefore
//! posteriors — bitwise identical, and the differential suite in
//! `crates/baselines/tests/gp_differential.rs` pins this.
//!
//! # Candidate-lane scoring
//!
//! [`GaussianProcess::posterior_batch`] scores candidates in tiles of 8,
//! each candidate one lane of an `[f64; 8]`. Per tile it transposes the
//! candidates' coordinates to one lane row per dimension, builds the
//! `n × 8` panel of kernel columns, takes the means against `alpha`,
//! forward-substitutes the panel through the factor in place and sums
//! `v·v`. Every row of the factor, `alpha` and each training point is read
//! once per tile rather than once per candidate, and the lane loops
//! vectorize.
//!
//! The lanes keep the bits because each lane performs exactly the
//! operations [`GaussianProcess::posterior`] performs for its candidate,
//! in the same order: [`Kernel::eval`]'s sequential distance sum and
//! scalar `exp`, and every inner product with [`dot`]'s four strided
//! accumulators over chunks of four, `(s0+s1)+(s2+s3)` combine and
//! sequential remainder. Rust never contracts a multiply and an add into
//! an FMA, so lane arithmetic is scalar arithmetic and the batch returns
//! the one-point posterior to the bit.

use crate::linalg::{cholesky_solve_into, dot, solve_lower_in_place, Matrix};

/// RBF (squared-exponential) kernel hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Length scale ℓ (isotropic, scaled space).
    pub length_scale: f64,
    /// Observation noise variance σ_n².
    pub noise_variance: f64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            signal_variance: 25.0,
            length_scale: 4.0,
            noise_variance: 1.0,
        }
    }
}

impl Kernel {
    /// Kernel value `k(a, b)`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
        self.of_sq_dist(d2)
    }

    /// Kernel value at squared distance `d2`: the rest of
    /// [`Kernel::eval`] once the distance is summed.
    #[inline]
    fn of_sq_dist(&self, d2: f64) -> f64 {
        self.signal_variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

/// Candidates per tile in [`GaussianProcess::posterior_batch`].
const TILE: usize = 8;

/// One panel row: a value per candidate lane of a tile.
type Lanes = [f64; TILE];

/// Per-lane [`dot`]: lane `l` of the result is `dot` of lane `l` of `a`
/// with lane `l` of `b` (each `b` row widened by `lanes`), in `dot`'s
/// summation order exactly.
#[inline(always)]
fn lane_dot<T: Copy>(a: &[Lanes], b: &[T], lanes: impl Fn(T) -> Lanes) -> Lanes {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut acc = [[0.0; TILE]; 4];
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for ((s, x), &y) in acc.iter_mut().zip(xs).zip(ys) {
            for ((s, x), y) in s.iter_mut().zip(x).zip(lanes(y)) {
                *s += x * y;
            }
        }
    }
    let [s0, s1, s2, s3] = acc;
    let mut s: Lanes = std::array::from_fn(|l| (s0[l] + s1[l]) + (s2[l] + s3[l]));
    for (x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        for ((s, x), y) in s.iter_mut().zip(x).zip(lanes(y)) {
            *s += x * y;
        }
    }
    s
}

/// A Gaussian-process regressor.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    /// Input dimension; 0 until the first observation fixes it.
    dim: usize,
    /// Training inputs, row-major `len × dim`.
    x: Vec<f64>,
    y: Vec<f64>,
    y_mean: f64,
    /// Cholesky factor of `K + (σ_n² + jitter) I`; dimension `len`.
    chol: Matrix,
    /// `(K + σ_n² I)⁻¹ (y − ȳ)`.
    alpha: Vec<f64>,
    /// Incremental rank-1 factor updates (default) vs full refit (oracle).
    incremental: bool,
    /// Kernel-row cache: the newest point's kernel column, computed once
    /// per add and fed straight into the factor extension.
    kcol: Vec<f64>,
    /// Scratch: centered targets, reused across fits.
    centered: Vec<f64>,
    /// Scratch: Gram matrix for the full-refit oracle path.
    gram: Matrix,
}

impl GaussianProcess {
    /// An empty GP with the given kernel.
    pub fn new(kernel: Kernel) -> Self {
        GaussianProcess {
            kernel,
            dim: 0,
            x: Vec::new(),
            y: Vec::new(),
            y_mean: 0.0,
            chol: Matrix::zeros(0),
            alpha: Vec::new(),
            incremental: true,
            kcol: Vec::new(),
            centered: Vec::new(),
            gram: Matrix::zeros(0),
        }
    }

    /// Select the fitting path explicitly (tests, benches). The fitted
    /// model is bitwise identical either way; only the cost differs.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Whether adds go through the incremental fast path.
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// The smallest observed target, if any.
    pub fn best_y(&self) -> Option<f64> {
        self.y.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.min(v),
            })
        })
    }

    fn jitter(&self) -> f64 {
        1e-8 * self.kernel.signal_variance.max(1.0)
    }

    /// Training input `i`.
    fn input(&self, i: usize) -> &[f64] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Add an observation and refit.
    pub fn add(&mut self, x: &[f64], y: f64) {
        assert!(y.is_finite(), "target must be finite");
        if self.is_empty() {
            self.dim = x.len();
        } else {
            assert_eq!(self.dim, x.len(), "dimension mismatch");
        }
        if self.incremental {
            // Kernel-row cache: the new point's column, computed once.
            self.kcol.clear();
            for xi in self.x.chunks_exact(self.dim) {
                self.kcol.push(self.kernel.eval(xi, x));
            }
            let diag = self.kernel.eval(x, x) + self.kernel.noise_variance + self.jitter();
            self.chol.reserve(self.len() + 1);
            if !self.chol.extend_cholesky(&self.kcol, diag) {
                panic!("kernel matrix with noise must be positive definite");
            }
            self.x.extend_from_slice(x);
            self.y.push(y);
            self.resolve_alpha();
        } else {
            self.x.extend_from_slice(x);
            self.y.push(y);
            self.refit();
        }
    }

    /// Recenter the targets and re-solve `alpha` from the current factor.
    fn resolve_alpha(&mut self) {
        let n = self.len();
        self.y_mean = self.y.iter().sum::<f64>() / n as f64;
        let y_mean = self.y_mean;
        self.centered.clear();
        self.centered.extend(self.y.iter().map(|v| v - y_mean));
        cholesky_solve_into(&self.chol, &self.centered, &mut self.alpha);
    }

    /// Oracle path: rebuild the full Gram matrix and refactor from scratch
    /// into reused scratch storage.
    fn refit(&mut self) {
        let n = self.len();
        let jitter = self.jitter();
        self.gram.n = n;
        self.gram.data.clear();
        self.gram.data.resize(n * n, 0.0);
        for i in 0..n {
            for j in 0..n {
                self.gram.data[i * n + j] = self.kernel.eval(self.input(i), self.input(j))
                    + if i == j {
                        self.kernel.noise_variance + jitter
                    } else {
                        0.0
                    };
            }
        }
        if !self.gram.cholesky_into(&mut self.chol) {
            panic!("kernel matrix with noise must be positive definite");
        }
        self.resolve_alpha();
    }

    /// Posterior mean and variance at `x` — the one-point reference that
    /// [`GaussianProcess::posterior_batch`] reproduces bit for bit.
    ///
    /// With no observations this is the prior: `(0-centered mean, σ_f²)`.
    pub fn posterior(&self, x: &[f64]) -> (f64, f64) {
        if self.is_empty() {
            return (self.y_mean, self.kernel.signal_variance);
        }
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        assert!(x.iter().all(|v| v.is_finite()), "candidate must be finite");
        let k_star: Vec<f64> = self
            .x
            .chunks_exact(self.dim)
            .map(|xi| self.kernel.eval(xi, x))
            .collect();
        let mean = self.y_mean + dot(&k_star, &self.alpha);
        let mut v = k_star;
        solve_lower_in_place(&self.chol, &mut v);
        // The prior variance `k(x, x) = σ_f² · exp(-0.0)` is exactly σ_f²
        // for a finite `x`.
        let var = (self.kernel.signal_variance - dot(&v, &v)).max(1e-12);
        (mean, var)
    }

    /// Posterior mean and variance at each of the `xs.len() / dim`
    /// candidates packed row-major in `xs`, scored eight at a time on
    /// candidate lanes (see the module docs). Bitwise identical to
    /// calling [`GaussianProcess::posterior`] per candidate.
    pub fn posterior_batch(&self, xs: &[f64], dim: usize) -> Vec<(f64, f64)> {
        assert!(dim > 0, "candidates need at least one dimension");
        assert_eq!(
            xs.len() % dim,
            0,
            "candidate buffer is not a whole number of points"
        );
        let count = xs.len() / dim;
        if self.is_empty() {
            return vec![(self.y_mean, self.kernel.signal_variance); count];
        }
        assert_eq!(dim, self.dim, "dimension mismatch");
        assert!(
            xs.iter().all(|v| v.is_finite()),
            "candidates must be finite"
        );
        let n = self.len();
        let mut out = Vec::with_capacity(count);
        // The tile's coordinates transposed to one lane row per dimension,
        // then the `n`-row panel.
        let mut scratch: Vec<Lanes> = vec![[0.0; TILE]; dim + n];
        let (coords, panel) = scratch.split_at_mut(dim);
        for tile in xs.chunks(TILE * dim) {
            let lanes = tile.len() / dim;
            for (l, c) in tile.chunks_exact(dim).enumerate() {
                for (row, &v) in coords.iter_mut().zip(c) {
                    row[l] = v;
                }
            }
            // Kernel columns: `Kernel::eval`'s sequential distance sum in
            // every lane; lanes past the last candidate stay zero. (Starting
            // at +0.0 where `sum` may start at −0.0 changes no bit: every
            // term is a square, so ≥ +0.0.)
            for (row, xi) in panel.iter_mut().zip(self.x.chunks_exact(dim)) {
                let mut d2 = [0.0; TILE];
                for (c, &x) in coords.iter().zip(xi) {
                    for (d2, c) in d2.iter_mut().zip(c) {
                        *d2 += (x - c).powi(2);
                    }
                }
                *row = [0.0; TILE];
                for (slot, &d2) in row[..lanes].iter_mut().zip(&d2) {
                    *slot = self.kernel.of_sq_dist(d2);
                }
            }
            let means = lane_dot(panel, &self.alpha, |a| [a; TILE]);
            // Forward substitution `L v = k*`, in place, every lane at once.
            for i in 0..n {
                let row = self.chol.row(i);
                let (head, tail) = panel.split_at_mut(i);
                let s = lane_dot(head, &row[..i], |l| [l; TILE]);
                let d = row[i];
                for (v, s) in tail[0].iter_mut().zip(s) {
                    *v = (*v - s) / d;
                }
            }
            let vv = lane_dot(panel, panel, |v| v);
            for (mean, vv) in means.iter().zip(vv).take(lanes) {
                let var = (self.kernel.signal_variance - vv).max(1e-12);
                out.push((self.y_mean + mean, var));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp_with(points: &[(&[f64], f64)]) -> GaussianProcess {
        let mut gp = GaussianProcess::new(Kernel {
            signal_variance: 4.0,
            length_scale: 2.0,
            noise_variance: 1e-4,
        });
        for (x, y) in points {
            gp.add(x, *y);
        }
        gp
    }

    #[test]
    fn empty_gp_returns_prior() {
        let gp = GaussianProcess::new(Kernel::default());
        let (mean, var) = gp.posterior(&[10.0, 10.0]);
        assert_eq!(mean, 0.0);
        assert_eq!(var, Kernel::default().signal_variance);
        assert!(gp.is_empty());
        assert_eq!(gp.best_y(), None);
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let gp = gp_with(&[(&[1.0, 1.0], 3.0), (&[5.0, 5.0], 7.0), (&[9.0, 2.0], 1.0)]);
        for (x, y) in [(&[1.0, 1.0], 3.0), (&[5.0, 5.0], 7.0), (&[9.0, 2.0], 1.0)] {
            let (mean, var) = gp.posterior(x);
            assert!((mean - y).abs() < 0.05, "mean {mean} vs {y}");
            assert!(var < 0.05, "var {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let gp = gp_with(&[(&[5.0, 5.0], 2.0)]);
        let (_, var_near) = gp.posterior(&[5.5, 5.0]);
        let (_, var_far) = gp.posterior(&[19.0, 19.0]);
        assert!(var_far > var_near);
        // Far from data the posterior reverts to the (centered) prior mean.
        let (mean_far, _) = gp.posterior(&[19.0, 19.0]);
        assert!((mean_far - 2.0).abs() < 0.1, "reverts to mean: {mean_far}");
    }

    #[test]
    fn posterior_mean_smoothly_interpolates() {
        let gp = gp_with(&[(&[0.0], 0.0), (&[4.0], 4.0)]);
        let (mid, _) = gp.posterior(&[2.0]);
        assert!(mid > 0.5 && mid < 3.5, "between endpoints: {mid}");
    }

    #[test]
    fn best_y_tracks_minimum() {
        let gp = gp_with(&[(&[1.0], 5.0), (&[2.0], 3.0), (&[3.0], 9.0)]);
        assert_eq!(gp.best_y(), Some(3.0));
        assert_eq!(gp.len(), 3);
    }

    #[test]
    fn handles_many_points_without_numerical_collapse() {
        let mut gp = GaussianProcess::new(Kernel::default());
        for i in 0..120 {
            let x = (i % 20) as f64 + 1.0;
            let y = (x - 10.0).powi(2) / 5.0 + ((i * 7) % 3) as f64 * 0.1;
            gp.add(&[x, 10.0], y);
        }
        // Posterior at the optimum should be lower than at the edge.
        let (m_opt, _) = gp.posterior(&[10.0, 10.0]);
        let (m_edge, _) = gp.posterior(&[1.0, 10.0]);
        assert!(m_opt < m_edge);
    }

    #[test]
    fn incremental_and_refit_posteriors_are_bitwise_identical() {
        let mut fast = GaussianProcess::new(Kernel::default()).with_incremental(true);
        let mut probe = GaussianProcess::new(Kernel::default()).with_incremental(false);
        for i in 0..40 {
            let x = [(i % 13) as f64 + 1.0, (i % 7) as f64 * 2.0 + 1.0];
            let y = (x[0] - 6.0).powi(2) * 0.3 + x[1] * 0.1;
            fast.add(&x, y);
            probe.add(&x, y);
            let q = [i as f64 * 0.4 + 1.0, 10.0];
            let (mf, vf) = fast.posterior(&q);
            let (mp, vp) = probe.posterior(&q);
            assert_eq!(mf.to_bits(), mp.to_bits(), "mean at add {i}");
            assert_eq!(vf.to_bits(), vp.to_bits(), "variance at add {i}");
        }
    }

    #[test]
    fn posterior_batch_matches_per_point_bitwise() {
        let points: [(&[f64], f64); 6] = [
            (&[1.0, 2.0], 3.0),
            (&[5.0, 5.0], 7.0),
            (&[9.0, 2.0], 1.0),
            (&[3.0, 8.0], 4.0),
            (&[6.0, 1.0], 2.0),
            (&[2.0, 6.0], 5.0),
        ];
        // 37 candidates: four full tiles and a partial one.
        let cands: Vec<f64> = (0..37)
            .flat_map(|i| [1.0 + (i % 9) as f64, 1.0 + (i % 5) as f64 * 3.0])
            .collect();
        // Every n from 1 to 6 covers `dot`'s remainder-only, chunk-only and
        // mixed paths.
        for n in 1..=points.len() {
            let gp = gp_with(&points[..n]);
            let batch = gp.posterior_batch(&cands, 2);
            assert_eq!(batch.len(), 37);
            for (c, got) in cands.chunks_exact(2).zip(&batch) {
                let want = gp.posterior(c);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "mean at n = {n}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "variance at n = {n}");
            }
        }
    }

    #[test]
    fn posterior_batch_on_empty_gp_returns_prior() {
        let gp = GaussianProcess::new(Kernel::default());
        let batch = gp.posterior_batch(&[1.0, 2.0], 1);
        assert_eq!(batch, vec![(0.0, 25.0), (0.0, 25.0)]);
        assert!(gp.posterior_batch(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn posterior_rejects_wrong_dimension() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn posterior_batch_rejects_wrong_dimension() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior_batch(&[1.0, 2.0, 3.0], 3);
    }

    #[test]
    #[should_panic(expected = "candidate must be finite")]
    fn posterior_rejects_non_finite_candidate() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "candidates must be finite")]
    fn posterior_batch_rejects_non_finite_candidate() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior_batch(&[1.0, 2.0, f64::INFINITY, 0.0], 2);
    }

    #[test]
    #[should_panic(expected = "whole number of points")]
    fn posterior_batch_rejects_ragged_buffer() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior_batch(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_target_rejected() {
        let mut gp = GaussianProcess::new(Kernel::default());
        gp.add(&[1.0], f64::INFINITY);
    }
}
