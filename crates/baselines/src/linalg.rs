//! Minimal dense linear algebra for the Gaussian process.
//!
//! Only what GP regression needs: symmetric positive-definite matrices,
//! Cholesky factorization, and triangular solves. Matrices are row-major
//! `Vec<f64>` with explicit dimension.
//!
//! Every inner product in this module — the Cholesky inner loops, the
//! forward solve, and the rank-1 factor extension — goes through the one
//! unrolled [`dot`] kernel. That is a correctness property, not just a
//! speed one: incremental factor extension ([`Matrix::extend_cholesky`]) is
//! *bitwise* identical to refactoring the grown Gram matrix from scratch
//! ([`Matrix::cholesky_into`]) because the new-row recurrence and the full
//! factorization execute the same additions in the same order. The GP's
//! full-refit test oracle leans on this, and its candidate-lane scorer
//! (`gp::posterior_batch`) repeats `dot`'s order in every lane so that
//! batched posteriors match [`solve_lower_in_place`] to the bit.

/// A square matrix in row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Dimension (rows = cols = n).
    pub n: usize,
    /// Row-major entries, length `n * n`.
    pub data: Vec<f64>,
}

/// Unrolled dot product — the single inner-product kernel shared by every
/// factorization and solve in this module (see module docs for why the
/// summation order must be canonical).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.data[i * n + j] = f(i, j);
            }
        }
        m
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Ensure backing storage for a `dim × dim` matrix without touching the
    /// current contents — lets callers pre-size factors so in-place growth
    /// ([`Matrix::extend_cholesky`]) stays allocation-free at steady state.
    pub fn reserve(&mut self, dim: usize) {
        let need = dim * dim;
        if need > self.data.len() {
            self.data.reserve(need - self.data.len());
        }
    }

    /// Cholesky factorization `A = L Lᵀ` for symmetric positive-definite
    /// `A`. Returns the lower-triangular factor, or `None` if the matrix
    /// is not (numerically) positive definite.
    pub fn cholesky(&self) -> Option<Matrix> {
        let mut l = Matrix::zeros(0);
        if self.cholesky_into(&mut l) {
            Some(l)
        } else {
            None
        }
    }

    /// Cholesky factorization into a caller-owned factor, reusing its
    /// storage (allocation-free once `l` has capacity). Returns `false` —
    /// leaving `l` in an unspecified state — if `self` is not numerically
    /// positive definite.
    pub fn cholesky_into(&self, l: &mut Matrix) -> bool {
        let n = self.n;
        l.n = n;
        l.data.clear();
        l.data.resize(n * n, 0.0);
        for i in 0..n {
            // Rows `0..i` are finished and read-only; row `i` is written
            // left to right, so the in-row prefix is valid for the dots.
            let (done, rest) = l.data.split_at_mut(i * n);
            let row_i = &mut rest[..n];
            for j in 0..i {
                let row_j = &done[j * n..j * n + j];
                let s = self.data[i * n + j] - dot(&row_i[..j], row_j);
                row_i[j] = s / done[j * n + j];
            }
            let s = self.data[i * n + i] - dot(&row_i[..i], &row_i[..i]);
            if s <= 0.0 {
                return false;
            }
            row_i[i] = s.sqrt();
        }
        true
    }

    /// Extend a Cholesky factor of an `n × n` matrix to the factor of the
    /// `(n+1) × (n+1)` matrix bordered by column `col` and diagonal `diag`
    /// — one forward solve plus a diagonal update, O(n²) instead of an
    /// O(n³) refactorization. The growth is in place (backwards row
    /// re-stride over the existing buffer).
    ///
    /// Returns `false` and leaves the factor unchanged if the bordered
    /// matrix is not numerically positive definite. The computed row is
    /// bitwise identical to what a full [`Matrix::cholesky_into`] of the
    /// bordered matrix would produce.
    pub fn extend_cholesky(&mut self, col: &[f64], diag: f64) -> bool {
        let n = self.n;
        assert_eq!(col.len(), n, "border column must match factor dimension");
        self.grow();
        let m = self.n;
        let (done, last) = self.data.split_at_mut(n * m);
        let row = &mut last[..m];
        for (j, &c) in col.iter().enumerate() {
            let row_j = &done[j * m..j * m + j];
            let s = c - dot(&row[..j], row_j);
            row[j] = s / done[j * m + j];
        }
        let s = diag - dot(&row[..n], &row[..n]);
        if s <= 0.0 {
            self.shrink();
            return false;
        }
        row[n] = s.sqrt();
        true
    }

    /// Re-stride `n × n` → `(n+1) × (n+1)` in place, zero-filling the new
    /// row and column. Rows move to strictly higher offsets, so walking
    /// them back to front never clobbers an unmoved row.
    fn grow(&mut self) {
        let n = self.n;
        let m = n + 1;
        self.data.resize(m * m, 0.0);
        for i in (1..n).rev() {
            self.data.copy_within(i * n..i * n + n, i * m);
            self.data[i * m + n] = 0.0;
        }
        if n > 0 {
            self.data[n] = 0.0;
        }
        self.n = m;
    }

    /// Inverse of [`Matrix::grow`]: drop the last row and column in place.
    fn shrink(&mut self) {
        let m = self.n;
        debug_assert!(m > 0);
        let n = m - 1;
        for i in 1..n {
            self.data.copy_within(i * m..i * m + n, i * n);
        }
        self.data.truncate(n * n);
        self.n = n;
    }
}

/// Solve `L x = b` in place (forward substitution): on entry `x` holds `b`,
/// on exit the solution.
pub fn solve_lower_in_place(l: &Matrix, x: &mut [f64]) {
    let n = l.n;
    assert_eq!(x.len(), n, "dimension mismatch");
    for i in 0..n {
        let row = &l.data[i * n..i * n + i];
        let (head, tail) = x.split_at_mut(i);
        let s = tail[0] - dot(row, head);
        tail[0] = s / l.data[i * n + i];
    }
}

/// Solve `L x = b` for lower-triangular `L` (forward substitution).
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    solve_lower_in_place(l, &mut x);
    x
}

/// Solve `Lᵀ x = b` in place (backward substitution): on entry `x` holds
/// `b`, on exit the solution.
pub fn solve_upper_transposed_in_place(l: &Matrix, x: &mut [f64]) {
    let n = l.n;
    assert_eq!(x.len(), n, "dimension mismatch");
    for i in (0..n).rev() {
        let mut s = x[i];
        // Column `i` of L below the diagonal (stride-n walk).
        for (j, xj) in x.iter().enumerate().skip(i + 1) {
            s -= l.data[j * n + i] * xj;
        }
        x[i] = s / l.data[i * n + i];
    }
}

/// Solve `Lᵀ x = b` for lower-triangular `L` (backward substitution).
pub fn solve_upper_transposed(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    solve_upper_transposed_in_place(l, &mut x);
    x
}

/// Solve `A x = b` given the Cholesky factor `L` of `A`, writing into a
/// caller-owned buffer (allocation-free once `out` has capacity).
pub fn cholesky_solve_into(l: &Matrix, b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(b);
    solve_lower_in_place(l, out);
    solve_upper_transposed_in_place(l, out);
}

/// Solve `A x = b` given the Cholesky factor `L` of `A`.
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    cholesky_solve_into(l, b, &mut out);
    out
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index style mirrors the matrix algebra being verified
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A known SPD matrix.
        Matrix {
            n: 3,
            data: vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0],
        }
    }

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let raw = Matrix::from_fn(n, |_, _| rand01() - 0.5);
        Matrix::from_fn(n, |i, j| {
            let mut s = 0.0;
            for k in 0..n {
                s += raw.get(k, i) * raw.get(k, j);
            }
            s + if i == j { n as f64 } else { 0.0 }
        })
    }

    #[test]
    fn cholesky_reconstructs_original() {
        let a = spd3();
        let l = a.cholesky().expect("SPD");
        // L is lower triangular.
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(1, 2), 0.0);
        // L Lᵀ = A.
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l.get(i, k) * l.get(j, k);
                }
                assert!((s - a.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let m = Matrix {
            n: 2,
            data: vec![1.0, 2.0, 2.0, 1.0], // eigenvalues 3, -1
        };
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn cholesky_into_reuses_storage_and_matches() {
        let a = random_spd(17, 5);
        let fresh = a.cholesky().expect("SPD");
        let mut scratch = Matrix::zeros(0);
        scratch.reserve(17);
        let cap = scratch.data.capacity();
        assert!(a.cholesky_into(&mut scratch));
        assert_eq!(scratch, fresh);
        assert_eq!(scratch.data.capacity(), cap, "no reallocation");
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let x_true = [1.0, -2.0, 0.5];
        // b = A x.
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let x = cholesky_solve(&l, &b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn triangular_solves_are_inverses() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let b = [3.0, 1.0, -2.0];
        let y = solve_lower(&l, &b);
        // L y = b.
        for i in 0..3 {
            let mut s = 0.0;
            for j in 0..=i {
                s += l.get(i, j) * y[j];
            }
            assert!((s - b[i]).abs() < 1e-12);
        }
        let x = solve_upper_transposed(&l, &y);
        // Lᵀ x = y.
        for i in 0..3 {
            let mut s = 0.0;
            for j in i..3 {
                s += l.get(j, i) * x[j];
            }
            assert!((s - y[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn extend_matches_full_factorization_bitwise() {
        // Factor the leading (n-1)-minor, extend by the last column, and
        // compare against factoring the full matrix — bitwise.
        for n in [2usize, 3, 7, 24, 41] {
            let a = random_spd(n, n as u64);
            let minor = Matrix::from_fn(n - 1, |i, j| a.get(i, j));
            let mut l = minor.cholesky().expect("SPD minor");
            let col: Vec<f64> = (0..n - 1).map(|j| a.get(n - 1, j)).collect();
            assert!(l.extend_cholesky(&col, a.get(n - 1, n - 1)));
            let full = a.cholesky().expect("SPD");
            assert_eq!(l, full, "n = {n}");
        }
    }

    #[test]
    fn extend_rejects_indefinite_border_and_restores_factor() {
        let a = spd3();
        let mut l = a.cholesky().unwrap();
        let before = l.clone();
        // A border that makes the matrix indefinite: huge column, tiny diag.
        assert!(!l.extend_cholesky(&[100.0, 100.0, 100.0], 1.0));
        assert_eq!(l, before, "failed extension must leave the factor intact");
    }

    #[test]
    fn extend_from_empty_factor() {
        let mut l = Matrix::zeros(0);
        assert!(l.extend_cholesky(&[], 4.0));
        assert_eq!(l.n, 1);
        assert_eq!(l.get(0, 0), 2.0);
    }

    #[test]
    fn identity_round_trip_large() {
        let a = random_spd(40, 1);
        let l = a.cholesky().expect("SPD by construction");
        let b: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let x = cholesky_solve(&l, &b);
        // Residual ‖A x − b‖∞ small.
        for i in 0..40 {
            let mut s = 0.0;
            for j in 0..40 {
                s += a.get(i, j) * x[j];
            }
            assert!((s - b[i]).abs() < 1e-8);
        }
    }
}
