//! Row-major `f32` matrix with the GEMM variants needed by backprop.
//!
//! The GEMM variants dispatch to the crate's register-blocked
//! micro-kernels and run on the [`lazydp_exec`] executor,
//! parallelized over *output rows*: every output element is accumulated
//! in the same fixed order regardless of tiling or how rows are chunked,
//! so results are bitwise identical for any tile size and thread count
//! (the determinism the equivalence tests rely on). Small products run
//! inline — the executor is only engaged once a chunk holds enough FLOPs
//! to pay for a worker. Every operation writes into a caller-owned
//! output (`_into`), reshaping it in place, so steady-state training
//! steps allocate nothing.

use crate::gemm;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Minimum multiply-add count per parallel chunk. The executor spawns
/// scoped workers per region (~tens of µs each), so a chunk must carry
/// well over that much arithmetic — at a few GFLOP/s, 2^19 multiply-adds
/// is a few hundred µs — or spawning costs more than it saves.
const MIN_CHUNK_FLOPS: usize = 1 << 19;

/// Rows per GEMM chunk so each chunk carries at least
/// [`MIN_CHUNK_FLOPS`] work (tiny products become a single chunk, which
/// `par_for` runs inline).
pub(crate) fn rows_per_chunk(total_rows: usize, flops_per_row: usize) -> usize {
    MIN_CHUNK_FLOPS
        .div_ceil(flops_per_row.max(1))
        .clamp(1, total_rows.max(1))
}

/// A dense row-major `f32` matrix.
///
/// This is deliberately a small, dependency-free implementation: the
/// reproduction's correctness claims (LazyDP ≡ DP-SGD) rely on bit-level
/// determinism, which an external BLAS would not guarantee across
/// machines. The GEMMs run on register-blocked micro-kernels whose
/// fixed per-element accumulation order keeps
/// results bitwise identical across tile sizes, thread counts, and the
/// naive reference kernels.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the natural starting state for
    /// scratch buffers that are reshaped in place on first use.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the matrix to `rows × cols` with every element zero,
    /// reusing the existing allocation (no heap traffic once the
    /// capacity has grown to fit — the scratch-buffer contract).
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `other` (shape and contents), reusing the
    /// existing allocation.
    pub fn copy_from(&mut self, other: &Self) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Makes `self` a `rows × cols` matrix holding a copy of the
    /// row-major `data` slice, reusing the existing allocation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn assign_from_slice(&mut self, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        let c = self.cols;
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Iterator over row slices (`rows` of them, empty when `cols` is 0).
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Matrix product `self · other` into a caller-owned output matrix
    /// (reshaped and overwritten; no allocation once `out`'s capacity
    /// has grown to fit).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_zeroed(self.rows, other.cols);
        if out.is_empty() || self.cols == 0 {
            return;
        }
        let chunk_rows = rows_per_chunk(self.rows, self.cols * other.cols);
        let chunk_rows = gemm::blocked_chunk_rows(chunk_rows, self.rows, gemm::MR);
        gemm::matmul_blocked(self, other, out, gemm::DEFAULT_KC, chunk_rows);
    }

    /// `selfᵀ · other` into a caller-owned output matrix, without
    /// materializing the transpose. This is the weight-gradient GEMM of
    /// backprop (`∂L/∂W = aᵀ · δ`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.rows != other.rows`).
    pub fn t_matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul {}x{} ᵀ· {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_zeroed(self.cols, other.cols);
        if out.is_empty() || self.rows == 0 {
            return;
        }
        let chunk_rows = rows_per_chunk(self.cols, self.rows * other.cols);
        let chunk_rows = gemm::blocked_chunk_rows(chunk_rows, self.cols, gemm::MR);
        gemm::t_matmul_blocked(self, other, out, gemm::DEFAULT_KC, chunk_rows);
    }

    /// `selfᵀ · diag(w) · other` without materializing either the
    /// transpose or the row-scaled copy of `other`.
    ///
    /// This is the *clipped* weight-gradient GEMM of DP backprop
    /// (`∂L/∂W = aᵀ · diag(w) · δ` with one clip factor per example):
    /// the factor indexes the contraction dimension, so the blocked
    /// kernel folds it into the packed-B panel (one multiply per packed
    /// element) and the reference kernel multiplies it into each
    /// `mul_add` operand — identical operation sequences, hence
    /// bitwise-identical to each other and to scaling `other`'s rows
    /// up front in exact arithmetic (not bitwise vs. pre-scaling,
    /// which rounds at a different point). Writes into a caller-owned
    /// output matrix.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.rows != other.rows`) or if
    /// `w.len() != self.rows`.
    pub fn t_matmul_scaled_into(&self, other: &Self, w: &[f32], out: &mut Self) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul_scaled {}x{} ᵀ· {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(w.len(), self.rows, "one scale factor per example row");
        out.reset_zeroed(self.cols, other.cols);
        if out.is_empty() || self.rows == 0 {
            return;
        }
        let chunk_rows = rows_per_chunk(self.cols, self.rows * other.cols);
        let chunk_rows = gemm::blocked_chunk_rows(chunk_rows, self.cols, gemm::MR);
        gemm::t_matmul_scaled_blocked(self, other, w, out, gemm::DEFAULT_KC, chunk_rows);
    }

    /// `self · otherᵀ` into a caller-owned output matrix, without
    /// materializing the transpose. This is the input-gradient GEMM of
    /// backprop (`∂L/∂a = δ · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.cols != other.cols`).
    pub fn matmul_t_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t {}x{} · {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_zeroed(self.rows, other.rows);
        if out.is_empty() || self.cols == 0 {
            return;
        }
        let chunk_rows = rows_per_chunk(self.rows, self.cols * other.rows);
        let chunk_rows = gemm::blocked_chunk_rows(chunk_rows, self.rows, gemm::MT_R);
        let b_block_rows = gemm::mt_b_block_rows(self.cols);
        gemm::matmul_t_blocked(self, other, out, chunk_rows, b_block_rows);
    }

    /// In-place `self += alpha * other` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Squared Frobenius norm in `f64`.
    #[must_use]
    pub fn frob_norm_sq(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
    }

    /// Per-row squared L2 norms (`f64` accumulation, one per row) into a
    /// caller-owned vector (cleared and refilled; no allocation at
    /// steady state).
    pub fn row_norms_sq_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.rows_iter()
                .map(|r| r.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>()),
        );
    }

    /// Column-wise sum (the bias gradient of a linear layer) into a
    /// caller-owned vector of length `cols` (cleared and refilled; no
    /// allocation at steady state).
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in self.rows_iter() {
            for (o, &x) in out.iter_mut().zip(r.iter()) {
                *o += x;
            }
        }
    }

    /// Weighted column-wise sum `Σᵢ w[i] · row(i)` into a caller-owned
    /// vector (cleared and refilled; no allocation at steady state) —
    /// the clipped bias gradient of a linear layer. Rows accumulate
    /// ascending through one `mul_add` per element, so the result is
    /// deterministic and matches scaling each row first in exact
    /// arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.rows`.
    pub fn weighted_col_sums_into(&self, w: &[f32], out: &mut Vec<f32>) {
        assert_eq!(w.len(), self.rows, "one weight per row");
        out.clear();
        out.resize(self.cols, 0.0);
        for (r, &wi) in self.rows_iter().zip(w.iter()) {
            for (o, &x) in out.iter_mut().zip(r.iter()) {
                *o = wi.mul_add(x, *o);
            }
        }
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {:?}",
            self.shape()
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {:?}",
            self.shape()
        );
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((j as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            ((x % 1000) as f32 - 500.0) / 250.0
        })
    }

    fn transposed(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols(), m.rows(), |i, j| m[(j, i)])
    }

    #[test]
    fn matmul_matches_naive() {
        let a = pseudo_random(7, 5, 1);
        let b = pseudo_random(5, 9, 2);
        let mut fast = Matrix::default();
        a.matmul_into(&b, &mut fast);
        assert!(fast.max_abs_diff(&naive_matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = pseudo_random(4, 4, 3);
        let id = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut out = Matrix::default();
        a.matmul_into(&id, &mut out);
        assert_eq!(out, a);
        id.matmul_into(&a, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = pseudo_random(6, 4, 4);
        let b = pseudo_random(6, 3, 5);
        let mut fused = Matrix::default();
        a.t_matmul_into(&b, &mut fused);
        assert!(fused.max_abs_diff(&naive_matmul(&transposed(&a), &b)) < 1e-4);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = pseudo_random(6, 4, 6);
        let b = pseudo_random(3, 4, 7);
        let mut fused = Matrix::default();
        a.matmul_t_into(&b, &mut fused);
        assert!(fused.max_abs_diff(&naive_matmul(&a, &transposed(&b))) < 1e-4);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let b = Matrix::from_vec(2, 2, vec![3.0; 4]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[7.0; 4]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[3.5; 4]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        let mut rows = Vec::new();
        a.row_norms_sq_into(&mut rows);
        assert_eq!(rows, vec![9.0, 16.0]);
        assert!((a.frob_norm_sq() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn col_sums_match_manual() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        let mut sums = Vec::new();
        a.col_sums_into(&mut sums);
        assert_eq!(sums, vec![111.0, 222.0]);
        a.weighted_col_sums_into(&[1.0, 0.5, 0.0], &mut sums);
        assert_eq!(sums, vec![6.0, 12.0]);
    }

    #[test]
    fn zero_column_matrices_reduce_to_empty_rows() {
        let a = Matrix::zeros(3, 0);
        assert_eq!(a.rows_iter().count(), 3);
        let mut norms = vec![7.0];
        a.row_norms_sq_into(&mut norms);
        assert_eq!(norms, vec![0.0; 3]);
        let mut sums = vec![7.0];
        a.col_sums_into(&mut sums);
        assert!(sums.is_empty());
        a.weighted_col_sums_into(&[1.0; 3], &mut sums);
        assert!(sums.is_empty());
    }

    #[test]
    fn rows_iter_and_row_access_agree() {
        let a = pseudo_random(4, 3, 11);
        for (i, r) in a.rows_iter().enumerate() {
            assert_eq!(r, a.row(i));
        }
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_rejects_mismatch() {
        Matrix::zeros(2, 3).matmul_into(&Matrix::zeros(4, 2), &mut Matrix::default());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn gemm_variants_are_bitwise_identical_across_thread_counts() {
        // Big enough that the executor actually engages (> MIN_CHUNK_FLOPS
        // per GEMM), with ReLU-like zeros to exercise the skip path.
        let mut a = pseudo_random(96, 80, 20);
        for x in a.as_mut_slice() {
            if *x < -1.0 {
                *x = 0.0;
            }
        }
        let b = pseudo_random(80, 96, 21);
        let bt = pseudo_random(96, 96, 22);
        let run = || {
            let (mut m, mut t, mut mt) = Default::default();
            a.matmul_into(&b, &mut m);
            a.t_matmul_into(&bt, &mut t);
            a.matmul_t_into(&a, &mut mt);
            (m, t, mt)
        };
        let initial = lazydp_exec::global_threads();
        lazydp_exec::set_global_threads(1);
        let base: (Matrix, Matrix, Matrix) = run();
        for threads in [2usize, 3, 8] {
            lazydp_exec::set_global_threads(threads);
            assert_eq!(base, run(), "{threads} threads");
        }
        lazydp_exec::set_global_threads(initial);
    }

    #[test]
    fn matmul_associativity_within_tolerance() {
        let a = pseudo_random(4, 5, 12);
        let b = pseudo_random(5, 6, 13);
        let c = pseudo_random(6, 3, 14);
        let (mut ab, mut bc, mut left, mut right) = Default::default();
        a.matmul_into(&b, &mut ab);
        ab.matmul_into(&c, &mut left);
        b.matmul_into(&c, &mut bc);
        a.matmul_into(&bc, &mut right);
        assert!(left.max_abs_diff(&right) < 1e-2);
    }
}
