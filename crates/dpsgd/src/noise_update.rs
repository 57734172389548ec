//! Model-update kernels for embedding tables.
//!
//! These implement the paper's Fig. 4 update styles with work counters:
//!
//! * [`sparse_grad_update`] — SGD's sparse update (Fig. 4(a)): touches
//!   only gathered rows.
//! * [`dense_noisy_update_with`] / [`par_dense_noisy_update`] — DP-SGD's
//!   dense noisy update (Fig. 4(b)): *every* row receives fresh Gaussian
//!   noise; gathered rows also receive their gradient. This is the
//!   memory-bound bottleneck the paper root-causes in §4.3. The sweep is
//!   embarrassingly parallel over rows and the paper's tuned baseline
//!   multi-threads it with TBB/OpenMP (§6); the parallel entry is the
//!   Rust analogue on the [`lazydp_exec::Executor`], over fixed-size row
//!   chunks (never sized by the thread count). Both entries run the one
//!   row-range body, so with counter-based noise they are *identical*
//!   at any thread count — verified by the tests.
//! * [`sparse_noisy_update_with`] — EANA's variant (§7.4): noise lands
//!   only on the rows that were accessed, which is cheap but leaks
//!   which rows were never touched.

use crate::counters::KernelCounters;
use lazydp_embedding::{EmbeddingTable, SparseGrad};
use lazydp_exec::Executor;
use lazydp_rng::RowNoise;

/// Embedding rows per executor chunk of [`par_dense_noisy_update`].
/// Fixed (not derived from the thread count) so chunk addressing — and
/// therefore any per-chunk noise state — is thread-count independent.
const ROWS_PER_CHUNK: usize = 512;

/// SGD sparse update: `θ[r] -= lr · g[r]` for gathered rows only.
pub fn sparse_grad_update(
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    lr: f32,
    counters: &mut KernelCounters,
) {
    table.sparse_update(grad, lr);
    counters.table_rows_read += grad.len() as u64;
    counters.table_rows_written += grad.len() as u64;
}

/// The dense noisy update of the contiguous rows `first_row..` held in
/// `rows`: `θ[r] -= lr · (noise_std·n_r + g[r])`, `g[r]` found by binary
/// search over the coalesced (sorted) gradient — no per-call map, no
/// unordered container. `buf` is the `dim`-wide draw scratch.
#[allow(clippy::too_many_arguments)]
fn dense_noisy_rows<N: RowNoise>(
    table_id: u32,
    first_row: usize,
    rows: &mut [f32],
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    buf: &mut [f32],
) {
    for (k, row) in rows.chunks_mut(buf.len()).enumerate() {
        let r = (first_row + k) as u64;
        noise.fill_unit(table_id, r, iter, buf);
        if let Some(g) = grad.find(r) {
            for ((w, &n), &gv) in row.iter_mut().zip(buf.iter()).zip(g.iter()) {
                *w -= lr * (noise_std * n + gv);
            }
        } else {
            for (w, &n) in row.iter_mut().zip(buf.iter()) {
                *w -= lr * noise_std * n;
            }
        }
    }
}

/// Checks the dense kernels' preconditions and counts a full-table
/// sweep.
fn begin_dense_sweep(table: &EmbeddingTable, grad: &SparseGrad, counters: &mut KernelCounters) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    assert!(
        grad.is_coalesced(),
        "gradient must be coalesced (sorted, duplicate-free rows)"
    );
    counters.gaussian_samples += (table.rows() * table.dim()) as u64;
    counters.table_rows_read += table.rows() as u64;
    counters.table_rows_written += table.rows() as u64;
}

/// DP-SGD dense noisy update: for **every** row `r` of the table,
/// `θ[r] -= lr · (noise_std·n_r + g[r])`, where `n_r` is a fresh
/// standard-normal vector drawn from `noise` for `(table_id, r, iter)`
/// and `g[r]` is zero for non-gathered rows. Draws through the
/// caller-provided scratch buffer, so a steady-state training loop
/// allocates nothing.
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn dense_noisy_update_with<N: RowNoise>(
    table_id: u32,
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
    buf: &mut Vec<f32>,
) {
    begin_dense_sweep(table, grad, counters);
    buf.clear();
    buf.resize(table.dim(), 0.0);
    let rows = table.as_mut_slice();
    dense_noisy_rows(table_id, 0, rows, grad, noise, iter, noise_std, lr, buf);
}

/// [`dense_noisy_update_with`] over `threads` workers. Identical to the
/// sequential entry at any thread count: each chunk samples through its
/// own clone of `noise`, which draws the same values because a
/// [`RowNoise`] source is a pure function of the address.
///
/// # Panics
///
/// Panics if `grad` is not coalesced
/// (sorted, duplicate-free rows), dimensions mismatch, or
/// `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn par_dense_noisy_update<N>(
    table_id: u32,
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    noise: &N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    threads: usize,
    counters: &mut KernelCounters,
) where
    N: RowNoise,
{
    begin_dense_sweep(table, grad, counters);
    let dim = table.dim();
    Executor::new(threads).par_for(table.as_mut_slice(), ROWS_PER_CHUNK * dim, |c, chunk| {
        let mut noise = noise.clone();
        let mut buf = vec![0.0f32; dim];
        let first_row = c * ROWS_PER_CHUNK;
        dense_noisy_rows(
            table_id, first_row, chunk, grad, &mut noise, iter, noise_std, lr, &mut buf,
        );
    });
}

/// EANA sparse noisy update: noise (plus gradient) lands **only** on the
/// gathered rows. Draws through the caller-provided scratch buffer, so
/// a steady-state training loop allocates nothing.
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn sparse_noisy_update_with<N: RowNoise>(
    table_id: u32,
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
    buf: &mut Vec<f32>,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    let dim = table.dim();
    buf.clear();
    buf.resize(dim, 0.0);
    // Coalesced gradients are sorted strictly increasing, so duplicates
    // are caught by a monotonicity check instead of a hash set.
    let mut last_idx: Option<u64> = None;
    for (idx, g) in grad.iter() {
        assert!(
            last_idx.is_none_or(|l| l < idx),
            "gradient must be coalesced (row {idx} out of order or duplicated)"
        );
        last_idx = Some(idx);
        noise.fill_unit(table_id, idx, iter, buf);
        let row = table.row_mut(idx as usize);
        for ((w, &n), &gv) in row.iter_mut().zip(buf.iter()).zip(g.iter()) {
            *w -= lr * (noise_std * n + gv);
        }
    }
    counters.gaussian_samples += (grad.len() * dim) as u64;
    counters.table_rows_read += grad.len() as u64;
    counters.table_rows_written += grad.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::counter::CounterNoise;

    fn grad_for(dim: usize, entries: Vec<(u64, Vec<f32>)>) -> SparseGrad {
        let mut g = SparseGrad::from_entries(dim, entries);
        g.coalesce();
        g
    }

    /// The sequential dense kernel with a throwaway scratch buffer.
    #[allow(clippy::too_many_arguments)]
    fn dense(
        table_id: u32,
        table: &mut EmbeddingTable,
        grad: &SparseGrad,
        noise: &mut CounterNoise,
        iter: u64,
        noise_std: f32,
        lr: f32,
        counters: &mut KernelCounters,
    ) {
        let buf = &mut Vec::new();
        dense_noisy_update_with(
            table_id, table, grad, noise, iter, noise_std, lr, counters, buf,
        );
    }

    #[test]
    fn dense_update_touches_every_row() {
        let mut table = EmbeddingTable::zeros(5, 2);
        let before = table.clone();
        let grad = grad_for(2, vec![(1, vec![1.0, 1.0])]);
        let mut noise = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        dense(0, &mut table, &grad, &mut noise, 1, 0.5, 0.1, &mut c);
        for r in 0..5 {
            assert_ne!(table.row(r), before.row(r), "row {r} must move (noise)");
        }
        assert_eq!(c.gaussian_samples, 10);
        assert_eq!(c.table_rows_written, 5);
    }

    #[test]
    fn dense_update_applies_grad_plus_noise() {
        // With zero noise std, dense update reduces to the sparse grad
        // update on gathered rows and a no-op elsewhere.
        let mut a = EmbeddingTable::zeros(4, 2);
        let mut b = EmbeddingTable::zeros(4, 2);
        let grad = grad_for(2, vec![(2, vec![3.0, -1.0])]);
        let mut noise = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        dense(0, &mut a, &grad, &mut noise, 1, 0.0, 0.1, &mut c);
        sparse_grad_update(&mut b, &grad, 0.1, &mut c);
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn sparse_noisy_update_leaves_untouched_rows_alone() {
        let mut table = EmbeddingTable::zeros(5, 2);
        let grad = grad_for(2, vec![(0, vec![1.0, 0.0]), (4, vec![0.0, 1.0])]);
        let mut noise = CounterNoise::new(2);
        let mut c = KernelCounters::new();
        let buf = &mut Vec::new();
        sparse_noisy_update_with(0, &mut table, &grad, &mut noise, 1, 0.5, 0.1, &mut c, buf);
        for r in [1usize, 2, 3] {
            assert_eq!(table.row(r), &[0.0, 0.0], "EANA must not touch row {r}");
        }
        assert_ne!(table.row(0), &[0.0, 0.0]);
        assert_ne!(table.row(4), &[0.0, 0.0]);
        assert_eq!(c.gaussian_samples, 4);
    }

    #[test]
    fn dense_and_sparse_agree_on_accessed_rows_with_same_noise_source() {
        let mut dense_t = EmbeddingTable::zeros(6, 3);
        let mut sparse_t = EmbeddingTable::zeros(6, 3);
        let grad = grad_for(3, vec![(2, vec![1.0, 2.0, 3.0])]);
        let mut n1 = CounterNoise::new(9);
        let mut n2 = CounterNoise::new(9);
        let mut c = KernelCounters::new();
        let buf = &mut Vec::new();
        dense(0, &mut dense_t, &grad, &mut n1, 7, 0.3, 0.1, &mut c);
        sparse_noisy_update_with(0, &mut sparse_t, &grad, &mut n2, 7, 0.3, 0.1, &mut c, buf);
        // Counter-based noise is addressed by (table,row,iter), so the
        // accessed row got the identical update in both kernels.
        assert_eq!(dense_t.row(2), sparse_t.row(2));
    }

    #[test]
    #[should_panic(expected = "coalesced")]
    fn dense_update_rejects_uncoalesced_grad() {
        let mut table = EmbeddingTable::zeros(3, 1);
        let grad = SparseGrad::from_entries(1, vec![(0, vec![1.0]), (0, vec![2.0])]);
        let mut noise = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        dense(0, &mut table, &grad, &mut noise, 1, 0.1, 0.1, &mut c);
    }

    fn scattered_grad() -> SparseGrad {
        grad_for(
            4,
            vec![(0, vec![1.0; 4]), (17, vec![-0.5; 4]), (63, vec![2.0; 4])],
        )
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let g = scattered_grad();
        let mut seq = EmbeddingTable::zeros(64, 4);
        let mut c1 = KernelCounters::new();
        let mut n1 = CounterNoise::new(12);
        dense(3, &mut seq, &g, &mut n1, 9, 0.25, 0.1, &mut c1);
        for threads in [1usize, 2, 3, 7] {
            let mut par = EmbeddingTable::zeros(64, 4);
            let mut c2 = KernelCounters::new();
            let n2 = CounterNoise::new(12);
            par_dense_noisy_update(3, &mut par, &g, &n2, 9, 0.25, 0.1, threads, &mut c2);
            assert_eq!(seq, par, "thread count {threads} changed the result");
            assert_eq!(c1.gaussian_samples, c2.gaussian_samples);
        }
    }

    #[test]
    fn tables_larger_than_one_chunk_still_match_sequential() {
        // > ROWS_PER_CHUNK rows so several chunks are actually in
        // flight, with gradient rows scattered across chunks.
        let rows = 2 * ROWS_PER_CHUNK + 37;
        let g = grad_for(
            2,
            vec![
                (3, vec![1.0, -1.0]),
                (ROWS_PER_CHUNK as u64 + 5, vec![0.5, 0.5]),
                (rows as u64 - 1, vec![-2.0, 2.0]),
            ],
        );
        let mut seq = EmbeddingTable::zeros(rows, 2);
        let mut c = KernelCounters::new();
        let mut n1 = CounterNoise::new(8);
        dense(1, &mut seq, &g, &mut n1, 4, 0.3, 0.05, &mut c);
        for threads in [1usize, 2, 5] {
            let mut par = EmbeddingTable::zeros(rows, 2);
            let n2 = CounterNoise::new(8);
            par_dense_noisy_update(1, &mut par, &g, &n2, 4, 0.3, 0.05, threads, &mut c);
            assert_eq!(seq, par, "thread count {threads} changed the result");
        }
    }

    #[test]
    fn handles_row_counts_not_divisible_by_threads() {
        let g = grad_for(2, vec![(6, vec![1.0, 1.0])]);
        let mut seq = EmbeddingTable::zeros(7, 2);
        let mut par = EmbeddingTable::zeros(7, 2);
        let mut c = KernelCounters::new();
        let mut n1 = CounterNoise::new(1);
        dense(0, &mut seq, &g, &mut n1, 1, 0.5, 0.1, &mut c);
        let n2 = CounterNoise::new(1);
        par_dense_noisy_update(0, &mut par, &g, &n2, 1, 0.5, 0.1, 3, &mut c);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "coalesced")]
    fn uncoalesced_grad_rejected() {
        let mut t = EmbeddingTable::zeros(4, 1);
        let g = SparseGrad::from_entries(1, vec![(2, vec![1.0]), (0, vec![1.0])]);
        let n = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        par_dense_noisy_update(0, &mut t, &g, &n, 1, 0.1, 0.1, 2, &mut c);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mut t = EmbeddingTable::zeros(4, 2);
        let g = SparseGrad::new(2);
        let n = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        par_dense_noisy_update(0, &mut t, &g, &n, 1, 0.1, 0.1, 0, &mut c);
    }
}
