//! Model-update kernels for embedding tables.
//!
//! These implement the paper's Fig. 4 update styles with work counters:
//!
//! * [`sparse_grad_update`] — SGD's sparse update (Fig. 4(a)): touches
//!   only gathered rows.
//! * [`dense_noisy_update_with`] — DP-SGD's dense noisy update
//!   (Fig. 4(b)): *every* row receives fresh Gaussian noise; gathered
//!   rows also receive their gradient. This is the memory-bound
//!   bottleneck the paper root-causes in §4.3. The sweep is
//!   embarrassingly parallel over rows and the paper's tuned baseline
//!   multi-threads it with TBB/OpenMP (§6); here it is one
//!   [`EmbeddingStorage::sweep_rows_mut`] over the backend's row runs,
//!   each row's noise addressed by the row, never by its run, so with
//!   counter-based noise it is *identical* at any executor width and on
//!   any backend.
//! * [`sparse_noisy_update_with`] — EANA's variant (§7.4): noise lands
//!   only on the rows that were accessed, which is cheap but leaks
//!   which rows were never touched.
//!
//! Every table-noise kernel of the workspace — these two, AdaFEST's
//! partition update and LazyDP's flush sampler — draws its rows through
//! one body, [`noisy_row`].

use crate::counters::KernelCounters;
use lazydp_embedding::{EmbeddingStorage, SparseGrad};
use lazydp_exec::Executor;
use lazydp_rng::{RowNoise, NOISE_BLOCK};

/// SGD sparse update: `θ[r] -= lr · g[r]` for gathered rows only.
pub fn sparse_grad_update<T: EmbeddingStorage>(
    table: &mut T,
    grad: &SparseGrad,
    lr: f32,
    counters: &mut KernelCounters,
) {
    table.sparse_update(grad, lr);
    counters.table_rows_read += grad.len() as u64;
    counters.table_rows_written += grad.len() as u64;
}

/// The noisy-row body of every table-noise kernel: draws the noise of
/// row `row` of table `table_id` for iteration `iter` through `block`,
/// [`NOISE_BLOCK`] values at a time (each block seeked to its offset with
/// [`RowNoise::fill_unit_at`]), and hands `f` each segment of `dst` with
/// its noise values and the segment's offset in the row.
///
/// The caller declares `block` once per executor chunk, as
/// `Mlp::apply_noisy` does for the dense parameters, so no kernel
/// allocates or zeroes scratch per row.
#[inline]
pub fn noisy_row<N: RowNoise>(
    noise: &mut N,
    table_id: u32,
    row: u64,
    iter: u64,
    dst: &mut [f32],
    block: &mut [f32; NOISE_BLOCK],
    mut f: impl FnMut(usize, &mut [f32], &[f32]),
) {
    for (k, dst) in dst.chunks_mut(NOISE_BLOCK).enumerate() {
        let start = k * NOISE_BLOCK;
        let n = &mut block[..dst.len()];
        noise.fill_unit_at(table_id, row, iter, start as u64, n);
        f(start, dst, n);
    }
}

/// One row's noisy update through [`noisy_row`]: `θ[r] -= lr ·
/// (noise_std·n_r + g[r])` where the row has a gradient `g`, and
/// `θ[r] -= lr·noise_std·n_r` where it has none. The row arithmetic of
/// the dense sweep, EANA and AdaFEST.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn noisy_update_row<N: RowNoise>(
    noise: &mut N,
    table_id: u32,
    r: u64,
    iter: u64,
    row: &mut [f32],
    grad: Option<&[f32]>,
    noise_std: f32,
    lr: f32,
    block: &mut [f32; NOISE_BLOCK],
) {
    noisy_row(noise, table_id, r, iter, row, block, |start, w, n| {
        if let Some(g) = grad {
            for ((w, &n), &gv) in w.iter_mut().zip(n).zip(&g[start..]) {
                *w -= lr * (noise_std * n + gv);
            }
        } else {
            for (w, &n) in w.iter_mut().zip(n) {
                *w -= lr * noise_std * n;
            }
        }
    });
}

/// The dense noisy update on `exec`: for **every** row `r` of the table,
/// `θ[r] -= lr · (noise_std·n_r + g[r])`, where `n_r` is a fresh
/// standard-normal vector drawn from `noise` for `(table_id, r, iter)`
/// and `g[r]` is zero for non-gathered rows. One table sweep, whose
/// row runs the backend chooses; each run finds its first entry of the
/// coalesced (sorted) gradient by one binary search, then walks the
/// entries in step with its rows, drawing through its own clone of
/// `noise` (the same values: a [`RowNoise`] source is a pure function of
/// the address) and one stack block, so the in-memory sweep allocates
/// nothing at executor width 1, and it is bitwise the same at any width
/// and on any backend.
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dense_noisy_update<N: RowNoise, T: EmbeddingStorage>(
    table_id: u32,
    table: &mut T,
    grad: &SparseGrad,
    noise: &N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    exec: &Executor,
    counters: &mut KernelCounters,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    assert!(
        grad.is_coalesced(),
        "gradient must be coalesced (sorted, duplicate-free rows)"
    );
    counters.gaussian_samples += table.elements() as u64;
    counters.table_rows_read += table.rows() as u64;
    counters.table_rows_written += table.rows() as u64;
    let dim = table.dim();
    table.sweep_rows_mut(exec, |first_row, rows| {
        let mut noise = noise.clone();
        let mut block = [0.0f32; NOISE_BLOCK];
        let mut next = grad.indices().partition_point(|&i| i < first_row);
        for (r, row) in (first_row..).zip(rows.chunks_mut(dim)) {
            let g = if grad.indices().get(next) == Some(&r) {
                next += 1;
                Some(grad.entry(next - 1).1)
            } else {
                None
            };
            noisy_update_row(
                &mut noise, table_id, r, iter, row, g, noise_std, lr, &mut block,
            );
        }
    });
}

/// DP-SGD dense noisy update of one table on a single-width executor:
/// the sweep the eager optimizer runs at `DpConfig::threads` (see the
/// module docs). `_buf` is unused; it keeps the argument list that
/// existing callers pass.
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn dense_noisy_update_with<N: RowNoise, T: EmbeddingStorage>(
    table_id: u32,
    table: &mut T,
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
    _buf: &mut Vec<f32>,
) {
    let exec = Executor::new(1);
    dense_noisy_update(
        table_id, table, grad, noise, iter, noise_std, lr, &exec, counters,
    );
}

/// EANA sparse noisy update: noise (plus gradient) lands **only** on the
/// gathered rows, each drawn through one stack block, so the update
/// allocates nothing. `_buf` is unused; it keeps the argument list that
/// existing callers pass.
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn sparse_noisy_update_with<N: RowNoise, T: EmbeddingStorage>(
    table_id: u32,
    table: &mut T,
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
    _buf: &mut Vec<f32>,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    let mut block = [0.0f32; NOISE_BLOCK];
    // Coalesced gradients are sorted strictly increasing, so duplicates
    // are caught by a monotonicity check instead of a hash set.
    let mut last_idx: Option<u64> = None;
    for (idx, g) in grad.iter() {
        assert!(
            last_idx.is_none_or(|l| l < idx),
            "gradient must be coalesced (row {idx} out of order or duplicated)"
        );
        last_idx = Some(idx);
        table.with_row_mut(idx, |row| {
            noisy_update_row(
                noise,
                table_id,
                idx,
                iter,
                row,
                Some(g),
                noise_std,
                lr,
                &mut block,
            );
        });
    }
    counters.gaussian_samples += (grad.len() * table.dim()) as u64;
    counters.table_rows_read += grad.len() as u64;
    counters.table_rows_written += grad.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_embedding::EmbeddingTable;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::fill_standard_normal;

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

    /// The dense update row by row, each row drawn whole from its counter
    /// stream by the staged `fill_standard_normal` (not the fused kernel
    /// under test).
    fn reference_dense(
        table_id: u32,
        table: &mut EmbeddingTable,
        grad: &SparseGrad,
        seed: u64,
        iter: u64,
        noise_std: f32,
        lr: f32,
    ) {
        let noise = CounterNoise::new(seed);
        let mut n = vec![0.0f32; table.dim()];
        for r in 0..table.rows() {
            fill_standard_normal(&mut noise.stream_for(table_id, r as u64, iter), &mut n);
            let row = table.row_mut(r);
            match grad.find(r as u64) {
                Some(g) => {
                    for ((w, &n), &gv) in row.iter_mut().zip(&n).zip(g) {
                        *w -= lr * (noise_std * n + gv);
                    }
                }
                None => {
                    for (w, &n) in row.iter_mut().zip(&n) {
                        *w -= lr * noise_std * n;
                    }
                }
            }
        }
    }

    #[test]
    fn every_width_matches_the_row_by_row_reference() {
        let g = scattered_grad();
        let mut want = EmbeddingTable::zeros(64, 4);
        reference_dense(3, &mut want, &g, 12, 9, 0.25, 0.1);
        let mut seq = EmbeddingTable::zeros(64, 4);
        let mut c1 = KernelCounters::new();
        dense(
            3,
            &mut seq,
            &g,
            &mut CounterNoise::new(12),
            9,
            0.25,
            0.1,
            &mut c1,
        );
        assert_eq!(seq, want);
        for threads in [1usize, 2, 3, 7] {
            let mut par = EmbeddingTable::zeros(64, 4);
            let mut c2 = KernelCounters::new();
            let (n2, exec) = (CounterNoise::new(12), Executor::new(threads));
            dense_noisy_update(3, &mut par, &g, &n2, 9, 0.25, 0.1, &exec, &mut c2);
            assert_eq!(par, want, "thread count {threads} changed the result");
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn rows_wider_than_one_noise_block_draw_their_whole_sequence() {
        // dim > NOISE_BLOCK: each row takes two stack blocks, the second
        // seeked to offset NOISE_BLOCK, and must still draw the row's
        // one sequence — in the dense sweep and in EANA's.
        let dim = NOISE_BLOCK + 44;
        let g = grad_for(dim, vec![(1, vec![0.5; dim]), (4, vec![-1.0; dim])]);
        let mut want = EmbeddingTable::zeros(6, dim);
        reference_dense(2, &mut want, &g, 5, 3, 0.3, 0.1);
        let mut c = KernelCounters::new();
        for threads in [1usize, 2] {
            let mut got = EmbeddingTable::zeros(6, dim);
            let exec = Executor::new(threads);
            dense_noisy_update(
                2,
                &mut got,
                &g,
                &CounterNoise::new(5),
                3,
                0.3,
                0.1,
                &exec,
                &mut c,
            );
            assert_eq!(got, want, "threads {threads}");
        }
        let mut sparse = EmbeddingTable::zeros(6, dim);
        let buf = &mut Vec::new();
        let mut n = CounterNoise::new(5);
        sparse_noisy_update_with(2, &mut sparse, &g, &mut n, 3, 0.3, 0.1, &mut c, buf);
        for r in [1usize, 4] {
            assert_eq!(sparse.row(r), want.row(r), "EANA row {r}");
        }
    }

    #[test]
    fn tables_larger_than_one_chunk_match_the_row_by_row_reference() {
        // The in-memory sweep hands over 512-row chunks: more rows than
        // that so several chunks are actually in flight, with gradient
        // rows scattered across chunks; every chunk must address its
        // rows from the table's row 0.
        const ROWS_PER_CHUNK: usize = 512;
        let rows = 2 * ROWS_PER_CHUNK + 37;
        let g = grad_for(
            2,
            vec![
                (3, vec![1.0, -1.0]),
                (ROWS_PER_CHUNK as u64 + 5, vec![0.5, 0.5]),
                (rows as u64 - 1, vec![-2.0, 2.0]),
            ],
        );
        let mut want = EmbeddingTable::zeros(rows, 2);
        reference_dense(1, &mut want, &g, 8, 4, 0.3, 0.05);
        let mut seq = EmbeddingTable::zeros(rows, 2);
        let mut c = KernelCounters::new();
        dense(
            1,
            &mut seq,
            &g,
            &mut CounterNoise::new(8),
            4,
            0.3,
            0.05,
            &mut c,
        );
        assert_eq!(seq, want);
        for threads in [2usize, 5] {
            let mut par = EmbeddingTable::zeros(rows, 2);
            let (n2, exec) = (CounterNoise::new(8), Executor::new(threads));
            dense_noisy_update(1, &mut par, &g, &n2, 4, 0.3, 0.05, &exec, &mut c);
            assert_eq!(par, want, "thread count {threads} changed the result");
        }
    }

    #[test]
    #[should_panic(expected = "coalesced")]
    fn uncoalesced_grad_rejected() {
        let mut t = EmbeddingTable::zeros(4, 1);
        let g = SparseGrad::from_entries(1, vec![(2, vec![1.0]), (0, vec![1.0])]);
        let (n, exec) = (CounterNoise::new(1), Executor::new(2));
        let mut c = KernelCounters::new();
        dense_noisy_update(0, &mut t, &g, &n, 1, 0.1, 0.1, &exec, &mut c);
    }
}
