//! Register-blocked GEMM micro-kernels — the dense-compute layer.
//!
//! The GEMM variants backprop needs ([`Matrix::matmul_into`],
//! [`Matrix::t_matmul_into`], [`Matrix::t_matmul_scaled_into`],
//! [`Matrix::matmul_t_into`]) share one packed,
//! register-blocked implementation here. The structure follows the
//! classic BLIS decomposition, scaled down to the MLP sizes of this
//! workload:
//!
//! * the **B operand** is packed, one k-panel at a time, into a
//!   cache-aligned thread-local scratch buffer laid out as [`NR`]-wide
//!   micro-panels (k-major), so the micro-kernel streams it linearly;
//! * the **A operand** block ([`MR`] rows × panel depth) is packed
//!   k-major so the inner loop is two `chunks_exact` streams with no
//!   bounds checks;
//! * the **micro-kernel** keeps an `MR × NR` accumulator block in
//!   registers and issues one [`f32::mul_add`] per element per k step.
//!
//! `matmul_t` (`a · bᵀ`, the input-gradient GEMM) contracts along the
//! rows of both operands, so it packs both lane-interleaved: [`MT_R`]
//! rows of A form a strip, [`MT_C`] rows of B a panel, and its
//! **register block** keeps eight lanes for each of the `MT_R × MT_C`
//! (A row, B row) pairs. Its **cache block** is a slab of at most
//! [`MT_B_BLOCK_FLOATS`] of B, which every A strip of an executor chunk
//! sweeps (each strip packed as it goes) before the next slab is packed,
//! so B is read from memory once per chunk rather than once per A row.
//!
//! # Determinism contract (extends DESIGN.md invariant #4)
//!
//! Every output element is accumulated by a **single accumulator in
//! ascending k order** (`matmul`/`t_matmul`), or by the fixed
//! eight-lane accumulation tree of [`dot_tree`] (`matmul_t`, whose
//! register block runs that tree for every pair at once). Blocking
//! only changes *which* elements are computed together, never the
//! per-element operation sequence, so results are **bitwise identical
//! for any tile size (`kc`, the B cache block), any executor chunking,
//! and any thread count** — and bitwise identical to the naive
//! reference kernels of this module's tests (`reference_matmul` & co.),
//! which keep the pre-blocking loop structure (including the zero-skip
//! fast path) over the same shared accumulation primitives. The
//! zero-skip is bitwise-neutral for finite inputs because
//! `a.mul_add(b, acc) == acc` exactly when `a == 0.0` and `b` is finite
//! (a property the GEMM proptests pin down).
//!
//! The blocked and reference kernels therefore agree bit-for-bit; the
//! reference kernels, and the hooks that force explicit tilings, exist
//! only in the tests, as the oracle they compare against.
//!
//! # Vectorization
//!
//! The three innermost loops (the `MR × NR` micro-kernel, the eight
//! lanes of [`dot_tree`], and `matmul_t`'s `MT_R × MT_C` lane block)
//! are safe Rust over fixed-size arrays. [`f32::mul_add`] is correctly
//! rounded, so LLVM may run those lanes as vector FMAs without changing
//! a bit: it does under `target-cpu=native` and `x86-64-v3`, and a plain
//! `x86-64` build computes the same bits through libm `fmaf`, only
//! slower. The lane block is 6 × 2 because its twelve accumulators,
//! two B vectors and one A vector fit the sixteen vector registers of
//! `x86-64-v3`; wider blocks (3 × 4, 4 × 4) spill there.

use crate::matrix::Matrix;
use std::cell::RefCell;

/// Lanes the accumulation tree of [`dot_tree`] is built from (eight
/// `f32`s — one 256-bit vector).
pub(crate) const LANES: usize = 8;

/// Columns per micro-panel / micro-kernel width (two 256-bit vectors).
pub(crate) const NR: usize = 16;

/// Rows per micro-kernel block.
pub(crate) const MR: usize = 6;

/// Default k-panel depth: how many rows of B are packed per panel.
/// MLP layers in this workload have `k ≤ 1024`, so most GEMMs pack B in
/// at most four panels.
pub(crate) const DEFAULT_KC: usize = 256;

/// Rows of A per `matmul_t` register block.
pub(crate) const MT_R: usize = 6;

/// Rows of B per `matmul_t` register block.
const MT_C: usize = 2;

/// Lanes per row of a `matmul_t` register block: [`MT_C`] pairs of
/// eight.
const MT_W: usize = MT_C * LANES;

/// Most floats in one `matmul_t` cache block of B: 120 KiB, which sits
/// in a 1–2 MiB per-core L2 with room to spare. With the pack buffer's
/// alignment slack it stays under glibc's 128 KiB mmap threshold on
/// purpose: each short-lived executor worker frees its buffer when it
/// exits, and freeing an mmapped 256 KiB block raised that threshold
/// process-wide and `dense_lazydp`'s peak RSS by 4 %.
const MT_B_BLOCK_FLOATS: usize = 30 * 1024;

/// Fewest rows a blocked GEMM chunk carries, so per-chunk A-packing,
/// scratch checkout and `matmul_t`'s sweep of each B block amortize. A
/// multiple of both [`MR`] and [`MT_R`].
const MIN_CHUNK_ROWS: usize = 4 * MR;

/// Rounds an executor chunk-row count up for the blocked drivers: a
/// multiple of the register block's row count `block` ([`MR`], or
/// [`MT_R`] for `matmul_t`), so only the final chunk runs a narrow
/// block, and at least [`MIN_CHUNK_ROWS`]. Purely a performance choice —
/// chunking never affects the computed bits.
#[must_use]
pub(crate) fn blocked_chunk_rows(chunk_rows: usize, total_rows: usize, block: usize) -> usize {
    chunk_rows
        .next_multiple_of(block)
        .max(MIN_CHUNK_ROWS)
        .clamp(1, total_rows.max(1))
}

thread_local! {
    /// Per-thread packed-B panel (reused across calls; on the inline
    /// single-thread path this makes steady-state GEMMs allocation-free).
    /// The calling thread runs chunks of every parallel region too, so
    /// its three buffers persist across regions; a spawned worker's are
    /// freed when its region ends.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-A block.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread macro-tile accumulator (the 2-D driver computes each
    /// output tile contiguously here, then copies it into the strided
    /// output rows).
    static TILE_C: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Hands `f` a 64-byte-aligned `len`-element scratch slice from `cell`,
/// growing the backing buffer only when a larger panel than ever before
/// is requested.
fn with_pack_buf<R>(cell: &RefCell<Vec<f32>>, len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut v = cell.borrow_mut();
    if v.len() < len + NR {
        v.resize(len + NR, 0.0);
    }
    // Offset into the buffer so the slice starts on a cache line.
    let addr = v.as_ptr() as usize;
    let off = ((64 - (addr & 63)) & 63) / std::mem::size_of::<f32>();
    f(&mut v[off..off + len])
}

/// Packs rows `k0..k0+kx` of `b`, columns `j_start..j_start+jw`, into
/// k-major [`NR`]-wide micro-panels:
/// `out[jp*kx*NR + k*NR + jj] = b[k0+k][j_start + jp*NR + jj]`
/// (zero-padded past the last column). `j_start = 0, jw = b.cols()`
/// packs the whole row range; the macro-tile driver packs narrower
/// column slabs per tile.
fn pack_b_panel_range(
    b: &Matrix,
    k0: usize,
    kx: usize,
    j_start: usize,
    jw: usize,
    out: &mut [f32],
) {
    for jp in 0..jw.div_ceil(NR) {
        let j0 = j_start + jp * NR;
        let nrw = NR.min(j_start + jw - j0);
        let dst_panel = &mut out[jp * kx * NR..(jp + 1) * kx * NR];
        for (k, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
            dst[..nrw].copy_from_slice(&b.row(k0 + k)[j0..j0 + nrw]);
            for d in &mut dst[nrw..] {
                *d = 0.0;
            }
        }
    }
}

/// [`pack_b_panel_range`] with the fused clip epilogue folded into the
/// packing: every packed element is pre-scaled by its contraction row's
/// clip factor, `out[..] = w[k0+k] * b[k0+k][j]`. One extra `f32`
/// multiply per packed element — applied exactly once per GEMM because
/// the packed panel is reused by every row block — realizes
/// `aᵀ · diag(w) · b` with the micro-kernel untouched. (The clip factor
/// indexes the *contraction* dimension, so it cannot be applied to the
/// accumulator block after the k loop; pre-scaling the packed operand is
/// the in-tile placement that preserves the per-element operation
/// sequence `acc = a.mul_add(w*b, acc)`, ascending k.)
fn pack_b_panel_range_scaled(
    b: &Matrix,
    w: &[f32],
    k0: usize,
    kx: usize,
    j_start: usize,
    jw: usize,
    out: &mut [f32],
) {
    for jp in 0..jw.div_ceil(NR) {
        let j0 = j_start + jp * NR;
        let nrw = NR.min(j_start + jw - j0);
        let dst_panel = &mut out[jp * kx * NR..(jp + 1) * kx * NR];
        for (k, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
            let wk = w[k0 + k];
            for (d, &s) in dst[..nrw].iter_mut().zip(&b.row(k0 + k)[j0..j0 + nrw]) {
                *d = wk * s;
            }
            for d in &mut dst[nrw..] {
                *d = 0.0;
            }
        }
    }
}

/// Packs an `m × kx` block of A k-major for `matmul`: the block's rows
/// are `m` *rows* of `a` (`out[k*m + mm] = a[i0+mm][k0+k]`).
fn pack_a_rows(a: &Matrix, i0: usize, m: usize, k0: usize, kx: usize, out: &mut [f32]) {
    for mm in 0..m {
        for (k, &v) in a.row(i0 + mm)[k0..k0 + kx].iter().enumerate() {
            out[k * m + mm] = v;
        }
    }
}

/// Packs an `m × kx` block of A k-major for `t_matmul`: the block's rows
/// are `m` *columns* of `a` (`out[k*m + mm] = a[k0+k][i0+mm]`), read as
/// contiguous `m`-wide slices of `a`'s rows.
fn pack_a_cols(a: &Matrix, i0: usize, m: usize, k0: usize, kx: usize, out: &mut [f32]) {
    for k in 0..kx {
        out[k * m..(k + 1) * m].copy_from_slice(&a.row(k0 + k)[i0..i0 + m]);
    }
}

/// The micro-kernel: accumulates an `M × NR` output block over one
/// packed k-panel. `apan` is k-major `M`-wide, `bpan` k-major
/// `NR`-wide; each output element receives one `mul_add` per k step,
/// ascending — the canonical accumulation order of the determinism
/// contract. Each accumulator row is an `NR`-lane array, which LLVM
/// runs as two 256-bit FMA vectors per k step under `native` or
/// `x86-64-v3`.
///
/// `inline(never)` is deliberate: compiled standalone, LLVM keeps the
/// `M × NR` accumulator block in vector registers for the whole k loop;
/// inlined into the packing drivers it has been observed to spill.
#[inline(never)]
#[allow(clippy::needless_range_loop)]
fn micro_kernel<const M: usize>(
    apan: &[f32],
    bpan: &[f32],
    out_rows: &mut [f32],
    ldc: usize,
    j0: usize,
    nrw: usize,
) {
    let mut acc = [[0.0f32; NR]; M];
    for m in 0..M {
        let base = m * ldc + j0;
        acc[m][..nrw].copy_from_slice(&out_rows[base..base + nrw]);
    }
    for (ak, bk) in apan.chunks_exact(M).zip(bpan.chunks_exact(NR)) {
        let bk: &[f32; NR] = bk.try_into().expect("NR-wide b micro-panel");
        for (m, am) in acc.iter_mut().enumerate() {
            let a = ak[m];
            for (j, accv) in am.iter_mut().enumerate() {
                *accv = a.mul_add(bk[j], *accv);
            }
        }
    }
    for m in 0..M {
        let base = m * ldc + j0;
        out_rows[base..base + nrw].copy_from_slice(&acc[m][..nrw]);
    }
}

/// Sweeps every column micro-panel of one packed B slab against a packed
/// `M`-row A block. Monomorphized per `M`, so the `match` on the row
/// count runs **once per row block** — narrow final blocks (`m < MR`) no
/// longer re-dispatch through the generic kernel inside the jp loop.
fn panel_sweep<const M: usize>(
    apan: &[f32],
    bpan: &[f32],
    out_rows: &mut [f32],
    n: usize,
    kx: usize,
) {
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let nrw = NR.min(n - j0);
        let bp = &bpan[jp * kx * NR..(jp + 1) * kx * NR];
        micro_kernel::<M>(apan, bp, out_rows, n, j0, nrw);
    }
}

/// Sweeps the row blocks of one output chunk against a packed B panel.
#[allow(clippy::too_many_arguments)]
fn row_block_sweep(
    a: &Matrix,
    bpan: &[f32],
    out_chunk: &mut [f32],
    i0: usize,
    n: usize,
    k0: usize,
    kx: usize,
    pack_a: impl Fn(&Matrix, usize, usize, usize, usize, &mut [f32]),
) {
    let rows_here = out_chunk.len() / n;
    let mut rb = 0;
    while rb < rows_here {
        let m = (rows_here - rb).min(MR);
        PACK_A.with(|cell| {
            with_pack_buf(cell, kx * m, |apan| {
                pack_a(a, i0 + rb, m, k0, kx, apan);
                let out_rows = &mut out_chunk[rb * n..(rb + m) * n];
                match m {
                    6 => panel_sweep::<6>(apan, bpan, out_rows, n, kx),
                    5 => panel_sweep::<5>(apan, bpan, out_rows, n, kx),
                    4 => panel_sweep::<4>(apan, bpan, out_rows, n, kx),
                    3 => panel_sweep::<3>(apan, bpan, out_rows, n, kx),
                    2 => panel_sweep::<2>(apan, bpan, out_rows, n, kx),
                    _ => panel_sweep::<1>(apan, bpan, out_rows, n, kx),
                }
            });
        });
        rb += m;
    }
}

/// Minimum multiply-add count a macro-tile must carry before the 2-D
/// tiled driver engages (matches the per-chunk floor of the row split:
/// below this a tile's pack/spawn overhead outweighs the arithmetic).
const TILE_MIN_FLOPS: usize = 1 << 19;

/// Column-slab width for the 2-D macro-tile driver at executor width
/// `threads`, or `None` when the row-only split already feeds every
/// worker (or the executor is sequential, or the product is too small to
/// amortize per-tile packing). The decision reads only shape and the
/// width — never scheduling state — and tiling never changes the
/// per-element accumulation order, so both paths produce identical
/// bits; the choice is purely a performance one.
fn macro_tile_cols(
    threads: usize,
    rows: usize,
    n: usize,
    k: usize,
    chunk_rows: usize,
) -> Option<usize> {
    if threads <= 1 || n < 2 * NR {
        return None;
    }
    let row_chunks = rows.div_ceil(chunk_rows.max(1));
    if row_chunks >= threads {
        return None;
    }
    // Enough column slabs to feed the idle workers, but never so many
    // that a tile drops below the flop floor.
    let want = threads.div_ceil(row_chunks);
    let by_work = (rows * n * k) / (row_chunks * TILE_MIN_FLOPS);
    let ncb = want.min(by_work).min(n.div_ceil(2 * NR));
    if ncb <= 1 {
        return None;
    }
    Some(n.div_ceil(ncb).next_multiple_of(NR))
}

/// One output macro-tile of the 2-D driver: the row segments
/// (`rows[r] = out[i0 + r][j0 .. j0 + width]`) it owns exclusively.
struct MacroTile<'a> {
    rows: Vec<&'a mut [f32]>,
    i0: usize,
    j0: usize,
}

/// Splits a row-major `rows_total × n` output into disjoint
/// `row_block × col_block` macro-tiles (edge tiles are smaller), in
/// row-block-major order. Pure shape arithmetic: the tile grid depends
/// only on `(rows_total, n, row_block, col_block)`.
fn split_macro_tiles(
    out: &mut [f32],
    n: usize,
    row_block: usize,
    col_block: usize,
) -> Vec<MacroTile<'_>> {
    let rows_total = out.len() / n;
    let ncb = n.div_ceil(col_block);
    let nrb = rows_total.div_ceil(row_block);
    let mut tiles: Vec<MacroTile<'_>> = Vec::with_capacity(nrb * ncb);
    for rb in 0..nrb {
        for cb in 0..ncb {
            tiles.push(MacroTile {
                rows: Vec::with_capacity(row_block),
                i0: rb * row_block,
                j0: cb * col_block,
            });
        }
    }
    for (r, row) in out.chunks_mut(n).enumerate() {
        let rb = r / row_block;
        let mut rest = row;
        for cb in 0..ncb {
            let w = col_block.min(n - cb * col_block);
            let (seg, tail) = rest.split_at_mut(w);
            tiles[rb * ncb + cb].rows.push(seg);
            rest = tail;
        }
    }
    tiles
}

/// The 2-D macro-tile driver: partitions the output over both the ic
/// (row) and jc (column) macro-loops and hands one tile per `par_for`
/// chunk to the executor. Each worker packs the B column slab its tile
/// needs into its **own** thread-local scratch (per-thread packed-B
/// panels — the row driver packs B once on the calling thread instead),
/// accumulates the tile in a thread-local buffer over ascending k, and
/// copies the finished tile into the strided output rows.
///
/// Determinism: the tile grid is pure shape arithmetic and `par_for`
/// assigns work by stable chunk index, so *what* each tile computes is
/// thread-count independent; within a tile every output element keeps
/// the single-accumulator ascending-k order. Results are therefore
/// bitwise identical to the row driver and the reference kernels.
///
/// This path allocates its tile descriptors per call — acceptable
/// because it only runs on a parallel executor, whose scoped workers
/// allocate per region by construction (the steady-state zero-alloc
/// contract is scoped to the sequential path, which never gets here).
#[allow(clippy::too_many_arguments)]
fn tiled_driver(
    a: &Matrix,
    n: usize,
    out: &mut Matrix,
    k: usize,
    kc: usize,
    chunk_rows: usize,
    col_block: usize,
    pack_a: impl Fn(&Matrix, usize, usize, usize, usize, &mut [f32]) + Sync,
    pack_b: impl Fn(usize, usize, usize, usize, &mut [f32]) + Sync,
) {
    let mut tiles = split_macro_tiles(out.as_mut_slice(), n, chunk_rows, col_block);
    lazydp_exec::global().par_for(&mut tiles, 1, |_, tile_chunk| {
        let tile = &mut tile_chunk[0];
        let h = tile.rows.len();
        let w = tile.rows[0].len();
        let panel_stride = w.div_ceil(NR) * NR;
        PACK_B.with(|bcell| {
            with_pack_buf(bcell, k * panel_stride, |bpack| {
                let mut k0 = 0;
                while k0 < k {
                    let kx = kc.min(k - k0);
                    pack_b(
                        k0,
                        kx,
                        tile.j0,
                        w,
                        &mut bpack[k0 * panel_stride..(k0 + kx) * panel_stride],
                    );
                    k0 += kx;
                }
                TILE_C.with(|ccell| {
                    with_pack_buf(ccell, h * w, |local| {
                        local.fill(0.0);
                        let mut k0 = 0;
                        while k0 < k {
                            let kx = kc.min(k - k0);
                            let bpan = &bpack[k0 * panel_stride..(k0 + kx) * panel_stride];
                            row_block_sweep(a, bpan, local, tile.i0, w, k0, kx, &pack_a);
                            k0 += kx;
                        }
                        for (src, dst) in local.chunks_exact(w).zip(tile.rows.iter_mut()) {
                            dst.copy_from_slice(src);
                        }
                    });
                });
            });
        });
    });
}

/// Shared driver for the accumulating GEMMs (`matmul`, `t_matmul`, and
/// the scaled weight-gradient variant). When the row split alone cannot
/// feed the executor it defers to the 2-D [`tiled_driver`]; otherwise it
/// packs **all** of B's k-panels into the thread-local scratch once,
/// then runs a single chunk-parallel region in which each row chunk
/// sweeps the panels in ascending k — one executor spawn/join per GEMM
/// instead of one per panel, with the per-element accumulation order
/// (and therefore every output bit) unchanged. `k` is the contraction
/// length; `pack_a` decides whether A blocks come from rows (`matmul`)
/// or columns (`t_matmul`); `pack_b(k0, kx, j0, jw, dst)` fills one
/// packed B slab (plain or clip-scaled).
#[allow(clippy::too_many_arguments)]
fn blocked_driver(
    a: &Matrix,
    n: usize,
    out: &mut Matrix,
    k: usize,
    kc: usize,
    chunk_rows: usize,
    pack_a: impl Fn(&Matrix, usize, usize, usize, usize, &mut [f32]) + Sync,
    pack_b: impl Fn(usize, usize, usize, usize, &mut [f32]) + Sync,
) {
    let kc = kc.max(1);
    let threads = lazydp_exec::global_threads();
    if let Some(col_block) = macro_tile_cols(threads, out.rows(), n, k, chunk_rows) {
        tiled_driver(a, n, out, k, kc, chunk_rows, col_block, pack_a, pack_b);
        return;
    }
    let panel_stride = n.div_ceil(NR) * NR;
    PACK_B.with(|cell| {
        with_pack_buf(cell, k * panel_stride, |bpack| {
            let mut k0 = 0;
            while k0 < k {
                let kx = kc.min(k - k0);
                pack_b(
                    k0,
                    kx,
                    0,
                    n,
                    &mut bpack[k0 * panel_stride..(k0 + kx) * panel_stride],
                );
                k0 += kx;
            }
            let bpack: &[f32] = bpack;
            let pack_a = &pack_a;
            lazydp_exec::global().par_for(out.as_mut_slice(), chunk_rows * n, move |c, chunk| {
                let mut k0 = 0;
                while k0 < k {
                    let kx = kc.min(k - k0);
                    let bpan = &bpack[k0 * panel_stride..(k0 + kx) * panel_stride];
                    row_block_sweep(a, bpan, chunk, c * chunk_rows, n, k0, kx, pack_a);
                    k0 += kx;
                }
            });
        });
    });
}

/// Blocked `out += a · b` over a zeroed `out` (the
/// [`Matrix::matmul_into`] kernel).
pub(crate) fn matmul_blocked(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    kc: usize,
    chunk_rows: usize,
) {
    blocked_driver(
        a,
        b.cols(),
        out,
        a.cols(),
        kc,
        chunk_rows,
        pack_a_rows,
        |k0, kx, j0, jw, dst| pack_b_panel_range(b, k0, kx, j0, jw, dst),
    );
}

/// Blocked `out += aᵀ · b` over a zeroed `out` (the
/// [`Matrix::t_matmul_into`] kernel). The contraction runs over `a`'s rows
/// (the batch dimension of the weight-gradient GEMM), ascending.
pub(crate) fn t_matmul_blocked(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    kc: usize,
    chunk_rows: usize,
) {
    blocked_driver(
        a,
        b.cols(),
        out,
        a.rows(),
        kc,
        chunk_rows,
        pack_a_cols,
        |k0, kx, j0, jw, dst| pack_b_panel_range(b, k0, kx, j0, jw, dst),
    );
}

/// Blocked `out += aᵀ · diag(w) · b` over a zeroed `out` — the fused
/// clipped weight-gradient GEMM (`∂L/∂W = aᵀ · diag(clip) · δ`). The
/// per-example clip factors `w` are folded into the B packing
/// ([`pack_b_panel_range_scaled`]), so per output element the operation
/// sequence is `acc = a_ki.mul_add(w_k * b_kj, acc)` over ascending k —
/// exactly what the tests' `reference_t_matmul_scaled` computes. Every clipped
/// aggregate's MLP weight gradients come from this kernel.
pub(crate) fn t_matmul_scaled_blocked(
    a: &Matrix,
    b: &Matrix,
    w: &[f32],
    out: &mut Matrix,
    kc: usize,
    chunk_rows: usize,
) {
    blocked_driver(
        a,
        b.cols(),
        out,
        a.rows(),
        kc,
        chunk_rows,
        pack_a_cols,
        |k0, kx, j0, jw, dst| pack_b_panel_range_scaled(b, w, k0, kx, j0, jw, dst),
    );
}

/// Reduces the eight accumulation lanes of a [`dot_tree`] in the fixed
/// pairwise order — the one tree every `matmul_t` implementation shares.
#[inline(always)]
fn reduce_lanes(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The eight-lane dot accumulation over the `LANES`-aligned prefix:
/// lane `t` gathers elements `t, t+8, t+16, …` ascending via one
/// `mul_add` each — one vector FMA per eight elements once vectorized.
fn dot_lanes(a: &[f32], b: &[f32], lanes: &mut [f32; LANES]) {
    for (av, bv) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for t in 0..LANES {
            lanes[t] = av[t].mul_add(bv[t], lanes[t]);
        }
    }
}

/// Dot product with the fixed eight-lane `mul_add` accumulation tree:
/// lane `t` accumulates elements `t, t+8, t+16, …` ascending, the lanes
/// are reduced pairwise (`reduce_lanes`), and the `len % 8` tail is
/// folded in last through a single sequential accumulator. This is the
/// canonical inner product of [`Matrix::matmul_t_into`]; any blocking
/// of that kernel must reproduce it bit-for-bit.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
#[must_use]
pub(crate) fn dot_tree(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_tree length mismatch");
    let k8 = a.len() - a.len() % LANES;
    let mut lanes = [0.0f32; LANES];
    dot_lanes(&a[..k8], &b[..k8], &mut lanes);
    let mut rem = 0.0f32;
    for (&x, &y) in a[k8..].iter().zip(&b[k8..]) {
        rem = x.mul_add(y, rem);
    }
    reduce_lanes(&lanes) + rem
}

/// Packs `g` rows of `m` from row `r0` on, lane-interleaved over their
/// `k8`-float, `LANES`-aligned prefix: `out[(p*g + r)*LANES + t] =
/// m[r0 + r][p*LANES + t]`, so the `matmul_t` register block streams
/// each operand linearly with no bounds checks.
fn pack_lanes(m: &Matrix, r0: usize, g: usize, k8: usize, out: &mut [f32]) {
    for r in 0..g {
        for (p, src) in m.row(r0 + r)[..k8].chunks_exact(LANES).enumerate() {
            let d = (p * g + r) * LANES;
            out[d..d + LANES].copy_from_slice(src);
        }
    }
}

/// The `R × MT_C` register block of `matmul_t` over one packed A strip
/// (`R` rows) and one packed B panel ([`MT_C`] rows). Each of the R·C
/// (A row, B row) pairs keeps its own eight lanes — `acc[r][c*LANES + t]`
/// — and lane `t` gathers elements `t, t+8, …` of the aligned prefix
/// ascending, one `mul_add` each: [`dot_lanes`]' sequence, R·C pairs at
/// a time, so each loaded `a` vector feeds C FMAs and each `b` vector R.
///
/// `inline(never)` for the same reason as [`micro_kernel`]: standalone,
/// LLVM keeps the lane block in vector registers.
#[inline(never)]
fn dot_block<const R: usize>(apan: &[f32], bpan: &[f32]) -> [[f32; MT_W]; R] {
    let mut acc = [[0.0f32; MT_W]; R];
    for (ak, bk) in apan.chunks_exact(R * LANES).zip(bpan.chunks_exact(MT_W)) {
        let bk: &[f32; MT_W] = bk.try_into().expect("MT_W-wide b panel");
        for (r, accr) in acc.iter_mut().enumerate() {
            let av: &[f32; LANES] = ak[r * LANES..(r + 1) * LANES]
                .try_into()
                .expect("lane chunk");
            for (j, l) in accr.iter_mut().enumerate() {
                *l = av[j % LANES].mul_add(bk[j], *l);
            }
        }
    }
    acc
}

/// One `R`-row strip of a `matmul_t` chunk, A rows `i..i+R`, against B
/// rows `j0..j1`: rows `j0..jp` through the register block over their
/// [`MT_C`]-row panels in `bpack` (the strip is packed for them here),
/// the rest through [`dot_tree`] itself. A block's output is
/// `reduce_lanes(lanes) + rem`, with `rem` the sequential `k % 8` tail —
/// [`dot_tree`] exactly. `out_rows` holds the strip's R output rows,
/// `n` wide.
fn mt_strip<const R: usize>(
    a: &Matrix,
    i: usize,
    b: &Matrix,
    (j0, jp, j1): (usize, usize, usize),
    bpack: &[f32],
    out_rows: &mut [f32],
) {
    let (n, k) = (b.rows(), b.cols());
    let k8 = k - k % LANES;
    let arows: [&[f32]; R] = std::array::from_fn(|r| a.row(i + r));
    if jp > j0 {
        PACK_A.with(|cell| {
            with_pack_buf(cell, R * k8, |apan| {
                pack_lanes(a, i, R, k8, apan);
                for q in 0..(jp - j0) / MT_C {
                    let j = j0 + q * MT_C;
                    let lanes = dot_block::<R>(apan, &bpack[q * MT_C * k8..(q + 1) * MT_C * k8]);
                    for (r, (ar, lr)) in arows.iter().zip(&lanes).enumerate() {
                        for (c, lane) in lr.chunks_exact(LANES).enumerate() {
                            let br = b.row(j + c);
                            let mut rem = 0.0f32;
                            for p in k8..k {
                                rem = ar[p].mul_add(br[p], rem);
                            }
                            let lane: &[f32; LANES] = lane.try_into().expect("lane chunk");
                            out_rows[r * n + j + c] = reduce_lanes(lane) + rem;
                        }
                    }
                }
            });
        });
    }
    for j in jp..j1 {
        for (r, ar) in arows.iter().enumerate() {
            out_rows[r * n + j] = dot_tree(ar, b.row(j));
        }
    }
}

/// B rows per `matmul_t` cache block at contraction length `k`: a whole
/// number of [`MT_C`]-row panels, at most [`MT_B_BLOCK_FLOATS`] floats
/// unless one panel is already larger.
#[must_use]
pub(crate) fn mt_b_block_rows(k: usize) -> usize {
    (MT_B_BLOCK_FLOATS / k.max(1) / MT_C * MT_C).max(MT_C)
}

/// Blocked `out = a · bᵀ` (the [`Matrix::matmul_t_into`] kernel). Each
/// executor chunk walks B in cache blocks of `b_block_rows` rows: it
/// packs a block into [`MT_C`]-row panels and sweeps every [`MT_R`]-row
/// strip of its A rows over it, so the block is read from memory once
/// per chunk and then served from cache. Every output element is one
/// register block's lane tree over the whole contraction, so neither
/// blocking nor chunking moves a bit.
pub(crate) fn matmul_t_blocked(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    chunk_rows: usize,
    b_block_rows: usize,
) {
    let n = b.rows();
    let k8 = a.cols() - a.cols() % LANES;
    let b_block_rows = b_block_rows.clamp(1, n.max(1));
    lazydp_exec::global().par_for(out.as_mut_slice(), chunk_rows * n, |c, chunk| {
        let i0 = c * chunk_rows;
        let rows_here = chunk.len() / n;
        let strips = rows_here - rows_here % MT_R;
        PACK_B.with(|cell| {
            with_pack_buf(cell, b_block_rows * k8, |bpack| {
                let mut j0 = 0;
                while j0 < n {
                    let j1 = n.min(j0 + b_block_rows);
                    // With no aligned prefix every output is a bare
                    // tail: `dot_tree` takes all of them.
                    let panels = if k8 == 0 { 0 } else { (j1 - j0) / MT_C * MT_C };
                    for q in (0..panels).step_by(MT_C) {
                        pack_lanes(b, j0 + q, MT_C, k8, &mut bpack[q * k8..(q + MT_C) * k8]);
                    }
                    let js = (j0, j0 + panels, j1);
                    for s in (0..strips).step_by(MT_R) {
                        let out_rows = &mut chunk[s * n..(s + MT_R) * n];
                        mt_strip::<MT_R>(a, i0 + s, b, js, bpack, out_rows);
                    }
                    for r in strips..rows_here {
                        let out_rows = &mut chunk[r * n..(r + 1) * n];
                        mt_strip::<1>(a, i0 + r, b, js, bpack, out_rows);
                    }
                    j0 = j1;
                }
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `a · b` through the blocked kernel with explicit tile parameters
    /// (`kc` k-panel depth, `chunk_rows` executor chunking), so the
    /// invariance tests can sweep tilings.
    fn matmul_with_tiles(a: &Matrix, b: &Matrix, kc: usize, chunk_rows: usize) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul_with_tiles dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        if out.is_empty() || a.cols() == 0 {
            return out;
        }
        matmul_blocked(a, b, &mut out, kc, chunk_rows.clamp(1, a.rows().max(1)));
        out
    }

    /// `aᵀ · b` through the blocked kernel with explicit tile parameters
    /// (see [`matmul_with_tiles`]).
    fn t_matmul_with_tiles(a: &Matrix, b: &Matrix, kc: usize, chunk_rows: usize) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "t_matmul_with_tiles dimension mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        if out.is_empty() || a.rows() == 0 {
            return out;
        }
        t_matmul_blocked(a, b, &mut out, kc, chunk_rows.clamp(1, a.cols().max(1)));
        out
    }

    /// `aᵀ · diag(w) · b` through the blocked fused-clip kernel with
    /// explicit tile parameters (see [`matmul_with_tiles`]).
    fn t_matmul_scaled_with_tiles(
        a: &Matrix,
        b: &Matrix,
        w: &[f32],
        kc: usize,
        chunk_rows: usize,
    ) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "t_matmul_scaled dimension mismatch");
        assert_eq!(w.len(), a.rows(), "one clip factor per contraction row");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        if out.is_empty() || a.rows() == 0 {
            return out;
        }
        t_matmul_scaled_blocked(a, b, w, &mut out, kc, chunk_rows.clamp(1, a.cols().max(1)));
        out
    }

    /// `a · bᵀ` through the blocked kernel with explicit executor chunking
    /// and B cache-block rows (see [`matmul_with_tiles`]; `matmul_t` has
    /// no k-panel).
    fn matmul_t_with_tiles(
        a: &Matrix,
        b: &Matrix,
        chunk_rows: usize,
        b_block_rows: usize,
    ) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_t_with_tiles dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        if out.is_empty() {
            return out;
        }
        matmul_t_blocked(
            a,
            b,
            &mut out,
            chunk_rows.clamp(1, a.rows().max(1)),
            b_block_rows,
        );
        out
    }

    /// `a · b` forced through the 2-D macro-tile driver with explicit row
    /// and column blocks, so the invariance tests can pin the tiled path
    /// regardless of the automatic engagement heuristics.
    fn matmul_macro_tiled(
        a: &Matrix,
        b: &Matrix,
        kc: usize,
        row_block: usize,
        col_block: usize,
    ) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul_macro_tiled dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        if out.is_empty() || a.cols() == 0 {
            return out;
        }
        let n = b.cols();
        tiled_driver(
            a,
            n,
            &mut out,
            a.cols(),
            kc.max(1),
            row_block.clamp(1, a.rows().max(1)),
            col_block.clamp(1, n),
            pack_a_rows,
            |k0, kx, j0, jw, dst| pack_b_panel_range(b, k0, kx, j0, jw, dst),
        );
        out
    }

    /// `aᵀ · diag(w) · b` forced through the 2-D macro-tile driver (see
    /// [`matmul_macro_tiled`]).
    fn t_matmul_scaled_macro_tiled(
        a: &Matrix,
        b: &Matrix,
        w: &[f32],
        kc: usize,
        row_block: usize,
        col_block: usize,
    ) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "t_matmul_scaled dimension mismatch");
        assert_eq!(w.len(), a.rows(), "one clip factor per contraction row");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        if out.is_empty() || a.rows() == 0 {
            return out;
        }
        let n = b.cols();
        tiled_driver(
            a,
            n,
            &mut out,
            a.rows(),
            kc.max(1),
            row_block.clamp(1, a.cols().max(1)),
            col_block.clamp(1, n),
            pack_a_cols,
            |k0, kx, j0, jw, dst| pack_b_panel_range_scaled(b, w, k0, kx, j0, jw, dst),
        );
        out
    }

    /// `a · b` through the reference kernel: the pre-blocking i-k-j loop
    /// with its zero-skip fast path, one `mul_add` per element per k,
    /// ascending. Bitwise identical to [`matmul_with_tiles`] for finite
    /// inputs.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "reference_matmul dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let out_row = out.row_mut(i);
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
        out
    }

    /// `aᵀ · b` through the reference kernel (the [`reference_matmul`]
    /// loop with the contraction running over `a`'s rows).
    fn reference_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "reference_t_matmul dimension mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            let out_row = out.row_mut(i);
            for r in 0..a.rows() {
                let av = a.row(r)[i];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row(r)) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
        out
    }

    /// `aᵀ · diag(w) · b` through the reference fused-clip kernel: the
    /// [`reference_t_matmul`] loop with the clip factor applied to the B
    /// element before the `mul_add` — `acc = a_ki.mul_add(w_k * b_kj, acc)`,
    /// ascending k, exactly the per-element operation sequence of the
    /// blocked kernel (which computes `w_k * b_kj` once at packing time).
    /// The zero-skip stays bitwise-neutral: `w_k * b_kj` is finite whenever
    /// `w` and `b` are.
    fn reference_t_matmul_scaled(a: &Matrix, b: &Matrix, w: &[f32]) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "t_matmul_scaled dimension mismatch");
        assert_eq!(w.len(), a.rows(), "one clip factor per contraction row");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            let out_row = out.row_mut(i);
            for (r, &wr) in w.iter().enumerate() {
                let av = a.row(r)[i];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row(r)) {
                    *o = av.mul_add(wr * bv, *o);
                }
            }
        }
        out
    }

    /// `a · bᵀ` through the reference kernel: one [`dot_tree`] per output
    /// element in the plain double loop.
    fn reference_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "reference_matmul_t dimension mismatch");
        Matrix::from_fn(a.rows(), b.rows(), |i, j| dot_tree(a.row(i), b.row(j)))
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u32, zeros: bool) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u32)
                .wrapping_mul(2_654_435_761)
                .wrapping_add((j as u32).wrapping_mul(40_503))
                .wrapping_add(seed);
            let v = ((x % 1000) as f32 - 500.0) / 250.0;
            if zeros && x.is_multiple_of(5) {
                0.0
            } else {
                v
            }
        })
    }

    #[test]
    fn blocked_matches_reference_bitwise_on_awkward_shapes() {
        // Shapes chosen to exercise every tail: rows % MR, cols % NR,
        // k % kc, k % LANES all nonzero.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (33, 130, 47),
            (64, 64, 64),
        ] {
            let a = pseudo_random(m, k, 1, true);
            let b = pseudo_random(k, n, 2, true);
            let at = pseudo_random(k, m, 4, true); // t_matmul: shared leading dim k
            let bt = pseudo_random(n, k, 3, true); // matmul_t: shared trailing dim k
            assert_eq!(
                matmul_with_tiles(&a, &b, 32, 4),
                reference_matmul(&a, &b),
                "matmul {m}x{k}x{n}"
            );
            assert_eq!(
                t_matmul_with_tiles(&at, &b, 16, 3),
                reference_t_matmul(&at, &b),
                "t_matmul {m}x{k}x{n}"
            );
            assert_eq!(
                matmul_t_with_tiles(&a, &bt, 5, 3),
                reference_matmul_t(&a, &bt),
                "matmul_t {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_t_register_block_tails_match_reference_bitwise() {
        // Every row tail and column tail of the register block, at
        // contraction lengths with no lanes, a partial lane and a tail.
        for m in 0..=2 * MT_R + 1 {
            for n in 0..=2 * MT_C + 1 {
                for k in [0usize, 1, 7, 8, 9, 17] {
                    let a = pseudo_random(m, k, 51, true);
                    let bt = pseudo_random(n, k, 52, true);
                    let want = reference_matmul_t(&a, &bt);
                    for b_block in 1..=n + 1 {
                        assert_eq!(
                            matmul_t_with_tiles(&a, &bt, MT_R, b_block),
                            want,
                            "matmul_t {m}x{k}x{n} b_block={b_block}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_t_at_mlperf_width_matches_reference_at_every_executor_width() {
        // The top MLP's 1024×1024 layer at batch 128: more B rows than
        // one cache block, through the dispatched kernel.
        let a = pseudo_random(128, 1024, 61, true);
        let bt = pseudo_random(1024, 1024, 62, false);
        let want = bits(&reference_matmul_t(&a, &bt));
        let initial = lazydp_exec::global_threads();
        for threads in [1usize, 2, 8] {
            lazydp_exec::set_global_threads(threads);
            let mut out = Matrix::default();
            a.matmul_t_into(&bt, &mut out);
            assert_eq!(bits(&out), want, "{threads} threads");
        }
        lazydp_exec::set_global_threads(initial);
    }

    #[test]
    fn tile_sizes_do_not_change_bits() {
        let a = pseudo_random(23, 61, 7, true);
        let b = pseudo_random(61, 29, 8, false);
        let base = matmul_with_tiles(&a, &b, DEFAULT_KC, 23);
        for kc in [1usize, 3, 8, 61, 100] {
            for chunk in [1usize, 5, 23] {
                assert_eq!(
                    base,
                    matmul_with_tiles(&a, &b, kc, chunk),
                    "kc={kc} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn scaled_blocked_matches_scaled_reference_bitwise() {
        for &(k, m, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (33, 130, 47),
            (64, 64, 64),
        ] {
            let a = pseudo_random(k, m, 11, true);
            let b = pseudo_random(k, n, 12, true);
            let w: Vec<f32> = (0..k).map(|i| ((i * 29) % 17) as f32 / 16.0).collect();
            assert_eq!(
                t_matmul_scaled_with_tiles(&a, &b, &w, 16, 3),
                reference_t_matmul_scaled(&a, &b, &w),
                "t_matmul_scaled {k}x{m}x{n}"
            );
        }
    }

    #[test]
    fn scaled_with_unit_weights_matches_unscaled_bitwise() {
        let a = pseudo_random(33, 19, 13, true);
        let b = pseudo_random(33, 21, 14, false);
        let ones = vec![1.0f32; 33];
        assert_eq!(
            t_matmul_scaled_with_tiles(&a, &b, &ones, 16, 3),
            t_matmul_with_tiles(&a, &b, 16, 3),
        );
    }

    #[test]
    fn macro_tiled_driver_matches_row_driver_bitwise() {
        let a = pseudo_random(37, 53, 21, true);
        let b = pseudo_random(53, 71, 22, true);
        let base = matmul_with_tiles(&a, &b, DEFAULT_KC, 37);
        for col_block in [1usize, 7, NR, 2 * NR, 71] {
            for row_block in [1usize, 6, 17, 37] {
                assert_eq!(
                    base,
                    matmul_macro_tiled(&a, &b, 16, row_block, col_block),
                    "row_block={row_block} col_block={col_block}"
                );
            }
        }
        let at = pseudo_random(53, 37, 23, true);
        let w: Vec<f32> = (0..53).map(|i| ((i * 13) % 11) as f32 / 10.0).collect();
        let sbase = t_matmul_scaled_with_tiles(&at, &b, &w, DEFAULT_KC, 37);
        for col_block in [5usize, NR, 71] {
            assert_eq!(
                sbase,
                t_matmul_scaled_macro_tiled(&at, &b, &w, 16, 11, col_block),
                "scaled col_block={col_block}"
            );
        }
    }

    #[test]
    fn macro_tile_engagement_is_shape_driven() {
        // Sequential executor: never tiles regardless of shape.
        assert_eq!(macro_tile_cols(1, 6, 4096, 512, 6), None);
        for threads in [2usize, 4, 8] {
            // Enough row chunks for every worker: stays on the row split.
            assert_eq!(
                macro_tile_cols(threads, 6 * threads * 4, 4096, 512, 6),
                None
            );
            // Tall-thin output: too narrow to split columns.
            assert_eq!(macro_tile_cols(threads, 6, NR, 512, 6), None);
            // Few fat rows, wide output, deep k: tiles engage, NR-aligned.
            let cb = macro_tile_cols(threads, MR, 4096, 2048, MR)
                .expect("macro tiling engages for 6x4096x2048");
            assert!(cb.is_multiple_of(NR), "col block {cb} not NR-aligned");
            assert!(cb >= 2 * NR);
        }
    }

    /// The blocked GEMMs of an MLP stack (`dims[0] → dims[1] → …`) at
    /// batch `b` that take the 2-D driver at executor width `threads`:
    /// each layer's forward (`b × in · in × out`) and clipped weight
    /// gradient (`in × b · b × out`), chunked as the `Matrix` wrappers
    /// chunk them. (The input gradient, `matmul_t`, has no 2-D driver.)
    fn tiled_mlp_gemms(threads: usize, b: usize, dims: &[usize]) -> Vec<String> {
        let chunk = |rows, flops_per_row| {
            blocked_chunk_rows(crate::matrix::rows_per_chunk(rows, flops_per_row), rows, MR)
        };
        let mut tiled = Vec::new();
        for layer in dims.windows(2) {
            let (i, o) = (layer[0], layer[1]);
            if macro_tile_cols(threads, b, o, i, chunk(b, i * o)).is_some() {
                tiled.push(format!("forward {i}x{o}"));
            }
            if macro_tile_cols(threads, i, o, b, chunk(i, b * o)).is_some() {
                tiled.push(format!("weight gradient {i}x{o}"));
            }
        }
        tiled
    }

    #[test]
    fn the_benchmark_mlps_take_the_2d_driver_only_at_width_8() {
        // `DlrmConfig::mlperf` at B = 128 (`dense_lazydp`): 26 tables of
        // dim 128 make a 479-wide top input. `rmc1` at B = 256 (the T8
        // workloads): 8 tables of dim 64 make 100.
        let mlperf = |threads| {
            let mut g = tiled_mlp_gemms(threads, 128, &[13, 512, 256, 128]);
            g.extend(tiled_mlp_gemms(
                threads,
                128,
                &[479, 1024, 1024, 512, 256, 1],
            ));
            g
        };
        let rmc1 = |threads| {
            let mut g = tiled_mlp_gemms(threads, 256, &[13, 256, 128, 64]);
            g.extend(tiled_mlp_gemms(threads, 256, &[100, 512, 128, 1]));
            g
        };
        for threads in [2, 4] {
            assert_eq!(mlperf(threads), Vec::<String>::new(), "width {threads}");
            assert_eq!(rmc1(threads), Vec::<String>::new(), "width {threads}");
        }
        assert_eq!(
            mlperf(8),
            [
                "forward 512x256",
                "forward 479x1024",
                "forward 1024x1024",
                "forward 1024x512",
                "forward 512x256",
            ]
        );
        assert_eq!(rmc1(8), ["weight gradient 100x512"]);
    }

    #[test]
    fn dot_tree_matches_f64_dot_closely() {
        let a: Vec<f32> = (0..103)
            .map(|i| ((i * 37) % 19) as f32 / 7.0 - 1.0)
            .collect();
        let b: Vec<f32> = (0..103)
            .map(|i| ((i * 53) % 23) as f32 / 9.0 - 1.0)
            .collect();
        let exact = crate::vecops::dot(&a, &b);
        let got = f64::from(dot_tree(&a, &b));
        assert!((got - exact).abs() < 1e-3, "{got} vs {exact}");
    }

    #[test]
    #[should_panic(expected = "dot_tree length mismatch")]
    fn dot_tree_rejects_mismatched_lengths() {
        let _ = dot_tree(&[1.0, 2.0, 3.0], &[1.0, 1.0]);
    }

    /// Deterministic matrix with a tunable fraction of exact zeros (the
    /// ReLU-sparse pattern the zero-skip fast path exists for).
    fn matrix_with_zeros(rows: usize, cols: usize, seed: u64, zero_mod: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(seed);
            let x = x ^ (x >> 29);
            if zero_mod > 0 && x.is_multiple_of(zero_mod) {
                0.0
            } else {
                ((x % 2000) as f32 - 1000.0) / 333.0
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    // Property tests of the determinism contract: the blocked kernels
    // are bitwise identical to the reference kernels for arbitrary
    // shapes (empty ones included) and contents; the reference kernels'
    // zero-skip is bitwise neutral (the blocked kernels have no skip, so
    // agreement on zero-heavy operands *is* the neutrality proof); and
    // results are invariant across tile sizes and executor widths.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Blocked == reference, bitwise, for every GEMM variant — across
        /// random shapes, zero densities (zero-skip neutrality), and tile
        /// sizes.
        #[test]
        fn blocked_gemms_match_reference_bitwise_across_tiles(
            m in 0usize..40,
            k in 0usize..70,
            n in 0usize..40,
            seed in 0u64..1_000,
            zero_mod in 0u64..5, // 0 = dense, 2 = half zeros, …
            kc in 1usize..80,
            chunk in 1usize..40,
        ) {
            let a = matrix_with_zeros(m, k, seed, zero_mod);
            let b = matrix_with_zeros(k, n, seed ^ 1, zero_mod);
            let at = matrix_with_zeros(k, m, seed ^ 2, zero_mod);
            let bt = matrix_with_zeros(n, k, seed ^ 3, zero_mod);
            prop_assert_eq!(
                bits(&matmul_with_tiles(&a, &b, kc, chunk)),
                bits(&reference_matmul(&a, &b)),
                "matmul {}x{}x{} kc={} chunk={}", m, k, n, kc, chunk
            );
            prop_assert_eq!(
                bits(&t_matmul_with_tiles(&at, &b, kc, chunk)),
                bits(&reference_t_matmul(&at, &b)),
                "t_matmul {}x{}x{} kc={} chunk={}", m, k, n, kc, chunk
            );
            prop_assert_eq!(
                bits(&matmul_t_with_tiles(&a, &bt, chunk, mt_b_block_rows(k))),
                bits(&reference_matmul_t(&a, &bt)),
                "matmul_t {}x{}x{} chunk={}", m, k, n, chunk
            );
        }

        /// `matmul_t`'s register and cache blocks: blocked == reference,
        /// bitwise, with the B cache block swept from past `n` down to
        /// one row, so every block boundary is crossed along with every
        /// register-block tail — `rows % MT_R`, `n % MT_C`, `k % 8 ≠ 0`,
        /// `k < 8` and `k = 0`.
        #[test]
        fn matmul_t_blocks_match_reference_bitwise(
            m in 0usize..20,
            k in 0usize..40,
            n in 0usize..24,
            seed in 0u64..1_000,
            zero_mod in 0u64..4,
            chunk in 1usize..20,
        ) {
            let a = matrix_with_zeros(m, k, seed ^ 41, zero_mod);
            let bt = matrix_with_zeros(n, k, seed ^ 42, zero_mod);
            let want = bits(&reference_matmul_t(&a, &bt));
            for b_block in (1..=n + 1).rev() {
                prop_assert_eq!(
                    &bits(&matmul_t_with_tiles(&a, &bt, chunk, b_block)),
                    &want,
                    "matmul_t {}x{}x{} chunk={} b_block={}", m, k, n, chunk, b_block
                );
            }
        }

        /// The dispatched `_into` kernels equal the reference kernels
        /// bitwise (empty shapes included) and are invariant across
        /// executor widths — the `LAZYDP_THREADS` leg of the determinism
        /// contract, including zero-heavy operands.
        #[test]
        fn dispatched_gemms_are_thread_count_invariant(
            m in 0usize..48,
            k in 0usize..64,
            n in 0usize..48,
            seed in 0u64..1_000,
            zero_mod in 0u64..4,
        ) {
            let a = matrix_with_zeros(m, k, seed, zero_mod);
            let b = matrix_with_zeros(k, n, seed ^ 5, zero_mod);
            let at = matrix_with_zeros(k, m, seed ^ 6, zero_mod);
            let bt = matrix_with_zeros(n, k, seed ^ 7, zero_mod);
            let run = || {
                let (mut mm, mut tm, mut mt) = (Matrix::default(), Matrix::default(), Matrix::default());
                a.matmul_into(&b, &mut mm);
                at.t_matmul_into(&b, &mut tm);
                a.matmul_t_into(&bt, &mut mt);
                [bits(&mm), bits(&tm), bits(&mt)]
            };
            let initial = lazydp_exec::global_threads();
            lazydp_exec::set_global_threads(1);
            let base = run();
            prop_assert_eq!(
                &base,
                &[
                    bits(&reference_matmul(&a, &b)),
                    bits(&reference_t_matmul(&at, &b)),
                    bits(&reference_matmul_t(&a, &bt)),
                ],
                "{}x{}x{} vs reference", m, k, n
            );
            for threads in [2usize, 3, 8] {
                lazydp_exec::set_global_threads(threads);
                prop_assert_eq!(&base, &run(), "{} threads", threads);
            }
            lazydp_exec::set_global_threads(initial);
        }

        /// The fused scale-in-the-epilogue weight-gradient kernel: blocked
        /// == reference, bitwise, across shapes, clip-factor contents
        /// (including all-zero and all-one weights), zero densities, and
        /// tile sizes.
        #[test]
        fn scaled_t_matmul_matches_reference_bitwise_across_tiles(
            k in 0usize..70,
            m in 0usize..40,
            n in 0usize..40,
            seed in 0u64..1_000,
            zero_mod in 0u64..5,
            kc in 1usize..80,
            chunk in 1usize..40,
            wkind in 0u8..4, // 0 = mixed, 1 = all ones, 2 = all zeros, 3 = tiny
        ) {
            let at = matrix_with_zeros(k, m, seed ^ 11, zero_mod);
            let b = matrix_with_zeros(k, n, seed ^ 12, zero_mod);
            let w: Vec<f32> = (0..k).map(|i| match wkind {
                1 => 1.0,
                2 => 0.0,
                3 => 1e-4,
                _ => ((i as u64).wrapping_mul(seed | 1) % 17) as f32 / 16.0,
            }).collect();
            prop_assert_eq!(
                bits(&t_matmul_scaled_with_tiles(&at, &b, &w, kc, chunk)),
                bits(&reference_t_matmul_scaled(&at, &b, &w)),
                "t_matmul_scaled {}x{}x{} kc={} chunk={} wkind={}", k, m, n, kc, chunk, wkind
            );
        }

        /// The 2-D macro-tile driver is bitwise identical to the row-split
        /// driver (and therefore to the reference kernels) for arbitrary
        /// row/column blockings of both the plain and the scaled GEMM.
        #[test]
        fn macro_tiled_drivers_match_row_driver_bitwise(
            m in 0usize..40,
            k in 0usize..64,
            n in 0usize..48,
            seed in 0u64..1_000,
            zero_mod in 0u64..4,
            kc in 1usize..70,
            row_block in 1usize..40,
            col_block in 1usize..48,
        ) {
            let a = matrix_with_zeros(m, k, seed ^ 21, zero_mod);
            let b = matrix_with_zeros(k, n, seed ^ 22, zero_mod);
            prop_assert_eq!(
                bits(&matmul_macro_tiled(&a, &b, kc, row_block, col_block)),
                bits(&reference_matmul(&a, &b)),
                "macro matmul {}x{}x{} kc={} rb={} cb={}", m, k, n, kc, row_block, col_block
            );
            let at = matrix_with_zeros(k, m, seed ^ 23, zero_mod);
            let w: Vec<f32> = (0..k).map(|i| ((i as u64).wrapping_mul(3) % 13) as f32 / 12.0).collect();
            prop_assert_eq!(
                bits(&t_matmul_scaled_macro_tiled(&at, &b, &w, kc, row_block, col_block)),
                bits(&reference_t_matmul_scaled(&at, &b, &w)),
                "macro scaled {}x{}x{} kc={} rb={} cb={}", m, k, n, kc, row_block, col_block
            );
        }

        /// The scaled dispatched kernel is bitwise invariant across
        /// executor widths, like the plain kernels.
        #[test]
        fn scaled_dispatch_is_thread_count_invariant(
            k in 0usize..64,
            m in 0usize..40,
            n in 0usize..40,
            seed in 0u64..1_000,
            zero_mod in 0u64..4,
        ) {
            let at = matrix_with_zeros(k, m, seed ^ 31, zero_mod);
            let b = matrix_with_zeros(k, n, seed ^ 32, zero_mod);
            let w: Vec<f32> = (0..k).map(|i| ((i * 5) % 9) as f32 / 8.0).collect();
            let run = || {
                let mut out = Matrix::default();
                at.t_matmul_scaled_into(&b, &w, &mut out);
                bits(&out)
            };
            let initial = lazydp_exec::global_threads();
            lazydp_exec::set_global_threads(1);
            let base = run();
            for threads in [2usize, 3, 8] {
                lazydp_exec::set_global_threads(threads);
                prop_assert_eq!(&base, &run(), "t_matmul_scaled, {} threads", threads);
            }
            lazydp_exec::set_global_threads(initial);
        }

        /// Explicit zero-skip neutrality: the reference kernel (which
        /// skips zeros) and the blocked kernel (which multiplies through
        /// them) agree bit-for-bit when a whole contraction column of A
        /// is zero.
        #[test]
        fn zero_rows_and_columns_are_bitwise_neutral(
            m in 0usize..24,
            k in 2usize..40,
            n in 0usize..24,
            seed in 0u64..1_000,
            zero_row in 0usize..40,
        ) {
            let mut a = matrix_with_zeros(m, k, seed, 0);
            let zr = zero_row % k;
            // Zero one whole contraction slice: column `zr` of A.
            for i in 0..m {
                a.row_mut(i)[zr] = 0.0;
            }
            let b = matrix_with_zeros(k, n, seed ^ 9, 3);
            prop_assert_eq!(
                bits(&matmul_with_tiles(&a, &b, 16, 8)),
                bits(&reference_matmul(&a, &b)),
                "zeroed contraction column {} of {}", zr, k
            );
        }
    }
}
