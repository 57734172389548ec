//! Roofline pricing of the primitive kernels.
//!
//! Each function returns seconds for one kernel invocation under a
//! [`SystemSpec`]. The central abstraction is the paper's own
//! microbenchmark (§4.3, Fig. 6): a kernel that loads a vector, performs
//! `N` AVX compute instructions on it, and stores it back runs at
//! `time = max(compute, memory)` — compute-bound for large `N` (noise
//! sampling, N = 101), memory-bound for small `N` (noisy gradient
//! update, N = 2).

use crate::spec::SystemSpec;

/// AVX compute instructions per 8-wide vector for Box–Muller noise
/// sampling (paper §4.3). Kept numerically identical to
/// `lazydp_rng::gaussian::BOX_MULLER_AVX_OPS_PER_VECTOR`; a cross-crate
/// test in `lazydp_bench` asserts they match.
pub const NOISE_SAMPLING_AVX_OPS: u32 = 101;

/// AVX compute instructions per element for the noisy-gradient update
/// stream (§4.3: multiply by learning rate, add to weight).
pub const UPDATE_AVX_OPS: u32 = 2;

/// Time of a streaming kernel over `elements` f32 values performing
/// `flops_per_elem` compute per element and moving `bytes_per_elem`
/// to/from DRAM.
#[must_use]
pub fn stream_time(
    spec: &SystemSpec,
    elements: u64,
    flops_per_elem: u32,
    bytes_per_elem: u32,
) -> f64 {
    let e = elements as f64;
    let compute = e * f64::from(flops_per_elem) / spec.avx_eff_flops();
    let memory = e * f64::from(bytes_per_elem) / spec.stream_bw();
    compute.max(memory)
}

/// Time to draw `count` Gaussian samples with the Box–Muller kernel:
/// `N = 101` compute ops per element, 8 bytes of traffic per element
/// (RNG state in, sample out). Strongly compute-bound (Fig. 6).
#[must_use]
pub fn gaussian_time(spec: &SystemSpec, count: u64) -> f64 {
    stream_time(spec, count, NOISE_SAMPLING_AVX_OPS, 8)
}

/// Time of the dense noisy-gradient update over `elements` weights:
/// read noisy gradient + read weight + write weight = 12 B/element,
/// 2 flops/element. Memory-bound (§4.3).
#[must_use]
pub fn dense_update_time(spec: &SystemSpec, elements: u64) -> f64 {
    stream_time(spec, elements, UPDATE_AVX_OPS, 12)
}

/// Time to randomly gather (or scatter) `rows` rows of `row_bytes`
/// bytes each — row-granular accesses at the degraded random-access
/// bandwidth.
#[must_use]
pub fn gather_time(spec: &SystemSpec, rows: u64, row_bytes: u64) -> f64 {
    (rows as f64) * (row_bytes as f64) / spec.gather_bw()
}

/// Read-modify-write scatter of `rows` rows (twice the traffic of a
/// gather).
#[must_use]
pub fn scatter_time(spec: &SystemSpec, rows: u64, row_bytes: u64) -> f64 {
    2.0 * gather_time(spec, rows, row_bytes)
}

/// Time of a GEMM with `flops` floating-point operations on the GPU.
#[must_use]
pub fn gemm_time(spec: &SystemSpec, flops: u64) -> f64 {
    (flops as f64) / spec.gemm_flops()
}

/// Time to move `bytes` across PCIe.
#[must_use]
pub fn pcie_time(spec: &SystemSpec, bytes: u64) -> f64 {
    (bytes as f64) / spec.pcie_bw()
}

/// The Fig. 6 microbenchmark curve: effective AVX throughput (GFLOPS)
/// when performing `n_ops` AVX compute instructions per loaded+stored
/// 8-float vector.
///
/// Rises linearly while memory-bound, then saturates at the effective
/// AVX peak. Noise sampling sits at `n_ops = 101` (compute-bound, ≈ 215
/// GFLOPS); the update kernel at `n_ops = 2` (memory-bound).
#[must_use]
pub fn effective_avx_gflops(spec: &SystemSpec, n_ops: u32) -> f64 {
    if n_ops == 0 {
        return 0.0;
    }
    // Per the paper's counting, one AVX instruction over 8 lanes = 8
    // flops; the microbenchmark loads and stores one 32-byte vector.
    let flops_per_vector = f64::from(n_ops) * 8.0;
    let bytes_per_vector = 64.0; // 32 B load + 32 B store
    let compute = flops_per_vector / spec.avx_eff_flops();
    let memory = bytes_per_vector / spec.stream_bw();
    let time = compute.max(memory);
    flops_per_vector / time / 1e9
}

/// Lookup count up to which dedup pays the dispatch-heavy first-tier
/// rate; beyond it the amortized bulk rate applies.
pub const DEDUP_TIER_LOOKUPS: u64 = 100_000;

/// Sorting/deduplication cost for `lookups` indices (`torch.unique`
/// style): dispatch-heavy up to [`DEDUP_TIER_LOOKUPS`], amortized
/// hash/radix cost beyond (both calibrated — see `HostSpec`).
#[must_use]
pub fn dedup_time(spec: &SystemSpec, lookups: u64) -> f64 {
    let tier1 = lookups.min(DEDUP_TIER_LOOKUPS) as f64;
    let bulk = lookups.saturating_sub(DEDUP_TIER_LOOKUPS) as f64;
    tier1 * spec.host.dedup_per_lookup_s + bulk * spec.host.dedup_per_lookup_bulk_s
}

/// HistoryTable maintenance for `unique_rows` rows: read + ANS std-dev
/// derivation, then write-back (calibrated per-row costs).
#[must_use]
pub fn history_time(spec: &SystemSpec, unique_rows: u64) -> (f64, f64) {
    (
        (unique_rows as f64) * spec.host.history_read_per_row_s,
        (unique_rows as f64) * spec.host.history_write_per_row_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;

    #[test]
    fn noise_sampling_is_compute_bound_at_paper_rate() {
        let s = SystemSpec::paper_default();
        // §4.3: noise sampling achieves ≈ 215 GFLOPS (81% of peak).
        let g = effective_avx_gflops(&s, NOISE_SAMPLING_AVX_OPS);
        assert!((g - 214.65).abs() < 2.0, "N=101 effective {g} GFLOPS");
        // Per-element time dominated by compute:
        let t = gaussian_time(&s, 1_000_000);
        let compute_only = 1e6 * 101.0 / s.avx_eff_flops();
        assert!((t - compute_only).abs() / compute_only < 1e-9);
    }

    #[test]
    fn update_kernel_is_memory_bound() {
        let s = SystemSpec::paper_default();
        let t = dense_update_time(&s, 1_000_000);
        let memory_only = 1e6 * 12.0 / s.stream_bw();
        assert!((t - memory_only).abs() / memory_only < 1e-9);
        // §4.3: at N = 2 the kernel reaches only a sliver of AVX peak.
        let g = effective_avx_gflops(&s, UPDATE_AVX_OPS);
        assert!(g < 30.0, "N=2 effective {g} GFLOPS must be memory-bound");
    }

    #[test]
    fn fig6_curve_shape() {
        let s = SystemSpec::paper_default();
        // Monotone non-decreasing, linear ramp then plateau.
        let mut prev = 0.0;
        for n in 0..=124u32 {
            let g = effective_avx_gflops(&s, n);
            assert!(g + 1e-9 >= prev, "curve must be non-decreasing at N={n}");
            prev = g;
        }
        // Plateau = effective peak.
        let plateau = effective_avx_gflops(&s, 124);
        assert!((plateau - s.avx_eff_flops() / 1e9).abs() < 1.0);
        // Ramp region: N=1 throughput set by memory.
        let ramp = effective_avx_gflops(&s, 1);
        assert!((ramp - 8.0 / (64.0 / s.stream_bw()) / 1e9).abs() < 0.5);
    }

    #[test]
    fn paper_96gb_model_update_fractions() {
        // §4.2: at the default 96 GB model, noise sampling + noisy
        // gradient update = 83.1% of the model-update stage (the rest
        // being noisy-gradient generation and bookkeeping).
        let s = SystemSpec::paper_default();
        let elements: u64 = 187_727_727 * 128; // ≈ the 26 Criteo tables × dim
        let sampling = gaussian_time(&s, elements);
        let gen = stream_time(&s, elements, 1, 8);
        let update = dense_update_time(&s, elements);
        let frac = (sampling + update) / (sampling + gen + update);
        assert!((frac - 0.831).abs() < 0.01, "fraction {frac}");
        // And sampling alone dominates (the compute wall).
        assert!(sampling > update && update > gen);
    }

    #[test]
    fn gather_slower_than_stream_per_byte() {
        let s = SystemSpec::paper_default();
        let bytes = 512u64 * 1000;
        let g = gather_time(&s, 1000, 512);
        let st = stream_time(&s, bytes / 4, 0, 4);
        assert!(g > st, "random rows must cost more than streaming");
        assert!(scatter_time(&s, 1000, 512) > g);
    }

    #[test]
    fn gemm_and_pcie_scale_linearly() {
        let s = SystemSpec::paper_default();
        assert!((gemm_time(&s, 2_000_000) / gemm_time(&s, 1_000_000) - 2.0).abs() < 1e-9);
        assert!((pcie_time(&s, 2_000_000) / pcie_time(&s, 1_000_000) - 2.0).abs() < 1e-9);
    }
}
