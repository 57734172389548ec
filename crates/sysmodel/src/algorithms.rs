//! Per-algorithm iteration models: op counts → stage latencies → energy.
//!
//! The op-count formulas here mirror, one for one, the instrumented
//! kernels of `lazydp-dpsgd` / `lazydp-core` (cross-validated in
//! `lazydp_bench`): e.g. eager DP-SGD draws `total_rows × dim` Gaussians
//! and streams the whole table, LazyDP draws `unique_next × dim` (with
//! ANS) and scatters `unique_cur + unique_next` rows.

use crate::breakdown::StageBreakdown;
use crate::kernels::{
    dedup_time, dense_update_time, gather_time, gaussian_time, gemm_time, history_time, pcie_time,
    scatter_time, stream_time,
};
use crate::spec::SystemSpec;
use crate::workload::Workload;
use std::fmt;

/// The training algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Non-private SGD (the normalization baseline).
    Sgd,
    /// DP-SGD(B): materialized per-example gradients.
    DpSgdB,
    /// DP-SGD(R): reweighted two-pass DP-SGD.
    DpSgdR,
    /// DP-SGD(F): ghost-norm DP-SGD (the strongest eager baseline).
    DpSgdF,
    /// EANA: noise on accessed rows only (weaker privacy).
    Eana,
    /// LazyDP with or without aggregated noise sampling.
    LazyDp {
        /// Whether ANS (§5.2.2) is enabled.
        ans: bool,
    },
}

impl Algorithm {
    /// The paper's display name.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Sgd => "SGD",
            Self::DpSgdB => "DP-SGD(B)",
            Self::DpSgdR => "DP-SGD(R)",
            Self::DpSgdF => "DP-SGD(F)",
            Self::Eana => "EANA",
            Self::LazyDp { ans: true } => "LazyDP",
            Self::LazyDp { ans: false } => "LazyDP(w/o ANS)",
        }
    }
}

/// Out-of-memory verdict from the capacity model (Fig. 13(a): DP-SGD(F)
/// OOMs at 192 GB because the dense noisy gradient doubles the
/// footprint past the 256 GB DRAM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Which memory pool overflowed ("CPU DRAM" / "GPU HBM").
    pub pool: &'static str,
    /// Bytes required.
    pub required: u64,
    /// Bytes available.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: {} needs {:.1} GB but has {:.1} GB",
            self.pool,
            self.required as f64 / 1e9,
            self.capacity as f64 / 1e9
        )
    }
}

impl std::error::Error for OomError {}

/// The result of pricing one training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEstimate {
    /// Stage latencies (seconds).
    pub breakdown: StageBreakdown,
    /// Energy per iteration (joules), from the power-state model.
    pub energy_j: f64,
    /// CPU DRAM footprint (bytes).
    pub cpu_dram_bytes: u64,
    /// GPU HBM footprint (bytes).
    pub gpu_hbm_bytes: u64,
}

impl IterationEstimate {
    /// Average power (W) over the iteration.
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        self.energy_j / self.breakdown.total()
    }
}

/// CPU DRAM footprint of `alg` on `wl` (embeddings live on the CPU,
/// §2.2).
#[must_use]
pub fn cpu_dram_bytes(alg: Algorithm, wl: &Workload) -> u64 {
    let emb = wl.config.embedding_bytes();
    match alg {
        Algorithm::Sgd => emb + emb / 100,
        // Eager DP-SGD materializes a dense noisy-gradient tensor the
        // size of the full embedding table (§4.1 / Fig. 13(a) OOM).
        Algorithm::DpSgdB | Algorithm::DpSgdR | Algorithm::DpSgdF => 2 * emb + emb / 100,
        Algorithm::Eana => emb + emb / 100,
        Algorithm::LazyDp { .. } => {
            // + HistoryTable (4 B/row) + prefetched batch.
            emb + wl.config.total_rows() * 4 + wl.total_lookups() * 4 + emb / 100
        }
    }
}

/// GPU HBM footprint (MLPs + activations; DP-SGD(B) adds per-example
/// gradient storage, §2.5).
#[must_use]
pub fn gpu_hbm_bytes(alg: Algorithm, wl: &Workload) -> u64 {
    let mlp = wl.mlp_params() * 4;
    let act_width: u64 = (wl.config.bottom_layers.iter().sum::<usize>()
        + wl.config.top_layers.iter().sum::<usize>()
        + wl.config.top_input_dim()) as u64;
    let acts = wl.batch as u64 * act_width * 4;
    let base = 3 * mlp + 2 * acts;
    match alg {
        Algorithm::DpSgdB => base + wl.batch as u64 * mlp,
        _ => base,
    }
}

/// Prices one training iteration of `alg` on `wl` under `spec`.
///
/// # Errors
///
/// Returns [`OomError`] when the capacity model says the configuration
/// cannot run (the Fig. 13(a) "OOM" bar).
pub fn estimate(
    alg: Algorithm,
    wl: &Workload,
    spec: &SystemSpec,
) -> Result<IterationEstimate, OomError> {
    let cpu_need = cpu_dram_bytes(alg, wl);
    if cpu_need > spec.cpu.dram_capacity_bytes {
        return Err(OomError {
            pool: "CPU DRAM",
            required: cpu_need,
            capacity: spec.cpu.dram_capacity_bytes,
        });
    }
    let gpu_need = gpu_hbm_bytes(alg, wl);
    if gpu_need > spec.gpu.hbm_capacity_bytes {
        return Err(OomError {
            pool: "GPU HBM",
            required: gpu_need,
            capacity: spec.gpu.hbm_capacity_bytes,
        });
    }

    let b = wl.batch as f64;
    let dim = wl.config.embedding_dim as u64;
    let row_bytes = wl.row_bytes();
    let fwd_flops = wl.forward_gemm_flops();
    let lookups = wl.total_lookups();
    let unique = wl.total_expected_unique();
    let emb_elems = wl.embedding_elements();
    let mlp_params = wl.mlp_params();

    // ---- Stages common to all algorithms -------------------------------
    let fwd = gemm_time(spec, fwd_flops)
        + gather_time(spec, lookups, row_bytes)
        + pcie_time(spec, wl.pcie_bytes_one_way());
    // Standard per-batch backward: activation+weight GEMMs ≈ 2× forward,
    // plus returning pooled-embedding gradients over PCIe.
    let bwd_batch_base = gemm_time(spec, 2 * fwd_flops) + pcie_time(spec, wl.pcie_bytes_one_way());
    let other_base = spec.host.fixed_per_iter_s
        + b * spec.host.per_sample_s
        + lookups as f64 * spec.host.per_lookup_s;

    let mut s = StageBreakdown {
        fwd,
        other: if alg == Algorithm::Sgd {
            other_base
        } else {
            other_base + spec.host.dp_fixed_per_iter_s
        },
        ..Default::default()
    };

    match alg {
        Algorithm::Sgd => {
            s.bwd_per_batch = bwd_batch_base;
            s.grad_coalesce = dedup_time(spec, lookups);
            s.noisy_grad_update = scatter_time(spec, unique.ceil() as u64, row_bytes)
                + stream_time(spec, mlp_params, 2, 12);
        }
        Algorithm::DpSgdB | Algorithm::DpSgdR | Algorithm::DpSgdF => {
            match alg {
                Algorithm::DpSgdB => {
                    // Materialize per-example weight grads: the weight
                    // GEMMs plus writing+reading B×params on HBM, plus
                    // the per-sample hook overhead of Opacus.
                    s.bwd_per_example = gemm_time(spec, 2 * fwd_flops)
                        + (b * mlp_params as f64 * 4.0 * 2.0) / (spec.gpu.hbm_bw_gbs * 1e9)
                        + b * spec.host.dp_per_example_per_sample_s;
                    s.bwd_per_batch = bwd_batch_base;
                }
                Algorithm::DpSgdR => {
                    // Norm pass (recomputes per-example grads without
                    // storing) + reweighted pass.
                    s.bwd_per_example =
                        gemm_time(spec, 2 * fwd_flops) + b * spec.host.dp_reweighted_per_sample_s;
                    s.bwd_per_batch = bwd_batch_base;
                }
                _ => {
                    // DP-SGD(F): ghost-norm pass (activation-grad chain
                    // only ≈ 1× forward flops) + reweighted pass.
                    s.bwd_per_example =
                        gemm_time(spec, fwd_flops) + b * spec.host.dp_fast_per_sample_s;
                    s.bwd_per_batch = bwd_batch_base;
                }
            }
            s.grad_coalesce = dedup_time(spec, lookups);
            // Dense noisy update over the whole table (§4): the three
            // sub-stages of Fig. 5.
            s.noise_sampling = gaussian_time(spec, emb_elems + mlp_params);
            s.noisy_grad_gen = stream_time(spec, emb_elems, 1, 8);
            s.noisy_grad_update =
                dense_update_time(spec, emb_elems) + stream_time(spec, mlp_params, 2, 12);
        }
        Algorithm::Eana => {
            s.bwd_per_example = gemm_time(spec, fwd_flops) + b * spec.host.dp_fast_per_sample_s;
            s.bwd_per_batch = bwd_batch_base;
            s.grad_coalesce = dedup_time(spec, lookups);
            let touched = unique.ceil() as u64;
            s.noise_sampling = gaussian_time(spec, touched * dim + mlp_params);
            s.noisy_grad_gen = stream_time(spec, touched * dim, 1, 8);
            s.noisy_grad_update =
                scatter_time(spec, touched, row_bytes) + stream_time(spec, mlp_params, 2, 12);
        }
        Algorithm::LazyDp { ans } => {
            s.bwd_per_example = gemm_time(spec, fwd_flops) + b * spec.host.dp_fast_per_sample_s;
            s.bwd_per_batch = bwd_batch_base;
            // Coalesce the gradient AND dedup the next batch's indices.
            s.grad_coalesce = dedup_time(spec, 2 * lookups);
            let unique_rows = unique.ceil() as u64;
            // Noise: with ANS one draw per next-unique row; without it
            // the *per-iteration steady-state* draw count equals eager
            // DP-SGD's (§5.2.2: every deferred iteration still owes one
            // draw, so totals are conserved).
            let noise_draws = if ans { unique_rows * dim } else { emb_elems };
            s.noise_sampling = gaussian_time(spec, noise_draws + mlp_params);
            s.noisy_grad_gen = stream_time(spec, 2 * unique_rows * dim, 1, 8);
            // Scatter: current batch's gradient rows + next batch's
            // noise rows.
            s.noisy_grad_update = scatter_time(spec, 2 * unique_rows, row_bytes)
                + stream_time(spec, mlp_params, 2, 12);
            let (hr, hw) = history_time(spec, unique_rows);
            s.history_read = hr;
            s.history_write = hw;
        }
    }

    let energy_j = energy(&s, spec);
    Ok(IterationEstimate {
        breakdown: s,
        energy_j,
        cpu_dram_bytes: cpu_need,
        gpu_hbm_bytes: gpu_need,
    })
}

/// Power-state energy model (Fig. 12 methodology: stage time × stage
/// power, CPU + GPU).
#[must_use]
pub fn energy(s: &StageBreakdown, spec: &SystemSpec) -> f64 {
    let p = &spec.power;
    let gpu_heavy = s.fwd + s.bwd_per_example + s.bwd_per_batch;
    let cpu_avx = s.noise_sampling;
    let cpu_stream =
        s.noisy_grad_gen + s.noisy_grad_update + s.grad_coalesce + s.history_read + s.history_write;
    let idle = s.other;
    gpu_heavy * (p.cpu_stream_w + p.gpu_active_w)
        + cpu_avx * (p.cpu_avx_w + p.gpu_idle_w)
        + cpu_stream * (p.cpu_stream_w + p.gpu_idle_w)
        + idle * (p.cpu_idle_w + p.gpu_idle_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::SkewLevel;
    use lazydp_model::DlrmConfig;

    fn spec() -> SystemSpec {
        SystemSpec::paper_default()
    }

    fn ratio(alg: Algorithm, wl: &Workload) -> f64 {
        let sgd = estimate(Algorithm::Sgd, wl, &spec())
            .expect("sgd fits")
            .breakdown
            .total();
        let t = estimate(alg, wl, &spec()).expect("fits").breakdown.total();
        t / sgd
    }

    #[test]
    fn headline_fig10_ratios() {
        // Paper Fig. 10 at batch 2048, 96 GB model: DP-SGD(F) ≈ 259×
        // SGD, LazyDP(w/o ANS) ≈ 151×, LazyDP ≈ 2.2×.
        let wl = Workload::mlperf_default(2048);
        let f = ratio(Algorithm::DpSgdF, &wl);
        assert!(
            (200.0..330.0).contains(&f),
            "DP-SGD(F)/SGD = {f}, expect ≈ 259"
        );
        let wo = ratio(Algorithm::LazyDp { ans: false }, &wl);
        assert!((100.0..200.0).contains(&wo), "w/o ANS = {wo}, expect ≈ 151");
        let lazy = ratio(Algorithm::LazyDp { ans: true }, &wl);
        assert!(
            (1.5..3.2).contains(&lazy),
            "LazyDP/SGD = {lazy}, expect ≈ 2.2"
        );
        // §7.1: LazyDP speedup over DP-SGD(F) is 85–155×.
        let speedup = f / lazy;
        assert!(
            (60.0..180.0).contains(&speedup),
            "speedup {speedup}, expect ≈ 119"
        );
    }

    #[test]
    fn sgd_batch_scaling_matches_fig10() {
        // Fig. 10: SGD at 1024/2048/4096 ≈ 0.7/1.0/1.5 (norm. to 2048).
        let t = |b: usize| {
            estimate(Algorithm::Sgd, &Workload::mlperf_default(b), &spec())
                .expect("fits")
                .breakdown
                .total()
        };
        let t2048 = t(2048);
        let r1024 = t(1024) / t2048;
        let r4096 = t(4096) / t2048;
        assert!((0.6..0.85).contains(&r1024), "1024 ratio {r1024}");
        assert!((1.35..1.75).contains(&r4096), "4096 ratio {r4096}");
    }

    #[test]
    fn fig3_ordering_and_convergence() {
        // B ≥ R ≥ F always; the gap shrinks as the table grows (§4.1).
        let gap_at = |div: u64| {
            let wl = Workload::mlperf_default(2048).with_config(DlrmConfig::mlperf(div));
            let b = estimate(Algorithm::DpSgdB, &wl, &spec())
                .expect("fits")
                .breakdown
                .total();
            let r = estimate(Algorithm::DpSgdR, &wl, &spec())
                .expect("fits")
                .breakdown
                .total();
            let f = estimate(Algorithm::DpSgdF, &wl, &spec())
                .expect("fits")
                .breakdown
                .total();
            assert!(b >= r && r >= f, "ordering violated at div {div}");
            b / f
        };
        let gap_small = gap_at(1000); // 96 MB
        let gap_large = gap_at(1); // 96 GB
        assert!(gap_small > 1.5, "visible gap at 96 MB: {gap_small}");
        assert!(gap_large < 1.1, "gap nearly gone at 96 GB: {gap_large}");
    }

    #[test]
    fn fig13a_linear_scaling_and_oom() {
        // DP-SGD(F) scales ∝ table size (68.3/129.2/259.2 at 24/48/96 GB)
        // and OOMs at 192 GB; SGD and LazyDP stay flat and fit.
        let at = |mult: u64, div: u64| -> Workload {
            let mut cfg = DlrmConfig::mlperf(div);
            if mult > 1 {
                cfg = cfg
                    .clone()
                    .with_table_rows(cfg.table_rows.iter().map(|&r| r * mult).collect());
            }
            Workload::mlperf_default(2048).with_config(cfg)
        };
        let f24 = ratio(Algorithm::DpSgdF, &at(1, 4));
        let f48 = ratio(Algorithm::DpSgdF, &at(1, 2));
        let f96 = ratio(Algorithm::DpSgdF, &at(1, 1));
        assert!(
            f48 / f24 > 1.7 && f48 / f24 < 2.2,
            "24→48 doubling: {}",
            f48 / f24
        );
        assert!(
            f96 / f48 > 1.7 && f96 / f48 < 2.2,
            "48→96 doubling: {}",
            f96 / f48
        );
        // 192 GB: eager OOMs, LazyDP and SGD fit.
        let wl192 = at(2, 1);
        assert!(
            estimate(Algorithm::DpSgdF, &wl192, &spec()).is_err(),
            "DP-SGD(F) must OOM"
        );
        assert!(estimate(Algorithm::LazyDp { ans: true }, &wl192, &spec()).is_ok());
        assert!(estimate(Algorithm::Sgd, &wl192, &spec()).is_ok());
        // LazyDP flat across sizes (0.9..2.3 band in the paper).
        let l24 = ratio(Algorithm::LazyDp { ans: true }, &at(1, 4));
        let l96 = ratio(Algorithm::LazyDp { ans: true }, &at(1, 1));
        assert!(
            (l96 - l24).abs() / l24 < 0.25,
            "LazyDP must stay flat: {l24} vs {l96}"
        );
    }

    #[test]
    fn fig13b_pooling_narrows_the_gap() {
        // Fig. 13(b): pooling 30 still gives ≈ 16.7× LazyDP speedup.
        let at = |pool: usize| {
            Workload::mlperf_default(2048).with_config(DlrmConfig::mlperf(1).with_pooling(pool))
        };
        let gap1 =
            ratio(Algorithm::DpSgdF, &at(1)) / ratio(Algorithm::LazyDp { ans: true }, &at(1));
        let gap30 =
            ratio(Algorithm::DpSgdF, &at(30)) / ratio(Algorithm::LazyDp { ans: true }, &at(30));
        assert!(gap30 < gap1, "pooling must narrow the gap");
        assert!(
            (8.0..40.0).contains(&gap30),
            "pool-30 gap {gap30}, expect ≈ 16.7"
        );
        // SGD itself slows with pooling (1.0 → 6.5 at pooling 30).
        let sgd1 = estimate(Algorithm::Sgd, &at(1), &spec())
            .expect("fits")
            .breakdown
            .total();
        let sgd30 = estimate(Algorithm::Sgd, &at(30), &spec())
            .expect("fits")
            .breakdown
            .total();
        let r = sgd30 / sgd1;
        assert!(
            (4.0..9.0).contains(&r),
            "SGD pooling-30 slowdown {r}, expect ≈ 6.5"
        );
    }

    #[test]
    fn fig13c_rmc_ordering() {
        // Fig. 13(c): DP-SGD(F)/SGD ratio is largest for RMC3 (big
        // tables, pooling 1) and smallest for RMC2 (heavy pooling).
        let wl = |cfg: DlrmConfig| Workload::mlperf_default(2048).with_config(cfg);
        let r1 = ratio(Algorithm::DpSgdF, &wl(DlrmConfig::rmc1(1)));
        let r2 = ratio(Algorithm::DpSgdF, &wl(DlrmConfig::rmc2(1)));
        let r3 = ratio(Algorithm::DpSgdF, &wl(DlrmConfig::rmc3(1)));
        assert!(r3 > r1 && r1 > r2, "RMC ordering: r1={r1} r2={r2} r3={r3}");
        // LazyDP stays within a few × of SGD on all three (paper:
        // 3.8/3.8/2.6).
        for cfg in [
            DlrmConfig::rmc1(1),
            DlrmConfig::rmc2(1),
            DlrmConfig::rmc3(1),
        ] {
            let l = ratio(Algorithm::LazyDp { ans: true }, &wl(cfg));
            assert!((1.2..6.0).contains(&l), "LazyDP RMC ratio {l}");
        }
    }

    #[test]
    fn fig13d_skew_helps_lazydp_not_dpsgd() {
        let wl = |skew| Workload::mlperf_default(2048).with_skew(skew);
        let lazy_random = estimate(
            Algorithm::LazyDp { ans: true },
            &wl(SkewLevel::Random),
            &spec(),
        )
        .expect("fits")
        .breakdown
        .total();
        let lazy_high = estimate(
            Algorithm::LazyDp { ans: true },
            &wl(SkewLevel::High),
            &spec(),
        )
        .expect("fits")
        .breakdown
        .total();
        assert!(lazy_high < lazy_random, "skew must shrink LazyDP's work");
        let f_random = estimate(Algorithm::DpSgdF, &wl(SkewLevel::Random), &spec())
            .expect("fits")
            .breakdown
            .total();
        let f_high = estimate(Algorithm::DpSgdF, &wl(SkewLevel::High), &spec())
            .expect("fits")
            .breakdown
            .total();
        assert!(
            (f_high - f_random).abs() / f_random < 0.02,
            "DP-SGD(F) must be skew-insensitive"
        );
    }

    #[test]
    fn fig14_eana_comparison() {
        // Fig. 14: LazyDP within 27–37% of EANA while keeping full DP.
        let wl = Workload::mlperf_default(2048);
        let eana = estimate(Algorithm::Eana, &wl, &spec())
            .expect("fits")
            .breakdown
            .total();
        let lazy = estimate(Algorithm::LazyDp { ans: true }, &wl, &spec())
            .expect("fits")
            .breakdown
            .total();
        let overhead = lazy / eana - 1.0;
        assert!(
            (0.05..0.6).contains(&overhead),
            "LazyDP vs EANA overhead {overhead}, expect ≈ 0.27–0.37"
        );
    }

    #[test]
    fn fig12_energy_ratio_exceeds_time_ratio() {
        // Fig. 12: DP-SGD(F) burns 353× the energy at 259× the time —
        // its average power is higher (AVX-saturated CPU phases).
        let wl = Workload::mlperf_default(2048);
        let sgd = estimate(Algorithm::Sgd, &wl, &spec()).expect("fits");
        let f = estimate(Algorithm::DpSgdF, &wl, &spec()).expect("fits");
        let time_ratio = f.breakdown.total() / sgd.breakdown.total();
        let energy_ratio = f.energy_j / sgd.energy_j;
        assert!(energy_ratio > time_ratio, "{energy_ratio} !> {time_ratio}");
        assert!(
            (1.1..1.7).contains(&(energy_ratio / time_ratio)),
            "power ratio {} (paper ≈ 1.36)",
            energy_ratio / time_ratio
        );
        // LazyDP energy stays within a few × of SGD (paper: 1.8–3.0 vs
        // 0.7–1.5).
        let lazy = estimate(Algorithm::LazyDp { ans: true }, &wl, &spec()).expect("fits");
        let lazy_ratio = lazy.energy_j / sgd.energy_j;
        assert!(
            (1.2..4.5).contains(&lazy_ratio),
            "LazyDP energy ratio {lazy_ratio}"
        );
    }

    #[test]
    fn lazydp_overhead_share_matches_fig11() {
        // Fig. 11: LazyDP's own overhead (dedup + HistoryTable) is ≈ 15%
        // of its end-to-end time, split ≈ 61/22/17.
        let wl = Workload::mlperf_default(2048);
        let lazy = estimate(Algorithm::LazyDp { ans: true }, &wl, &spec()).expect("fits");
        let share = lazy.breakdown.lazydp_overhead() / lazy.breakdown.total();
        assert!(
            (0.05..0.30).contains(&share),
            "overhead share {share}, expect ≈ 0.15"
        );
        let o = &lazy.breakdown;
        let total_oh = o.lazydp_overhead();
        let dedup_share = o.grad_coalesce / total_oh;
        assert!(
            (0.4..0.8).contains(&dedup_share),
            "dedup {dedup_share}, expect ≈ 0.61"
        );
        assert!(
            o.history_read > o.history_write,
            "read+std > write (22% vs 17%)"
        );
    }

    #[test]
    fn noise_reduction_factors_match_section_7_1() {
        // §7.1: LazyDP reduces noise-sampling latency ≈ 1081× and
        // noisy-update latency ≈ 418× vs DP-SGD(F).
        let wl = Workload::mlperf_default(2048);
        let f = estimate(Algorithm::DpSgdF, &wl, &spec())
            .expect("fits")
            .breakdown;
        let l = estimate(Algorithm::LazyDp { ans: true }, &wl, &spec())
            .expect("fits")
            .breakdown;
        let sampling_factor = f.noise_sampling / l.noise_sampling;
        let update_factor = f.noisy_grad_update / l.noisy_grad_update;
        assert!(
            (200.0..5000.0).contains(&sampling_factor),
            "sampling reduction {sampling_factor}, expect O(1000)"
        );
        assert!(
            (100.0..2000.0).contains(&update_factor),
            "update reduction {update_factor}, expect O(400)"
        );
    }

    #[test]
    fn dp_sgd_b_gpu_memory_blows_up_with_batch() {
        // §2.5: B×params per-example grads; at some batch size the HBM
        // capacity model must reject DP-SGD(B) while (F) still fits.
        let wl = Workload::mlperf_default(16_384);
        assert!(estimate(Algorithm::DpSgdB, &wl, &spec()).is_err());
        assert!(estimate(Algorithm::DpSgdF, &wl, &spec()).is_ok());
    }

    #[test]
    fn oom_error_is_informative() {
        let wl = Workload::mlperf_default(2048).with_config({
            let cfg = DlrmConfig::mlperf(1);
            let doubled = cfg.table_rows.iter().map(|&r| r * 2).collect();
            cfg.with_table_rows(doubled)
        });
        let err = estimate(Algorithm::DpSgdF, &wl, &spec()).expect_err("must OOM");
        assert_eq!(err.pool, "CPU DRAM");
        assert!(err.required > err.capacity);
        let msg = err.to_string();
        assert!(msg.contains("out of memory"), "{msg}");
    }
}
