//! One runner per paper artifact. Every runner prints our model's
//! prediction next to the value the paper reports (where the paper
//! quotes one), so EXPERIMENTS.md can be generated directly from
//! [`full_report`].

use crate::table::{fmt_ratio, fmt_seconds, Table};
use crate::xval;
use lazydp_data::SkewLevel;
use lazydp_model::DlrmConfig;
use lazydp_sysmodel::{
    effective_avx_gflops, estimate, Algorithm, IterationEstimate, SystemSpec, Workload,
};

fn spec() -> SystemSpec {
    SystemSpec::paper_default()
}

fn est(alg: Algorithm, wl: &Workload) -> Option<IterationEstimate> {
    estimate(alg, wl, &spec()).ok()
}

fn total(alg: Algorithm, wl: &Workload) -> Option<f64> {
    est(alg, wl).map(|e| e.breakdown.total())
}

/// SGD at the default workload (96 GB, batch 2048) — the universal
/// normalization baseline of the paper's figures.
fn sgd_baseline() -> f64 {
    total(Algorithm::Sgd, &Workload::mlperf_default(2048)).expect("SGD fits")
}

fn norm_cell(alg: Algorithm, wl: &Workload, base: f64) -> String {
    match total(alg, wl) {
        Some(t) => fmt_ratio(t / base),
        None => "OOM".to_owned(),
    }
}

/// Fig. 3: end-to-end training-time breakdown of SGD vs DP-SGD(B/R/F)
/// across embedding-table sizes.
#[must_use]
pub fn fig3() -> Table {
    let mut t = Table::new(
        "fig3",
        "Fig. 3 — SGD vs DP-SGD(B/R/F) end-to-end time across table sizes (normalized to SGD @ 96 GB)",
        &[
            "table size",
            "algorithm",
            "fwd",
            "bwd(per-example)",
            "bwd(per-batch)",
            "model update",
            "other",
            "total ×SGD",
        ],
    )
    .with_note(
        "Paper shape: DP-SGD time grows ~linearly with table size (≈ 260× SGD at 96 GB); \
         the B/R/F gap is visible at 96 MB and vanishes at 96 GB (< 0.3% in the paper) \
         because the dense noisy model update dominates everything.",
    );
    let base = sgd_baseline();
    let sizes: [(&str, u64); 4] = [
        ("96 MB", 1000),
        ("960 MB", 100),
        ("9.6 GB", 10),
        ("96 GB", 1),
    ];
    // The single SGD reference bar.
    let wl_sgd = Workload::mlperf_default(2048);
    if let Some(e) = est(Algorithm::Sgd, &wl_sgd) {
        let b = e.breakdown;
        t.push_row(vec![
            "96 GB".into(),
            "SGD".into(),
            fmt_seconds(b.fwd),
            fmt_seconds(b.bwd_per_example),
            fmt_seconds(b.bwd_per_batch),
            fmt_seconds(b.model_update()),
            fmt_seconds(b.other),
            fmt_ratio(b.total() / base),
        ]);
    }
    for (label, div) in sizes {
        let wl = Workload::mlperf_default(2048).with_config(DlrmConfig::mlperf(div));
        for alg in [Algorithm::DpSgdB, Algorithm::DpSgdR, Algorithm::DpSgdF] {
            if let Some(e) = est(alg, &wl) {
                let b = e.breakdown;
                t.push_row(vec![
                    label.into(),
                    alg.label().into(),
                    fmt_seconds(b.fwd),
                    fmt_seconds(b.bwd_per_example),
                    fmt_seconds(b.bwd_per_batch),
                    fmt_seconds(b.model_update()),
                    fmt_seconds(b.other),
                    fmt_ratio(b.total() / base),
                ]);
            }
        }
    }
    t
}

/// Fig. 5: model-update latency breakdown for DP-SGD across table sizes.
#[must_use]
pub fn fig5() -> Table {
    let mut t = Table::new(
        "fig5",
        "Fig. 5 — DP-SGD model-update latency breakdown vs table size",
        &[
            "table size",
            "noise sampling %",
            "noisy grad gen %",
            "noisy grad update %",
            "else %",
            "sampling+update %",
            "update latency (× 96 MB)",
        ],
    )
    .with_note(
        "Paper: noise sampling + noisy gradient update reach 83.1% of the model-update \
         stage at 96 GB; model-update latency grows ~linearly with table size.",
    );
    let sizes: [(&str, u64); 4] = [
        ("96 MB", 1000),
        ("960 MB", 100),
        ("9.6 GB", 10),
        ("96 GB", 1),
    ];
    let mut base_update = None;
    for (label, div) in sizes {
        let wl = Workload::mlperf_default(2048).with_config(DlrmConfig::mlperf(div));
        let b = est(Algorithm::DpSgdF, &wl).expect("fits").breakdown;
        let update_total = b.model_update();
        let else_t = update_total - b.noise_sampling - b.noisy_grad_gen - b.noisy_grad_update;
        let base = *base_update.get_or_insert(update_total);
        let pct = |x: f64| format!("{:.1}%", 100.0 * x / update_total);
        t.push_row(vec![
            label.into(),
            pct(b.noise_sampling),
            pct(b.noisy_grad_gen),
            pct(b.noisy_grad_update),
            pct(else_t),
            pct(b.noise_sampling + b.noisy_grad_update),
            fmt_ratio(update_total / base),
        ]);
    }
    t
}

/// Fig. 6: effective AVX throughput vs compute ops per loaded vector.
#[must_use]
pub fn fig6() -> Table {
    let mut t = Table::new(
        "fig6",
        "Fig. 6 — effective AVX throughput vs AVX compute ops per vector (roofline)",
        &["N (AVX ops)", "effective GFLOPS", "regime", "annotation"],
    )
    .with_note(
        "Paper: the Box–Muller noise-sampling kernel sits at N = 101 and achieves \
         ≈ 215 GFLOPS (81% of peak, compute-bound); the noisy-gradient update sits at \
         N = 2, deep in the memory-bound ramp. The harness measures the same two \
         kernels on the host: `rng.fill_dense_msamples_s` (Box–Muller), \
         `dpsgd.dense_noisy_update_mrows_s` (the update sweep) and \
         `tensor.fma_peak_gflops` (the ceiling) in `benchmark/results/*.json`.",
    );
    let s = spec();
    let ridge = 215.0 * 64.0 / 8.0 / (s.stream_bw() / 1e9); // informational only
    let _ = ridge;
    for n in [0u32, 1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 101, 112, 124] {
        let g = effective_avx_gflops(&s, n);
        let compute_bound = g > 0.99 * s.avx_eff_flops() / 1e9;
        let annotation = match n {
            2 => "noisy gradient update kernel",
            101 => "Box–Muller noise sampling (paper: 215 GFLOPS)",
            _ => "",
        };
        t.push_row(vec![
            n.to_string(),
            format!("{g:.1}"),
            if compute_bound {
                "compute-bound"
            } else {
                "memory-bound"
            }
            .into(),
            annotation.into(),
        ]);
    }
    t
}

const FIG10_BATCHES: [usize; 3] = [1024, 2048, 4096];

/// Fig. 10: end-to-end time of SGD / LazyDP / LazyDP(w/o ANS) /
/// DP-SGD(F) across batch sizes.
#[must_use]
pub fn fig10() -> Table {
    let mut t = Table::new(
        "fig10",
        "Fig. 10 — end-to-end training time (normalized to SGD @ batch 2048)",
        &["algorithm", "batch", "ours ×SGD@2048", "paper ×SGD@2048"],
    )
    .with_note(
        "Paper quotes: DP-SGD(F) ≈ 258–260, LazyDP(w/o ANS) ≈ 150–151, LazyDP 1.7/2.2/3.1, \
         SGD 0.7/1.0/1.6; LazyDP incurs only 1.96–2.42× over SGD (§7.1).",
    );
    let base = sgd_baseline();
    let paper: &[(Algorithm, [&str; 3])] = &[
        (Algorithm::Sgd, ["0.7", "1.0", "1.6"]),
        (Algorithm::LazyDp { ans: true }, ["1.7", "2.2", "3.1"]),
        (Algorithm::LazyDp { ans: false }, ["151", "151", "150"]),
        (Algorithm::DpSgdF, ["260", "259", "258"]),
    ];
    for (alg, refs) in paper {
        for (i, &batch) in FIG10_BATCHES.iter().enumerate() {
            let wl = Workload::mlperf_default(batch);
            t.push_row(vec![
                alg.label().into(),
                batch.to_string(),
                norm_cell(*alg, &wl, base),
                refs[i].into(),
            ]);
        }
    }
    t
}

/// Fig. 11: LazyDP's latency breakdown, including its pure overhead.
#[must_use]
pub fn fig11() -> Table {
    let mut t = Table::new(
        "fig11",
        "Fig. 11 — LazyDP training-time breakdown (batch 2048, 96 GB)",
        &["stage", "seconds", "% of total"],
    )
    .with_note(
        "Paper: no single stage dominates; LazyDP's own overhead (dedup of next-batch \
         indices 61% / HistoryTable read + ANS σ 22% / HistoryTable update 17%) is ≈ 15% \
         of end-to-end time.",
    );
    let wl = Workload::mlperf_default(2048);
    let b = est(Algorithm::LazyDp { ans: true }, &wl)
        .expect("fits")
        .breakdown;
    let tot = b.total();
    for (label, v) in b.labeled() {
        t.push_row(vec![
            label.into(),
            fmt_seconds(v),
            format!("{:.1}%", 100.0 * v / tot),
        ]);
    }
    let oh = b.lazydp_overhead();
    t.push_row(vec![
        "LazyDP overhead (dedup+history)".into(),
        fmt_seconds(oh),
        format!("{:.1}% (paper ≈ 15%)", 100.0 * oh / tot),
    ]);
    t.push_row(vec![
        "overhead split dedup/read/write".into(),
        // lazydp-lint: allow(P1): grad_coalesce is a cost-model timing (seconds), not gradient data
        format!(
            "{:.0}/{:.0}/{:.0}",
            100.0 * b.grad_coalesce / oh,
            100.0 * b.history_read / oh,
            100.0 * b.history_write / oh
        ),
        "paper 61/22/17".into(),
    ]);
    t
}

/// Fig. 12: energy, normalized to SGD at batch 2048.
#[must_use]
pub fn fig12() -> Table {
    let mut t = Table::new(
        "fig12",
        "Fig. 12 — energy consumption (normalized to SGD @ batch 2048)",
        &[
            "algorithm",
            "batch",
            "ours ×SGD@2048",
            "paper ×SGD@2048",
            "avg power (W)",
        ],
    )
    .with_note(
        "Paper: DP-SGD(F) burns ≈ 353–356× SGD's energy (its AVX-saturated phases draw \
         more power than SGD's mixed phases); LazyDP lands at 1.8–3.0×, an average 155× \
         energy saving vs DP-SGD(F).",
    );
    let base = est(Algorithm::Sgd, &Workload::mlperf_default(2048))
        .expect("fits")
        .energy_j;
    let paper: &[(Algorithm, [&str; 3])] = &[
        (Algorithm::Sgd, ["0.7", "1.0", "1.5"]),
        (Algorithm::LazyDp { ans: true }, ["1.8", "2.3", "3.0"]),
        (Algorithm::DpSgdF, ["353.1", "353.1", "355.7"]),
    ];
    for (alg, refs) in paper {
        for (i, &batch) in FIG10_BATCHES.iter().enumerate() {
            let wl = Workload::mlperf_default(batch);
            let e = est(*alg, &wl).expect("fits");
            t.push_row(vec![
                alg.label().into(),
                batch.to_string(),
                fmt_ratio(e.energy_j / base),
                refs[i].into(),
                format!("{:.0}", e.avg_power_w()),
            ]);
        }
    }
    t
}

/// Fig. 13(a): embedding-table-size sensitivity incl. the 192 GB OOM.
#[must_use]
pub fn fig13a() -> Table {
    let mut t = Table::new(
        "fig13a",
        "Fig. 13(a) — table-size sensitivity (normalized to SGD @ 96 GB)",
        &["size", "SGD", "LazyDP", "DP-SGD(F)", "paper (SGD/LazyDP/F)"],
    )
    .with_note(
        "Paper: SGD and LazyDP are flat in table size; DP-SGD(F) scales linearly \
         (68.3/129.2/259.2) and goes OOM at 192 GB because the dense noisy gradient \
         doubles the 192 GB footprint past the 256 GB DRAM.",
    );
    let base = sgd_baseline();
    let mk = |mult: u64, div: u64| -> Workload {
        let mut cfg = DlrmConfig::mlperf(div);
        if mult > 1 {
            let rows = cfg.table_rows.iter().map(|&r| r * mult).collect();
            cfg = cfg.with_table_rows(rows);
        }
        Workload::mlperf_default(2048).with_config(cfg)
    };
    let points: [(&str, u64, u64, &str); 4] = [
        ("24 GB", 1, 4, "0.9 / 2.1 / 68.3"),
        ("48 GB", 1, 2, "0.9 / 2.1 / 129.2"),
        ("96 GB", 1, 1, "1.0 / 2.2 / 259.2"),
        ("192 GB", 2, 1, "1.0 / 2.3 / OOM"),
    ];
    for (label, mult, div, paper) in points {
        let wl = mk(mult, div);
        t.push_row(vec![
            label.into(),
            norm_cell(Algorithm::Sgd, &wl, base),
            norm_cell(Algorithm::LazyDp { ans: true }, &wl, base),
            norm_cell(Algorithm::DpSgdF, &wl, base),
            paper.into(),
        ]);
    }
    t
}

/// Fig. 13(b): pooling-factor sensitivity.
#[must_use]
pub fn fig13b() -> Table {
    let mut t = Table::new(
        "fig13b",
        "Fig. 13(b) — pooling-factor sensitivity (normalized to SGD @ pooling 1)",
        &[
            "pooling",
            "SGD",
            "LazyDP",
            "DP-SGD(F)",
            "LazyDP speedup vs F",
            "paper (SGD/LazyDP/F)",
        ],
    )
    .with_note(
        "Paper: larger pooling slows SGD and LazyDP (more gathers) while DP-SGD(F) is \
         already table-bound, so the gap narrows — but even at pooling 30 LazyDP keeps \
         a 16.7× speedup.",
    );
    let base_wl = Workload::mlperf_default(2048);
    let base = total(Algorithm::Sgd, &base_wl).expect("fits");
    let points: [(usize, &str); 4] = [
        (1, "1.0 / 2.2 / 259.2"),
        (10, "3.2 / 8.0 / 259.2"),
        (20, "5.0 / 13.5 / 262.2"),
        (30, "6.5 / 15.8 / 262.8"),
    ];
    for (pool, paper) in points {
        let wl =
            Workload::mlperf_default(2048).with_config(DlrmConfig::mlperf(1).with_pooling(pool));
        let lazy = total(Algorithm::LazyDp { ans: true }, &wl).expect("fits");
        let f = total(Algorithm::DpSgdF, &wl).expect("fits");
        t.push_row(vec![
            pool.to_string(),
            norm_cell(Algorithm::Sgd, &wl, base),
            fmt_ratio(lazy / base),
            fmt_ratio(f / base),
            format!("{}×", fmt_ratio(f / lazy)),
            paper.into(),
        ]);
    }
    t
}

/// Fig. 13(c): alternative DLRM configurations (RMC1/2/3).
#[must_use]
pub fn fig13c() -> Table {
    let mut t = Table::new(
        "fig13c",
        "Fig. 13(c) — RMC1/RMC2/RMC3 model configurations (each normalized to its own SGD)",
        &["model", "SGD", "LazyDP", "DP-SGD(F)", "paper (LazyDP/F)"],
    )
    .with_note(
        "Paper: LazyDP averages 52.7× speedup across RMC variants (LazyDP 3.8/3.8/2.6, \
         DP-SGD(F) 98.0/28.2/329.1). Our RMC presets are documented approximations of \
         the DeepRecSys classes (DESIGN.md); the ordering — RMC3 worst for DP-SGD(F), \
         RMC2 mildest — is the reproduced claim.",
    );
    let points: [(&str, DlrmConfig, &str); 3] = [
        ("RMC1", DlrmConfig::rmc1(1), "3.8 / 98.0"),
        ("RMC2", DlrmConfig::rmc2(1), "3.8 / 28.2"),
        ("RMC3", DlrmConfig::rmc3(1), "2.6 / 329.1"),
    ];
    for (label, cfg, paper) in points {
        let wl = Workload::mlperf_default(2048).with_config(cfg);
        let sgd = total(Algorithm::Sgd, &wl).expect("fits");
        t.push_row(vec![
            label.into(),
            "1.00".into(),
            norm_cell(Algorithm::LazyDp { ans: true }, &wl, sgd),
            norm_cell(Algorithm::DpSgdF, &wl, sgd),
            paper.into(),
        ]);
    }
    t
}

/// Fig. 13(d): dataset-skew sensitivity.
#[must_use]
pub fn fig13d() -> Table {
    let mut t = Table::new(
        "fig13d",
        "Fig. 13(d) — trace-skew sensitivity (normalized to SGD @ Random)",
        &[
            "skew",
            "SGD",
            "LazyDP",
            "DP-SGD(F)",
            "unique rows/iter",
            "paper (SGD/LazyDP/F)",
        ],
    )
    .with_note(
        "Paper: DP-SGD(F) is skew-insensitive (it always touches the whole table); \
         LazyDP gets slightly *faster* with skew (fewer unique rows to flush): \
         2.2/2.1/2.1/1.9. Skews are Zipf traces calibrated so 90% of accesses hit \
         36%/10%/0.6% of rows (§7.3).",
    );
    let base = sgd_baseline();
    let paper = [
        "1.0 / 2.2 / 259.2",
        "0.9 / 2.1 / 260.3",
        "0.9 / 2.1 / 259.6",
        "1.0 / 1.9 / 261.9",
    ];
    for (i, skew) in SkewLevel::all().into_iter().enumerate() {
        let wl = Workload::mlperf_default(2048).with_skew(skew);
        t.push_row(vec![
            skew.label().into(),
            norm_cell(Algorithm::Sgd, &wl, base),
            norm_cell(Algorithm::LazyDp { ans: true }, &wl, base),
            norm_cell(Algorithm::DpSgdF, &wl, base),
            format!("{:.0}", wl.total_expected_unique()),
            paper[i].into(),
        ]);
    }
    t
}

/// Fig. 14: LazyDP vs EANA.
#[must_use]
pub fn fig14() -> Table {
    let mut t = Table::new(
        "fig14",
        "Fig. 14 — LazyDP vs EANA (normalized to SGD @ batch 2048)",
        &["algorithm", "batch", "ours", "paper"],
    )
    .with_note(
        "Paper: LazyDP incurs only 27–37% overhead over EANA while providing full \
         DP-SGD privacy (EANA never noises untouched rows, leaking which features never \
         occur — §2.5/§7.4).",
    );
    let base = sgd_baseline();
    let paper: &[(Algorithm, [&str; 3])] = &[
        (Algorithm::Sgd, ["0.7", "1.0", "1.6"]),
        (Algorithm::Eana, ["1.3", "1.6", "2.4"]),
        (Algorithm::LazyDp { ans: true }, ["1.7", "2.2", "3.1"]),
        (Algorithm::DpSgdF, ["257.6", "259.2", "260.0"]),
    ];
    for (alg, refs) in paper {
        for (i, &batch) in FIG10_BATCHES.iter().enumerate() {
            let wl = Workload::mlperf_default(batch);
            t.push_row(vec![
                alg.label().into(),
                batch.to_string(),
                norm_cell(*alg, &wl, base),
                refs[i].into(),
            ]);
        }
    }
    t
}

/// §7.2: LazyDP's metadata overheads.
#[must_use]
pub fn e12_overheads() -> Table {
    let mut t = Table::new(
        "e12",
        "§7.2 — LazyDP implementation overheads (default 96 GB model, batch 2048)",
        &["structure", "ours", "paper"],
    )
    .with_note("Both structures total < 1% of the model size (paper §7.2).");
    let cfg = DlrmConfig::mlperf(1);
    let report = lazydp_core::OverheadReport::for_config(&cfg, 2048);
    t.push_row(vec![
        "InputQueue (prefetched batch)".into(),
        format!("{:.0} KB", report.input_queue_bytes as f64 / 1e3),
        "213 KB".into(),
    ]);
    t.push_row(vec![
        "HistoryTable".into(),
        format!("{:.0} MB", report.history_table_bytes as f64 / 1e6),
        "751 MB".into(),
    ]);
    t.push_row(vec![
        "total vs model size".into(),
        format!("{:.2}%", 100.0 * report.fraction_of_model()),
        "< 1%".into(),
    ]);
    t
}

/// §7.1: stage-level latency-reduction factors of LazyDP vs DP-SGD(F).
#[must_use]
pub fn e13_reductions() -> Table {
    let mut t = Table::new(
        "e13",
        "§7.1 — LazyDP stage-level latency reductions vs DP-SGD(F) (batch 2048, 96 GB)",
        &["stage", "DP-SGD(F)", "LazyDP", "reduction", "paper"],
    )
    .with_note(
        "Paper: lazy noise update + ANS cut noise sampling ≈ 1081× and the noisy \
         gradient update ≈ 418×, leaving no dominant bottleneck.",
    );
    let wl = Workload::mlperf_default(2048);
    let f = est(Algorithm::DpSgdF, &wl).expect("fits").breakdown;
    let l = est(Algorithm::LazyDp { ans: true }, &wl)
        .expect("fits")
        .breakdown;
    t.push_row(vec![
        "noise sampling".into(),
        fmt_seconds(f.noise_sampling),
        fmt_seconds(l.noise_sampling),
        format!("{}×", fmt_ratio(f.noise_sampling / l.noise_sampling)),
        "1081×".into(),
    ]);
    t.push_row(vec![
        "noisy gradient update".into(),
        fmt_seconds(f.noisy_grad_update),
        fmt_seconds(l.noisy_grad_update),
        // lazydp-lint: allow(P1): a Fig. 10 cost-model timing (seconds), not a gradient value
        format!("{}×", fmt_ratio(f.noisy_grad_update / l.noisy_grad_update)),
        "418×".into(),
    ]);
    t.push_row(vec![
        "end-to-end".into(),
        fmt_seconds(f.total()),
        fmt_seconds(l.total()),
        format!("{}×", fmt_ratio(f.total() / l.total())),
        "85–155× (avg 119×)".into(),
    ]);
    t
}

/// The experiment registry: `(id, description)`.
#[must_use]
pub fn experiment_ids() -> Vec<(&'static str, &'static str)> {
    vec![
        ("fig3", "SGD vs DP-SGD(B/R/F) across table sizes"),
        ("fig5", "DP-SGD model-update latency breakdown"),
        ("fig6", "AVX roofline microbenchmark curve"),
        (
            "fig10",
            "end-to-end time: SGD/LazyDP/LazyDP(w/o ANS)/DP-SGD(F)",
        ),
        ("fig11", "LazyDP latency breakdown + overhead split"),
        ("fig12", "energy consumption"),
        ("fig13a", "table-size sensitivity (+OOM)"),
        ("fig13b", "pooling-factor sensitivity"),
        ("fig13c", "RMC1/2/3 model configurations"),
        ("fig13d", "trace-skew sensitivity"),
        ("fig14", "LazyDP vs EANA"),
        ("e12", "§7.2 metadata overheads"),
        ("e13", "§7.1 stage-level reduction factors"),
        (
            "xval",
            "functional-counters vs performance-model cross-validation",
        ),
        ("leak", "EANA canary-detection attack (functional)"),
        (
            "traffic",
            "Fig. 4 embedding traffic per algorithm (functional)",
        ),
        (
            "abl_ans",
            "ablation: aggregated noise sampling on/off (functional)",
        ),
        (
            "abl_skew",
            "ablation: trace skew vs LazyDP work (functional)",
        ),
        ("abl_queue", "ablation: InputQueue depth"),
        (
            "utility",
            "privacy-utility trade-off: sigma vs AUC (functional)",
        ),
        (
            "adafest",
            "DP-AdaFEST vs eager/LazyDP: noise traffic vs table size (functional)",
        ),
        (
            "faults",
            "fault-injection resilience: transient storm, dead spill device, kill+resume replay cost",
        ),
    ]
}

/// Runs one experiment by id.
#[must_use]
pub fn run_experiment(id: &str) -> Option<Table> {
    Some(match id {
        "fig3" => fig3(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13a" => fig13a(),
        "fig13b" => fig13b(),
        "fig13c" => fig13c(),
        "fig13d" => fig13d(),
        "fig14" => fig14(),
        "e12" => e12_overheads(),
        "e13" => e13_reductions(),
        "xval" => xval::cross_validation(),
        "leak" => crate::leak::leak_experiment(),
        "traffic" => crate::ablation::traffic(),
        "abl_ans" => crate::ablation::abl_ans(),
        "abl_skew" => crate::ablation::abl_skew(),
        "abl_queue" => crate::ablation::abl_queue(),
        "utility" => crate::utility::utility_tradeoff(),
        "adafest" => crate::adafest::adafest_traffic(),
        "faults" => crate::faults::fault_resilience(),
        _ => return None,
    })
}

/// Runs every experiment in registry order.
#[must_use]
pub fn all_experiments() -> Vec<Table> {
    experiment_ids()
        .iter()
        .map(|(id, _)| run_experiment(id).expect("registered id"))
        .collect()
}

/// The full markdown report (the body of EXPERIMENTS.md).
#[must_use]
pub fn full_report() -> String {
    let mut out = String::new();
    for t in all_experiments() {
        out.push_str(&t.markdown());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let ids = experiment_ids();
        let set: std::collections::HashSet<_> = ids.iter().map(|(i, _)| i).collect();
        assert_eq!(set.len(), ids.len(), "duplicate experiment ids");
        for (id, _) in &ids {
            assert!(run_experiment(id).is_some(), "missing runner for {id}");
        }
        assert!(run_experiment("nope").is_none());
    }

    #[test]
    fn fig10_reproduces_headline_ratios() {
        let t = fig10();
        // DP-SGD(F) @ 2048 row: ours must be within the paper's ballpark.
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == "DP-SGD(F)" && r[1] == "2048")
            .expect("row exists");
        let ours: f64 = row[2].parse().expect("numeric");
        assert!((200.0..330.0).contains(&ours), "DP-SGD(F) ratio {ours}");
        let lazy = t
            .rows
            .iter()
            .find(|r| r[0] == "LazyDP" && r[1] == "2048")
            .expect("row exists");
        let ours: f64 = lazy[2].parse().expect("numeric");
        assert!((1.5..3.2).contains(&ours), "LazyDP ratio {ours}");
    }

    #[test]
    fn fig13a_reports_oom_exactly_where_paper_does() {
        let t = fig13a();
        let row192 = t.rows.iter().find(|r| r[0] == "192 GB").expect("row");
        assert_eq!(row192[3], "OOM", "DP-SGD(F) must OOM at 192 GB");
        assert_ne!(row192[1], "OOM", "SGD must fit at 192 GB");
        assert_ne!(row192[2], "OOM", "LazyDP must fit at 192 GB");
        let row96 = t.rows.iter().find(|r| r[0] == "96 GB").expect("row");
        assert_ne!(row96[3], "OOM");
    }

    #[test]
    fn fig5_fraction_near_paper_value() {
        let t = fig5();
        let last = t.rows.last().expect("rows");
        let pct: f64 = last[5].trim_end_matches('%').parse().expect("numeric");
        assert!(
            (80.0..87.0).contains(&pct),
            "sampling+update {pct}% (paper 83.1%)"
        );
    }

    #[test]
    fn all_tables_render_nonempty_markdown() {
        for t in all_experiments() {
            assert!(!t.rows.is_empty(), "{} has no rows", t.id);
            let md = t.markdown();
            assert!(md.contains(&t.id));
            assert!(md.len() > 100);
        }
    }
}
