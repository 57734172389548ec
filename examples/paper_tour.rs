//! Guided tour of the paper's headline results via the calibrated
//! performance model — prints the three numbers the abstract leads
//! with, then points at the full harness.
//!
//! Run with: `cargo run --release --example paper_tour`

use lazydp::sysmodel::{estimate, Algorithm, SystemSpec, Workload};

fn main() {
    let spec = SystemSpec::paper_default();
    let wl = Workload::mlperf_default(2048);

    let sgd = estimate(Algorithm::Sgd, &wl, &spec).expect("SGD fits");
    let dpf = estimate(Algorithm::DpSgdF, &wl, &spec).expect("DP-SGD(F) fits");
    let lazy = estimate(Algorithm::LazyDp { ans: true }, &wl, &spec).expect("LazyDP fits");
    let lazy_wo = estimate(Algorithm::LazyDp { ans: false }, &wl, &spec).expect("fits");

    println!("== LazyDP (ASPLOS 2024) — headline numbers, re-derived ==\n");
    println!("Workload: MLPerf DLRM, 96 GB embeddings, batch 2048, uniform trace");
    println!("System:   Xeon E5-2698v4 (68 GB/s DDR4) + V100, paper-calibrated roofline\n");

    let t = |e: &lazydp::sysmodel::IterationEstimate| e.breakdown.total();
    println!("per-iteration time:");
    println!("  SGD              {:>10.1} ms", t(&sgd) * 1e3);
    println!(
        "  LazyDP           {:>10.1} ms   ({:.2}× SGD — paper: 1.96–2.42×)",
        t(&lazy) * 1e3,
        t(&lazy) / t(&sgd)
    );
    println!(
        "  LazyDP w/o ANS   {:>10.1} s    ({:.0}× SGD — paper: ≈151×)",
        t(&lazy_wo),
        t(&lazy_wo) / t(&sgd)
    );
    println!(
        "  DP-SGD(F)        {:>10.1} s    ({:.0}× SGD — paper: ≈259×)",
        t(&dpf),
        t(&dpf) / t(&sgd)
    );

    println!(
        "\nLazyDP speedup over DP-SGD(F): {:.0}×   (paper: 85–155×, avg 119×)",
        t(&dpf) / t(&lazy)
    );
    println!(
        "energy saving vs DP-SGD(F):    {:.0}×   (paper: avg 155×)",
        dpf.energy_j / lazy.energy_j
    );

    println!("\nwhere DP-SGD(F)'s time goes (the §4 bottlenecks):");
    println!(
        "  noise sampling      {:>8.2} s  (compute-bound Box–Muller, N=101 AVX ops)",
        dpf.breakdown.noise_sampling
    );
    // lazydp-lint: allow(P1): a cost-model timing (seconds), not a gradient-bearing tensor
    println!(
        "  noisy grad update   {:>8.2} s  (memory-bound full-table stream)",
        dpf.breakdown.noisy_grad_update
    );
    // lazydp-lint: allow(P1): a cost-model timing (seconds), not a gradient-bearing tensor
    println!(
        "  noisy grad gen      {:>8.2} s",
        dpf.breakdown.noisy_grad_gen
    );
    println!(
        "  everything else     {:>8.3} s",
        t(&dpf) - dpf.breakdown.model_update()
    );

    println!("\nand where LazyDP's goes:");
    for (label, v) in lazy.breakdown.labeled() {
        if v > 0.0 {
            println!("  {label:<18} {:>8.2} ms", v * 1e3);
        }
    }

    println!("\nFull figure-by-figure reproduction:");
    println!("  cargo run --release -p lazydp_bench --bin figures -- all");
}
