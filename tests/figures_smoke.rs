//! Smoke tests for the figure-regeneration harness: every experiment
//! runs, renders, and reproduces the paper's key quantitative shapes.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use lazydp_bench::{all_experiments, experiment_ids, full_report, run_experiment};

#[test]
fn every_registered_experiment_runs_and_renders() {
    let ids = experiment_ids();
    assert!(ids.len() >= 14, "all paper artifacts registered");
    for (id, _) in &ids {
        let t = run_experiment(id).unwrap_or_else(|| panic!("runner missing for {id}"));
        assert_eq!(&t.id, id);
        assert!(!t.rows.is_empty(), "{id} produced no rows");
        assert!(!t.markdown().is_empty());
        assert!(!t.csv().is_empty());
    }
}

#[test]
fn full_report_covers_every_figure() {
    let report = full_report();
    for needle in [
        "fig3", "fig5", "fig6", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c", "fig13d",
        "fig14", "e12", "e13", "xval",
    ] {
        assert!(report.contains(needle), "report missing {needle}");
    }
    assert!(report.contains("LazyDP"));
    assert!(report.contains("DP-SGD(F)"));
    assert!(report.len() > 5000, "report suspiciously short");
}

fn cell(table_id: &str, row_pred: impl Fn(&[String]) -> bool, col: usize) -> String {
    let t = run_experiment(table_id).expect("experiment exists");
    t.rows
        .iter()
        .find(|r| row_pred(r))
        .unwrap_or_else(|| panic!("row not found in {table_id}"))[col]
        .clone()
}

#[test]
fn headline_numbers_in_paper_bands() {
    // Fig. 10: DP-SGD(F) ≈ 259× SGD at batch 2048.
    let f: f64 = cell("fig10", |r| r[0] == "DP-SGD(F)" && r[1] == "2048", 2)
        .parse()
        .expect("numeric");
    assert!((200.0..330.0).contains(&f), "DP-SGD(F) {f}");
    // Fig. 10: LazyDP ≈ 2.2×.
    let l: f64 = cell("fig10", |r| r[0] == "LazyDP" && r[1] == "2048", 2)
        .parse()
        .expect("numeric");
    assert!((1.5..3.2).contains(&l), "LazyDP {l}");
    // e12: InputQueue 213 KB exactly.
    let q = cell("e12", |r| r[0].starts_with("InputQueue"), 1);
    assert_eq!(q, "213 KB");
    // e12: HistoryTable ≈ 751 MB.
    let h = cell("e12", |r| r[0] == "HistoryTable", 1);
    assert_eq!(h, "751 MB");
    // fig13a: OOM at 192 GB for DP-SGD(F) only.
    let oom = cell("fig13a", |r| r[0] == "192 GB", 3);
    assert_eq!(oom, "OOM");
}

/// The functional tables are CI's diffable artifacts: no column may
/// depend on the host's speed, so two runs agree row for row.
#[test]
fn functional_tables_are_a_pure_function_of_their_seeds() {
    for id in ["abl_ans", "adafest"] {
        let first = run_experiment(id).expect("exists").rows;
        let second = run_experiment(id).expect("exists").rows;
        assert_eq!(first, second, "{id} differs between two runs");
    }
}

#[test]
fn fig6_identifies_both_kernels() {
    let t = run_experiment("fig6").expect("exists");
    let sampling = t.rows.iter().find(|r| r[0] == "101").expect("N=101 row");
    assert_eq!(sampling[2], "compute-bound");
    let g: f64 = sampling[1].parse().expect("numeric");
    assert!(
        (205.0..225.0).contains(&g),
        "N=101 at {g} GFLOPS (paper: 215)"
    );
    let update = t.rows.iter().find(|r| r[0] == "2").expect("N=2 row");
    assert_eq!(update[2], "memory-bound");
}

#[test]
fn all_experiments_complete_quickly_enough_for_ci() {
    let start = std::time::Instant::now();
    let tables = all_experiments();
    assert_eq!(tables.len(), experiment_ids().len());
    // Generous bound; mostly guards against accidental O(table_rows)
    // functional work sneaking into the model-scale paths.
    assert!(
        start.elapsed().as_secs() < 120,
        "experiments took {:?}",
        start.elapsed()
    );
}
