//! LazyDP's metadata overheads (paper §7.2).
//!
//! LazyDP adds two data structures on top of DP-SGD: the prefetched
//! mini-batch in the `InputQueue` and the per-row `HistoryTable`. §7.2
//! quantifies both for the default 96 GB model: **213 KB** and **751 MB**
//! (< 1% of the model). These calculators reproduce those numbers from a
//! model configuration and power the `e12` experiment in `lazydp_bench`.

use lazydp_model::DlrmConfig;

/// Extra bytes held by the `InputQueue`'s one prefetched mini-batch:
/// `batch × tables × pooling × 4` (§7.2: "mini-batch size × number of
/// embedding tables × average lookups per embedding table × 4 Bytes").
#[must_use]
pub fn input_queue_bytes(cfg: &DlrmConfig, batch: usize) -> u64 {
    batch as u64 * cfg.num_tables() as u64 * cfg.pooling as u64 * 4
}

/// Bytes of all `HistoryTable`s: `total rows × 4` (§7.2).
#[must_use]
pub fn history_table_bytes(cfg: &DlrmConfig) -> u64 {
    cfg.total_rows() * 4
}

/// Summary of LazyDP's memory overheads relative to the model size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// `InputQueue` prefetch bytes.
    pub input_queue_bytes: u64,
    /// `HistoryTable` bytes.
    pub history_table_bytes: u64,
    /// Model (embedding + MLP) bytes for context.
    pub model_bytes: u64,
}

impl OverheadReport {
    /// Computes the report for a configuration and batch size.
    #[must_use]
    pub fn for_config(cfg: &DlrmConfig, batch: usize) -> Self {
        Self {
            input_queue_bytes: input_queue_bytes(cfg, batch),
            history_table_bytes: history_table_bytes(cfg),
            model_bytes: cfg.model_bytes(),
        }
    }

    /// Total overhead as a fraction of the model size (§7.2: < 1% for
    /// the default model).
    #[must_use]
    pub fn fraction_of_model(&self) -> f64 {
        (self.input_queue_bytes + self.history_table_bytes) as f64 / self.model_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_numbers() {
        let cfg = DlrmConfig::mlperf(1);
        let report = OverheadReport::for_config(&cfg, 2048);
        // §7.2: 213 KB InputQueue.
        assert_eq!(report.input_queue_bytes, 212_992);
        // §7.2: ≈ 751 MB HistoryTable.
        let mb = report.history_table_bytes as f64 / 1e6;
        assert!((mb - 751.0).abs() < 2.0, "history {mb} MB");
        // §7.2: less than 1% of the total model size.
        assert!(report.fraction_of_model() < 0.01);
    }

    #[test]
    fn overhead_scales_with_pooling_and_batch() {
        let cfg = DlrmConfig::mlperf(1000).with_pooling(10);
        assert_eq!(input_queue_bytes(&cfg, 1024), 1024 * 26 * 10 * 4);
        let small = DlrmConfig::mlperf(1000);
        assert!(history_table_bytes(&small) < history_table_bytes(&DlrmConfig::mlperf(1)));
    }

    #[test]
    fn rmc_overheads_stay_small() {
        // §7.3: "less than 3.1% memory capacity overhead across all
        // studied models".
        for cfg in [
            DlrmConfig::rmc1(1),
            DlrmConfig::rmc2(1),
            DlrmConfig::rmc3(1),
        ] {
            let report = OverheadReport::for_config(&cfg, 2048);
            assert!(
                report.fraction_of_model() < 0.031,
                "{:?} overhead fraction {}",
                cfg.table_rows.len(),
                report.fraction_of_model()
            );
        }
    }
}
