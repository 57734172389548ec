//! DLRM model configurations: the paper's default and its variants.

/// Full structural description of a DLRM instance.
///
/// Every instance has the paper's one shape (§2.1, Fig. 1): embedding
/// bags pooled by sum and a pairwise dot-product feature interaction,
/// so only the widths and the table sizes vary.
///
/// `bottom_layers` / `top_layers` list the *output* widths of each MLP
/// layer; input widths are inferred (`num_dense` for the bottom,
/// [`top_input_dim`](Self::top_input_dim) for the top). The last bottom
/// width must equal `embedding_dim` so the interaction sees
/// equal-length vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Dense (continuous) features per sample. Criteo: 13.
    pub num_dense: usize,
    /// Embedding vector width. MLPerf DLRM: 128.
    pub embedding_dim: usize,
    /// Rows of each embedding table. MLPerf DLRM: 26 Criteo tables.
    pub table_rows: Vec<u64>,
    /// Embedding lookups per table per sample. MLPerf default: 1.
    pub pooling: usize,
    /// Bottom MLP output widths. MLPerf: `[512, 256, 128]`.
    pub bottom_layers: Vec<usize>,
    /// Top MLP output widths (last must be 1). MLPerf:
    /// `[1024, 1024, 512, 256, 1]`.
    pub top_layers: Vec<usize>,
}

/// The 26 Criteo-Terabyte table cardinalities with the MLPerf cap of
/// 40 M rows per table — the paper's default "96 GB" model (§6 — at
/// dim 128 × f32 these sum to 96.1 GB, and the HistoryTable over them is
/// the 751 MB quoted in §7.2).
pub const CRITEO_TB_CAPPED_ROWS: [u64; 26] = [
    39_884_406, 39_043, 17_289, 7_420, 20_263, 3, 7_120, 1_543, 63, 38_532_951, 2_953_546, 403_346,
    10, 2_208, 11_938, 155, 4, 976, 14, 39_979_771, 25_641_295, 39_664_984, 585_935, 12_972, 108,
    36,
];

impl DlrmConfig {
    /// The paper's default model: MLPerf (v2.1) DLRM, 96 GB of
    /// embeddings, scaled down by `scale_div` (the paper itself scales
    /// 10×↓ to 1000×↓ for its Fig. 3 sweep). `scale_div = 1` is the full
    /// model: in-memory tables (and every eager algorithm) need the
    /// paper's 256 GB host or the performance model for it, while LazyDP
    /// trains it on lazily-initialised `lazydp_store::StoredTable`s
    /// (`examples/terabyte_scale.rs`); in-memory functional runs should
    /// use large divisors.
    ///
    /// # Panics
    ///
    /// Panics if `scale_div == 0`.
    #[must_use]
    pub fn mlperf(scale_div: u64) -> Self {
        assert!(scale_div > 0, "scale divisor must be positive");
        Self {
            num_dense: 13,
            embedding_dim: 128,
            table_rows: CRITEO_TB_CAPPED_ROWS
                .iter()
                .map(|&r| (r / scale_div).max(r.min(4)))
                .collect(),
            pooling: 1,
            bottom_layers: vec![512, 256, 128],
            top_layers: vec![1024, 1024, 512, 256, 1],
        }
    }

    /// RMC1 (after DeepRecSys/HPCA'20, approximated — see DESIGN.md):
    /// a few large tables with moderate pooling and small MLPs
    /// (8 × 20 M rows × dim 64 ≈ 41 GB).
    #[must_use]
    pub fn rmc1(scale_div: u64) -> Self {
        assert!(scale_div > 0, "scale divisor must be positive");
        Self {
            num_dense: 13,
            embedding_dim: 64,
            table_rows: vec![(20_000_000 / scale_div).max(4); 8],
            pooling: 10,
            bottom_layers: vec![256, 128, 64],
            top_layers: vec![512, 128, 1],
        }
    }

    /// RMC2 (approximated): many tables with heavy pooling — the
    /// embedding-dominated class (32 × 6 M rows × dim 64 ≈ 49 GB,
    /// 960 lookups/sample). SGD itself is slow here, which is why
    /// Fig. 13(c) shows the smallest DP-SGD(F)/SGD gap for RMC2.
    #[must_use]
    pub fn rmc2(scale_div: u64) -> Self {
        assert!(scale_div > 0, "scale divisor must be positive");
        Self {
            num_dense: 13,
            embedding_dim: 64,
            table_rows: vec![(6_000_000 / scale_div).max(4); 32],
            pooling: 30,
            bottom_layers: vec![256, 128, 64],
            top_layers: vec![512, 128, 1],
        }
    }

    /// RMC3 (approximated): few but very large tables (8 × 30 M rows ×
    /// dim 128 ≈ 123 GB), pooling 1, big MLPs — the class where
    /// DP-SGD(F)'s dense noisy update hurts most (Fig. 13(c): 329× over
    /// SGD; it barely fits the 256 GB DRAM with the dense noisy
    /// gradient).
    #[must_use]
    pub fn rmc3(scale_div: u64) -> Self {
        assert!(scale_div > 0, "scale divisor must be positive");
        Self {
            num_dense: 13,
            embedding_dim: 128,
            table_rows: vec![(30_000_000 / scale_div).max(4); 8],
            pooling: 1,
            bottom_layers: vec![512, 256, 128],
            top_layers: vec![1024, 512, 1],
        }
    }

    /// A tiny configuration for functional tests: `num_tables` tables of
    /// `rows` rows, `dim`-wide embeddings, small MLPs.
    #[must_use]
    pub fn tiny(num_tables: usize, rows: u64, dim: usize) -> Self {
        Self {
            num_dense: 13,
            embedding_dim: dim,
            table_rows: vec![rows; num_tables],
            pooling: 1,
            bottom_layers: vec![16, dim],
            top_layers: vec![16, 1],
        }
    }

    /// Sets the pooling factor.
    #[must_use]
    pub fn with_pooling(mut self, pooling: usize) -> Self {
        assert!(pooling > 0, "pooling must be positive");
        self.pooling = pooling;
        self
    }

    /// Replaces the embedding table row counts (e.g. for the Fig. 13(a)
    /// table-size sweep).
    #[must_use]
    pub fn with_table_rows(mut self, table_rows: Vec<u64>) -> Self {
        assert!(!table_rows.is_empty(), "need at least one table");
        self.table_rows = table_rows;
        self
    }

    /// Number of embedding tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.table_rows.len()
    }

    /// Total embedding rows across all tables.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.table_rows.iter().sum()
    }

    /// Total embedding parameters (`total_rows × embedding_dim`).
    #[must_use]
    pub fn embedding_params(&self) -> u64 {
        self.total_rows() * self.embedding_dim as u64
    }

    /// Embedding storage in bytes (f32).
    #[must_use]
    pub fn embedding_bytes(&self) -> u64 {
        self.embedding_params() * 4
    }

    /// Input width of the top MLP, determined by the interaction.
    ///
    /// With `T` tables: `embedding_dim + (T+1)·T/2` (pairwise dots among
    /// the T embedding outputs and the bottom output, concatenated with
    /// the bottom output). MLPerf: 128 + 27·26/2 = 479.
    #[must_use]
    pub fn top_input_dim(&self) -> usize {
        let n = self.num_tables() + 1;
        self.embedding_dim + n * (n - 1) / 2
    }

    /// MLP parameter count (weights + biases of both MLPs).
    #[must_use]
    pub fn mlp_params(&self) -> u64 {
        let mut total = 0u64;
        let mut prev = self.num_dense;
        for &w in &self.bottom_layers {
            total += (prev * w + w) as u64;
            prev = w;
        }
        let mut prev = self.top_input_dim();
        for &w in &self.top_layers {
            total += (prev * w + w) as u64;
            prev = w;
        }
        total
    }

    /// Total model bytes (embeddings + MLPs, f32).
    #[must_use]
    pub fn model_bytes(&self) -> u64 {
        self.embedding_bytes() + self.mlp_params() * 4
    }

    /// Validates structural invariants; returns an error string naming
    /// the first violation.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `embedding_dim` or any MLP width is zero, the
    /// bottom MLP does not end at `embedding_dim`, the top MLP does not
    /// end at width 1, any table is empty, or `pooling == 0`.
    pub fn validate(&self) -> Result<(), String> {
        if self.embedding_dim == 0 {
            return Err("embedding_dim must be positive".to_owned());
        }
        for (field, widths) in [
            ("bottom_layers", &self.bottom_layers),
            ("top_layers", &self.top_layers),
        ] {
            if widths.contains(&0) {
                return Err(format!("{field} widths must be positive (got {widths:?})"));
            }
        }
        if self.bottom_layers.last() != Some(&self.embedding_dim) {
            return Err(format!(
                "bottom MLP must end at embedding_dim {} (got {:?})",
                self.embedding_dim, self.bottom_layers
            ));
        }
        if self.top_layers.last() != Some(&1) {
            return Err(format!(
                "top MLP must end at width 1 (got {:?})",
                self.top_layers
            ));
        }
        if self.table_rows.is_empty() {
            return Err("need at least one embedding table".to_owned());
        }
        if self.table_rows.contains(&0) {
            return Err("embedding tables must be non-empty".to_owned());
        }
        if self.pooling == 0 {
            return Err("pooling must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlperf_full_scale_matches_paper_quotes() {
        let cfg = DlrmConfig::mlperf(1);
        assert_eq!(cfg.num_tables(), 26);
        let mlp_layers = cfg.bottom_layers.len() + cfg.top_layers.len();
        assert_eq!(mlp_layers, 8, "paper: 8 MLP layers");
        assert_eq!(cfg.top_input_dim(), 479, "MLPerf top MLP input width");
        // §6: "total model size of 96 GB".
        let gb = cfg.model_bytes() as f64 / 1e9;
        assert!((gb - 96.0).abs() < 2.0, "model size {gb} GB");
        // §7.2: HistoryTable = total rows × 4 B ≈ 751 MB.
        let history_mb = cfg.total_rows() as f64 * 4.0 / 1e6;
        assert!(
            (history_mb - 751.0).abs() < 2.0,
            "history table {history_mb} MB"
        );
        cfg.validate().expect("valid config");
    }

    #[test]
    fn input_queue_overhead_matches_paper() {
        // §7.2: batch 2048 × 26 tables × 1 lookup × 4 B = 213 KB.
        let cfg = DlrmConfig::mlperf(1);
        let bytes = 2048 * cfg.num_tables() as u64 * cfg.pooling as u64 * 4;
        assert_eq!(bytes, 212_992);
        assert!((bytes as f64 / 1e3 - 213.0).abs() < 0.1);
    }

    #[test]
    fn scaling_divides_rows() {
        let full = DlrmConfig::mlperf(1);
        let tenth = DlrmConfig::mlperf(10);
        // 10×↓ of the paper's Fig. 3 ⇒ ≈ 9.6 GB.
        let gb = tenth.embedding_bytes() as f64 / 1e9;
        assert!((gb - 9.6).abs() < 0.3, "scaled size {gb} GB");
        assert!(tenth.total_rows() < full.total_rows() / 9);
        tenth.validate().expect("valid");
    }

    #[test]
    fn rmc_presets_are_valid_and_ordered() {
        for cfg in [
            DlrmConfig::rmc1(1),
            DlrmConfig::rmc2(1),
            DlrmConfig::rmc3(1),
        ] {
            cfg.validate().expect("valid RMC preset");
        }
        // RMC3 has the largest embedding footprint, RMC2 the most lookups.
        let (r1, r2, r3) = (
            DlrmConfig::rmc1(1),
            DlrmConfig::rmc2(1),
            DlrmConfig::rmc3(1),
        );
        assert!(r3.embedding_bytes() > r1.embedding_bytes());
        assert!(r3.embedding_bytes() > r2.embedding_bytes());
        let lookups = |c: &DlrmConfig| c.num_tables() * c.pooling;
        assert!(lookups(&r2) > lookups(&r1));
        assert!(lookups(&r1) > lookups(&r3));
    }

    #[test]
    fn tiny_preset_valid_and_small() {
        let cfg = DlrmConfig::tiny(4, 100, 8);
        cfg.validate().expect("valid");
        assert!(cfg.model_bytes() < 1_000_000);
        assert_eq!(cfg.top_input_dim(), 8 + 5 * 4 / 2);
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = DlrmConfig::tiny(2, 10, 8);
        cfg.bottom_layers = vec![16, 7];
        assert!(cfg.validate().is_err(), "bottom/embedding mismatch");
        let mut cfg = DlrmConfig::tiny(2, 10, 8);
        cfg.top_layers = vec![16, 2];
        assert!(cfg.validate().is_err(), "top must end at 1");
        let mut cfg = DlrmConfig::tiny(2, 10, 8);
        cfg.table_rows = vec![];
        assert!(cfg.validate().is_err(), "no tables");
    }

    #[test]
    fn validation_rejects_zero_widths() {
        let err = DlrmConfig::tiny(2, 16, 0).validate().unwrap_err();
        assert!(err.contains("embedding_dim"), "{err}");
        let mut cfg = DlrmConfig::tiny(2, 16, 4);
        cfg.bottom_layers = vec![0, 4];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("bottom_layers"), "{err}");
        let mut cfg = DlrmConfig::tiny(2, 16, 4);
        cfg.top_layers = vec![0, 1];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("top_layers"), "{err}");
    }

    #[test]
    #[allow(clippy::identity_op)]
    fn mlp_params_formula() {
        // bottom 13→512→256→128, top 479→1024→1024→512→256→1.
        let cfg = DlrmConfig::mlperf(1000);
        let bottom = 13 * 512 + 512 + 512 * 256 + 256 + 256 * 128 + 128;
        let top = 479 * 1024
            + 1024
            + 1024 * 1024
            + 1024
            + 1024 * 512
            + 512
            + 512 * 256
            + 256
            + 256 * 1
            + 1;
        assert_eq!(cfg.mlp_params(), (bottom + top) as u64);
    }
}
