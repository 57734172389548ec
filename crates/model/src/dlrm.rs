//! The full DLRM model: bottom MLP + embedding bags + feature
//! interaction + top MLP (paper Fig. 1).

use crate::config::DlrmConfig;
use crate::interaction::{interaction_backward_into, interaction_forward_into};
use crate::mlp::{Mlp, MlpCache, MlpGrads};
use lazydp_data::MiniBatch;
use lazydp_embedding::bag::{self, BagIndices};
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable, SparseGrad};
use lazydp_rng::Prng;
use lazydp_tensor::{bce_with_logits, bce_with_logits_grad_into, Matrix};

/// Forward-pass cache for one mini-batch.
///
/// Reusable: [`Dlrm::forward_with`] reshapes every cached matrix in
/// place, so a trainer-owned cache stops allocating once each buffer has
/// reached its steady-state size.
#[derive(Debug, Clone, Default)]
pub struct DlrmCache {
    /// Bottom-MLP cache.
    pub bottom: MlpCache,
    /// Interaction inputs: `[bottom output, emb table 0, …]`, each `B × d`.
    pub inter_inputs: Vec<Matrix>,
    /// Top-MLP cache (its input is the interaction output).
    pub top: MlpCache,
}

impl DlrmCache {
    /// The output logits, one per example (the `B × 1` top output,
    /// row-major).
    #[must_use]
    pub fn logits(&self) -> &[f32] {
        self.top.output().as_slice()
    }
}

/// `cache`'s input activation slot, created on first use: the DLRM
/// forward writes each MLP's input straight into it.
fn input_slot(cache: &mut MlpCache) -> &mut Matrix {
    if cache.activations.is_empty() {
        cache.activations.push(Matrix::zeros(0, 0));
    }
    &mut cache.activations[0]
}

/// Reusable working state for the DLRM backward passes — the
/// model-level slice of the step scratch, one named buffer per use.
/// Owned by the trainer/optimizer and lazily sized on the first step;
/// with it and a reused [`DlrmCache`], the forward and either backward
/// (plain or clipped) perform zero heap allocations at steady state.
#[derive(Debug, Clone, Default)]
pub struct DlrmScratch {
    /// Logit-gradient column (`B × 1`).
    g: Matrix,
    /// Gradient of the top-MLP input (the interaction output).
    grad_top_in: Matrix,
    /// Per-interaction-input gradients.
    inter_grads: Vec<Matrix>,
    /// Discarded input-gradient of the bottom MLP.
    grad_x: Matrix,
    /// Ping-pong partner of the working gradient in the MLP passes.
    spare: Matrix,
    /// One MLP layer's per-example activation norms (ghost norms).
    a_norms: Vec<f64>,
    /// One MLP layer's per-example `δ` norms (ghost norms).
    d_norms: Vec<f64>,
    /// Per-example squared gradient norms of the clipped backward.
    norms: Vec<f64>,
    /// One part's per-example norms (bottom MLP, then each bag) before
    /// they are added into `norms`.
    part_norms: Vec<f64>,
    /// Per-example clip weights of the clipped backward.
    clip_w: Vec<f32>,
    /// Per-layer top-MLP activation gradients stashed between the two
    /// phases of the fused clipped backward.
    top_dz: Vec<Matrix>,
    /// Same for the bottom MLP.
    bottom_dz: Vec<Matrix>,
}

/// Gradients of every trainable tensor in the model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DlrmGrads {
    /// Bottom-MLP gradients.
    pub bottom: MlpGrads,
    /// Top-MLP gradients.
    pub top: MlpGrads,
    /// Per-table sparse embedding gradients.
    pub tables: Vec<SparseGrad>,
}

impl DlrmGrads {
    /// Total squared L2 norm across all tensors.
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        let mut total = self.bottom.norm_sq() + self.top.norm_sq();
        for t in &self.tables {
            total += t.norm_sq();
        }
        total
    }

    /// In-place scaling of every gradient value.
    pub fn scale(&mut self, alpha: f32) {
        self.bottom.scale(alpha);
        self.top.scale(alpha);
        for t in &mut self.tables {
            t.scale(alpha);
        }
    }

    /// Coalesces every table gradient, returning total duplicates merged.
    pub fn coalesce(&mut self) -> usize {
        self.tables.iter_mut().map(SparseGrad::coalesce).sum()
    }

    /// (Re)shapes `self` to match `model` — MLP gradients zeroed, table
    /// gradients empty — reusing existing allocations where shapes
    /// already agree.
    pub fn reset_for<T: EmbeddingStorage>(&mut self, model: &Dlrm<T>) {
        if self.bottom.layers.len() != model.bottom.layers().len() {
            self.bottom = MlpGrads::zeros_like(&model.bottom);
        } else {
            self.bottom.set_zero();
        }
        if self.top.layers.len() != model.top.layers().len() {
            self.top = MlpGrads::zeros_like(&model.top);
        } else {
            self.top.set_zero();
        }
        self.tables
            .resize_with(model.tables.len(), SparseGrad::default);
        for (g, t) in self.tables.iter_mut().zip(model.tables.iter()) {
            g.reset(t.dim());
        }
    }
}

/// The DLRM model, generic over where its embedding rows live.
///
/// `T` is the embedding backend — any [`EmbeddingStorage`]: the default
/// in-memory [`EmbeddingTable`] or the out-of-core
/// `lazydp_store::StoredTable`. The MLPs are always resident (they are
/// tiny next to the tables); only the embedding rows move backends. The
/// whole forward/backward below is written against the trait, so every
/// backend trains bitwise identically (see `EmbeddingStorage`'s
/// contract).
#[derive(Debug, Clone)]
pub struct Dlrm<T: EmbeddingStorage = EmbeddingTable> {
    config: DlrmConfig,
    /// Bottom (dense-feature) MLP.
    pub bottom: Mlp,
    /// One embedding table per categorical feature, sum-pooled by the
    /// [`bag`] kernels.
    pub tables: Vec<T>,
    /// Top (interaction) MLP ending in the click logit.
    pub top: Mlp,
}

impl Dlrm {
    /// Builds and initializes an in-memory model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DlrmConfig::validate`]).
    #[must_use]
    pub fn new<R: Prng>(config: DlrmConfig, rng: &mut R) -> Self {
        Self::try_new_with(config, rng, |rows, dim, rng| {
            Ok::<_, std::convert::Infallible>(EmbeddingTable::init_uniform(rows, dim, rng))
        })
        .expect("infallible table constructor")
    }

    /// Per-example logit gradients of the BCE loss into a caller-owned
    /// vector, reading the logits straight off the cached top output
    /// (allocation-free at steady state).
    ///
    /// `mean = true` gives ∂(mean loss)/∂z (plain SGD); `mean = false`
    /// gives per-example ∂loss_i/∂z_i (the DP clipping convention —
    /// DP-SGD averages *after* clipping).
    ///
    /// (Defined on the default instantiation — it never touches the
    /// embedding backend — so `Dlrm::logit_grads_into(..)` resolves
    /// without a turbofish.)
    pub fn logit_grads_into(cache: &DlrmCache, labels: &[f32], mean: bool, out: &mut Vec<f32>) {
        bce_with_logits_grad_into(cache.logits(), labels, mean, out);
    }
}

impl<T: EmbeddingStorage> Dlrm<T> {
    /// Builds a model whose embedding tables come from `make_table(rows,
    /// dim, rng)`, which may fail (disk-backed tables can hit I/O
    /// errors). The RNG is threaded through in the exact order
    /// [`Dlrm::new`] uses (bottom MLP, top MLP, then tables), so a
    /// backend whose constructor draws the same values — e.g.
    /// `StoredTable::init_uniform` — yields a model bitwise identical to
    /// the in-memory one from the same seed.
    ///
    /// # Errors
    ///
    /// Propagates the first `make_table` error.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn try_new_with<R: Prng, E>(
        config: DlrmConfig,
        rng: &mut R,
        mut make_table: impl FnMut(usize, usize, &mut R) -> Result<T, E>,
    ) -> Result<Self, E> {
        config.validate().expect("invalid DLRM config");
        let bottom = Mlp::new(config.num_dense, &config.bottom_layers, rng);
        let top = Mlp::new(config.top_input_dim(), &config.top_layers, rng);
        let tables = config
            .table_rows
            .iter()
            .map(|&rows| make_table(rows as usize, config.embedding_dim, rng))
            .collect::<Result<Vec<_>, E>>()?;
        Ok(Self {
            config,
            bottom,
            tables,
            top,
        })
    }

    /// Rebuilds the model on a different embedding backend, converting
    /// each table with `f(table_index, table)`. MLPs and config
    /// move over untouched, so the converted model is observationally
    /// identical whenever `f` preserves row contents.
    #[must_use]
    pub fn map_tables<U: EmbeddingStorage>(self, mut f: impl FnMut(usize, T) -> U) -> Dlrm<U> {
        self.try_map_tables(|i, t| Ok::<U, std::convert::Infallible>(f(i, t)))
            .expect("infallible table conversion")
    }

    /// [`map_tables`](Self::map_tables) for fallible conversions.
    ///
    /// # Errors
    ///
    /// Propagates the first conversion error.
    pub fn try_map_tables<U: EmbeddingStorage, E>(
        self,
        mut f: impl FnMut(usize, T) -> Result<U, E>,
    ) -> Result<Dlrm<U>, E> {
        let tables = self
            .tables
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect::<Result<Vec<_>, E>>()?;
        Ok(Dlrm {
            config: self.config,
            bottom: self.bottom,
            tables,
            top: self.top,
        })
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// Forward pass over a mini-batch.
    ///
    /// # Panics
    ///
    /// Panics as [`forward_with`](Self::forward_with) does.
    #[must_use]
    pub fn forward(&self, batch: &MiniBatch) -> DlrmCache {
        let mut cache = DlrmCache::default();
        self.forward_with(batch, &mut cache, &mut DlrmScratch::default());
        cache
    }

    /// [`forward`](Self::forward) into a reusable cache — the
    /// zero-allocation forward of the training hot loop. The dense
    /// features and the interaction output are written straight into the
    /// MLPs' input activation slots, so no input is copied twice. The
    /// forward needs no working buffers beyond `cache`; `_scratch` is
    /// taken so that it and the backwards share one call shape.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or inconsistent, or if its number of
    /// sparse or dense features differs from the model's.
    pub fn forward_with(
        &self,
        batch: &MiniBatch,
        cache: &mut DlrmCache,
        _scratch: &mut DlrmScratch,
    ) {
        assert!(batch.is_consistent(), "inconsistent mini-batch");
        assert!(!batch.is_empty(), "empty mini-batch");
        assert!(
            batch.sparse.len() == self.tables.len(),
            "mini-batch has {} sparse features, model has {} tables",
            batch.sparse.len(),
            self.tables.len()
        );
        assert!(
            batch.num_dense == self.config.num_dense,
            "mini-batch has {} dense features, model expects {}",
            batch.num_dense,
            self.config.num_dense
        );
        input_slot(&mut cache.bottom).assign_from_slice(
            batch.batch_size(),
            batch.num_dense,
            &batch.dense,
        );
        self.bottom.forward_in_place(&mut cache.bottom);
        cache
            .inter_inputs
            .resize_with(1 + self.tables.len(), || Matrix::zeros(0, 0));
        cache.inter_inputs[0].copy_from(cache.bottom.output());
        for (t, table) in self.tables.iter().enumerate() {
            bag::forward_into(table, &batch.sparse[t], &mut cache.inter_inputs[t + 1]);
        }
        interaction_forward_into(&cache.inter_inputs, input_slot(&mut cache.top));
        self.top.forward_in_place(&mut cache.top);
    }

    /// Mean BCE loss of a batch (convenience for tests/examples).
    #[must_use]
    pub fn loss(&self, batch: &MiniBatch) -> f64 {
        let cache = self.forward(batch);
        bce_with_logits(cache.logits(), &batch.labels)
    }

    /// Loads `grad_logits` as the `B × 1` top-MLP output gradient and
    /// gives `grads` one sparse gradient per table (each backward resets
    /// it) — the start of both backward passes.
    fn begin_backward(
        &self,
        batch: &MiniBatch,
        grad_logits: &[f32],
        grads: &mut DlrmGrads,
        scratch: &mut DlrmScratch,
    ) {
        let b = batch.batch_size();
        assert_eq!(grad_logits.len(), b, "one logit grad per example");
        scratch.g.assign_from_slice(b, 1, grad_logits);
        grads
            .tables
            .resize_with(self.tables.len(), SparseGrad::default);
    }

    /// Per-batch backward pass (plain SGD) into caller-owned gradients,
    /// with working buffers from `scratch` (zero allocation at steady
    /// state). `grad_logits[i]` is ∂L/∂logit_i. The table gradients come
    /// out coalesced, one entry per distinct row of the batch.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the cached batch size.
    pub fn backward_with(
        &self,
        cache: &DlrmCache,
        batch: &MiniBatch,
        grad_logits: &[f32],
        grads: &mut DlrmGrads,
        scratch: &mut DlrmScratch,
    ) {
        self.begin_backward(batch, grad_logits, grads, scratch);
        self.top.backward_into(
            &cache.top,
            &scratch.g,
            &mut grads.top,
            &mut scratch.grad_top_in,
            &mut scratch.spare,
        );
        interaction_backward_into(
            &cache.inter_inputs,
            &scratch.grad_top_in,
            &mut scratch.inter_grads,
        );
        self.bottom.backward_into(
            &cache.bottom,
            &scratch.inter_grads[0],
            &mut grads.bottom,
            &mut scratch.grad_x,
            &mut scratch.spare,
        );
        for t in 0..self.tables.len() {
            bag::backward_into(
                &scratch.inter_grads[t + 1],
                &batch.sparse[t],
                self.config.embedding_dim,
                &mut grads.tables[t],
            );
        }
    }

    /// The clipped backward — the one composition every DP algorithm
    /// reaches its clipped aggregate through. One gradient
    /// chain computes the per-example ghost norms (top MLP layers, then
    /// bottom MLP layers, then each bag, summed in that order), `clip`
    /// turns them into per-example weights, and the clipped aggregate
    /// `Σ_i w_i · grad_i` comes from the cached per-layer activation
    /// gradients with the weights applied inside the weight-grad GEMM's
    /// B packing — two GEMMs per dense layer; the chain is never re-run
    /// and per-example weight gradients are never materialized. `clip`
    /// may ignore the norms and write weights of its own.
    ///
    /// Pinned by `tests/fused_clipped.rs` (bitwise across executor
    /// threads; within tolerance of the materialized
    /// [`per_example_grads`](Self::per_example_grads)) and by the
    /// end-to-end release digests.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the cached batch size.
    pub fn backward_clipped_with(
        &self,
        cache: &DlrmCache,
        batch: &MiniBatch,
        grad_logits: &[f32],
        clip: impl FnOnce(&[f64], &mut Vec<f32>),
        grads: &mut DlrmGrads,
        scratch: &mut DlrmScratch,
    ) {
        self.backward_clipped_scaled_with(cache, batch, grad_logits, clip, 1.0, grads, scratch);
    }

    /// [`backward_clipped_with`](Self::backward_clipped_with) with each
    /// table gradient entry scaled by `table_scale` (a DP step's `1/B`)
    /// before a row's entries are summed; the MLP gradients stay
    /// unscaled. At `table_scale = 1.0` the two are the same function.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_clipped_scaled_with(
        &self,
        cache: &DlrmCache,
        batch: &MiniBatch,
        grad_logits: &[f32],
        clip: impl FnOnce(&[f64], &mut Vec<f32>),
        table_scale: f32,
        grads: &mut DlrmGrads,
        scratch: &mut DlrmScratch,
    ) {
        self.begin_backward(batch, grad_logits, grads, scratch);
        // Phase A: the ghost-norm chain, stashing each layer's δ.
        let s = scratch;
        self.top.backward_ghost_norms_cached_into(
            &cache.top,
            &s.g,
            &mut s.norms,
            &mut s.grad_top_in,
            &mut s.top_dz,
            &mut s.spare,
            &mut s.a_norms,
            &mut s.d_norms,
        );
        interaction_backward_into(&cache.inter_inputs, &s.grad_top_in, &mut s.inter_grads);
        self.bottom.backward_ghost_norms_cached_into(
            &cache.bottom,
            &s.inter_grads[0],
            &mut s.part_norms,
            &mut s.grad_x,
            &mut s.bottom_dz,
            &mut s.spare,
            &mut s.a_norms,
            &mut s.d_norms,
        );
        for (n, bn) in s.norms.iter_mut().zip(s.part_norms.iter()) {
            *n += bn;
        }
        for t in 0..self.tables.len() {
            bag::per_example_norm_sq_into(
                &s.inter_grads[t + 1],
                &batch.sparse[t],
                &mut s.part_norms,
            );
            for (n, en) in s.norms.iter_mut().zip(s.part_norms.iter()) {
                *n += en;
            }
        }
        let w = &mut s.clip_w;
        w.clear();
        clip(&s.norms, w);
        // Phase B: clipped parameter gradients from the cached δ; the
        // interaction gradients still hold Phase A's (unscaled) values,
        // so the bag backward reads them directly.
        self.top
            .weighted_grads_from_cached(&cache.top, &s.top_dz, w, &mut grads.top);
        self.bottom
            .weighted_grads_from_cached(&cache.bottom, &s.bottom_dz, w, &mut grads.bottom);
        for t in 0..self.tables.len() {
            bag::backward_weighted_into(
                &s.inter_grads[t + 1],
                &batch.sparse[t],
                w,
                table_scale,
                self.config.embedding_dim,
                &mut grads.tables[t],
            );
        }
    }

    /// Materialized per-example gradients (DP-SGD(B) style), each with
    /// coalesced table gradients. Memory is `O(B × params)` for the
    /// MLP part — exactly the overhead the paper describes in §2.5. This
    /// is the definition the clipped backward is tested against.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the cached batch size.
    #[must_use]
    pub fn per_example_grads(
        &self,
        cache: &DlrmCache,
        batch: &MiniBatch,
        grad_logits: &[f32],
    ) -> Vec<DlrmGrads> {
        let b = batch.batch_size();
        assert_eq!(grad_logits.len(), b, "one logit grad per example");
        let g = Matrix::from_vec(b, 1, grad_logits.to_vec());
        let mut grad_top_in = Matrix::default();
        self.top.backward_into(
            &cache.top,
            &g,
            &mut MlpGrads::default(),
            &mut grad_top_in,
            &mut Matrix::default(),
        );
        let mut inter_grads = Vec::new();
        interaction_backward_into(&cache.inter_inputs, &grad_top_in, &mut inter_grads);
        let top_per_ex = self.top.per_example_grads(&cache.top, &g);
        let bottom_per_ex = self
            .bottom
            .per_example_grads(&cache.bottom, &inter_grads[0]);
        let dim = self.config.embedding_dim;
        top_per_ex
            .into_iter()
            .zip(bottom_per_ex)
            .enumerate()
            .map(|(i, (top, bottom))| {
                let tables = (0..self.tables.len())
                    .map(|t| {
                        let single =
                            BagIndices::from_samples(&[batch.sparse[t].sample(i).to_vec()]);
                        let grad_i = inter_grads[t + 1].row(i).to_vec();
                        let mut grad = SparseGrad::default();
                        bag::backward_into(
                            &Matrix::from_vec(1, dim, grad_i),
                            &single,
                            dim,
                            &mut grad,
                        );
                        grad
                    })
                    .collect();
                DlrmGrads {
                    bottom,
                    top,
                    tables,
                }
            })
            .collect()
    }

    /// Applies gradients: `θ -= lr · g` on MLPs and sparse updates on
    /// embedding tables (non-private SGD's model-update stage,
    /// Fig. 4(a)).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn apply(&mut self, grads: &DlrmGrads, lr: f32) {
        self.bottom.apply(&grads.bottom, lr);
        self.top.apply(&grads.top, lr);
        assert_eq!(
            grads.tables.len(),
            self.tables.len(),
            "table count mismatch"
        );
        for (table, g) in self.tables.iter_mut().zip(grads.tables.iter()) {
            table.sparse_update(g, lr);
        }
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn params(&self) -> u64 {
        self.bottom.params() as u64
            + self.top.params() as u64
            + self.tables.iter().map(|t| t.elements() as u64).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_rng::Xoshiro256PlusPlus;
    use std::collections::BTreeMap;

    fn tiny_setup(batch: usize) -> (Dlrm, MiniBatch, SyntheticDataset) {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        let cfg = DlrmConfig::tiny(3, 50, 8);
        let model = Dlrm::new(cfg, &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(3, 50, 256));
        let b = ds.batch_of(&(0..batch).collect::<Vec<_>>());
        (model, b, ds)
    }

    /// `agg` equals `Σ_i w_i · per_ex[i]` to `tol` on every MLP weight
    /// and bias and on every coalesced table row.
    fn assert_weighted_sum(
        model: &Dlrm,
        per_ex: &[DlrmGrads],
        w: &[f32],
        agg: &DlrmGrads,
        tol: f32,
    ) {
        let mut bottom = MlpGrads::zeros_like(&model.bottom);
        let mut top = MlpGrads::zeros_like(&model.top);
        for (g, &wi) in per_ex.iter().zip(w) {
            bottom.axpy(wi, &g.bottom);
            top.axpy(wi, &g.top);
        }
        for (name, want, got) in [("bottom", &bottom, &agg.bottom), ("top", &top, &agg.top)] {
            assert_eq!(want.layers.len(), got.layers.len(), "{name} layers");
            for (l, (a, b)) in want.layers.iter().zip(&got.layers).enumerate() {
                assert!(a.dw.max_abs_diff(&b.dw) < tol, "{name} layer {l} dw");
                for (x, y) in a.db.iter().zip(&b.db) {
                    assert!((x - y).abs() < tol, "{name} layer {l} db: {x} vs {y}");
                }
            }
        }
        assert_eq!(
            agg.tables.len(),
            model.tables.len(),
            "one gradient per table"
        );
        for (t, got) in agg.tables.iter().enumerate() {
            let mut want: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
            for (g, &wi) in per_ex.iter().zip(w) {
                for (idx, vals) in g.tables[t].iter() {
                    let row = want.entry(idx).or_insert_with(|| vec![0.0; vals.len()]);
                    for (a, v) in row.iter_mut().zip(vals) {
                        *a += wi * v;
                    }
                }
            }
            let mut got = got.clone();
            got.coalesce();
            let got = got.to_dense_map();
            assert!(want.keys().eq(got.keys()), "table {t}: row sets differ");
            for (idx, vals) in &got {
                for (a, b) in want[idx].iter().zip(vals) {
                    assert!((a - b).abs() < tol, "table {t} row {idx}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn forward_produces_one_logit_per_example() {
        let (model, batch, _) = tiny_setup(5);
        let cache = model.forward(&batch);
        assert_eq!(cache.logits().len(), 5);
        assert!(cache.logits().iter().all(|l| l.is_finite()));
    }

    #[test]
    #[should_panic(expected = "mini-batch has 4 sparse features, model has 3 tables")]
    fn forward_rejects_a_batch_with_more_sparse_features_than_tables() {
        let (model, _, _) = tiny_setup(1);
        let ds = SyntheticDataset::new(SyntheticConfig::small(4, 50, 8));
        let _ = model.forward(&ds.batch_of(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "mini-batch has 2 sparse features, model has 3 tables")]
    fn forward_rejects_a_batch_with_fewer_sparse_features_than_tables() {
        let (model, _, _) = tiny_setup(1);
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 50, 8));
        let _ = model.forward(&ds.batch_of(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "mini-batch has 12 dense features, model expects 13")]
    fn forward_rejects_a_batch_with_the_wrong_dense_width() {
        let (model, _, _) = tiny_setup(1);
        let ds = SyntheticDataset::new(SyntheticConfig {
            num_dense: 12,
            ..SyntheticConfig::small(3, 50, 8)
        });
        let _ = model.forward(&ds.batch_of(&[0, 1]));
    }

    #[test]
    fn backward_gradients_match_finite_difference_on_embedding() {
        let (mut model, batch, _) = tiny_setup(4);
        let cache = model.forward(&batch);
        let mut gl = Vec::new();
        Dlrm::logit_grads_into(&cache, &batch.labels, true, &mut gl);
        let mut grads = DlrmGrads::default();
        model.backward_with(&cache, &batch, &gl, &mut grads, &mut DlrmScratch::default());
        grads.coalesce();
        let eps = 1e-3f32;
        // Probe the first nonzero embedding-grad coordinate of table 0.
        let (row, vals) = grads.tables[0].entry(0);
        let d = vals.iter().position(|&v| v.abs() > 1e-6).unwrap_or(0);
        let expect = vals[d];
        let orig = model.tables[0].row(row as usize)[d];
        model.tables[0].row_mut(row as usize)[d] = orig + eps;
        let up = model.loss(&batch);
        model.tables[0].row_mut(row as usize)[d] = orig - eps;
        let down = model.loss(&batch);
        model.tables[0].row_mut(row as usize)[d] = orig;
        let fd = ((up - down) / (2.0 * f64::from(eps))) as f32;
        assert!(
            (expect - fd).abs() < 1e-2,
            "emb grad {expect} vs finite diff {fd}"
        );
    }

    #[test]
    fn backward_gradients_match_finite_difference_on_mlp() {
        let (mut model, batch, _) = tiny_setup(4);
        let cache = model.forward(&batch);
        let mut gl = Vec::new();
        Dlrm::logit_grads_into(&cache, &batch.labels, true, &mut gl);
        let mut grads = DlrmGrads::default();
        model.backward_with(&cache, &batch, &gl, &mut grads, &mut DlrmScratch::default());
        grads.coalesce();
        let eps = 1e-3f32;
        let expect = grads.top.layers[0].dw[(0, 0)];
        let orig = model.top.layers()[0].weight[(0, 0)];
        model.top.layers_mut()[0].weight[(0, 0)] = orig + eps;
        let up = model.loss(&batch);
        model.top.layers_mut()[0].weight[(0, 0)] = orig - eps;
        let down = model.loss(&batch);
        model.top.layers_mut()[0].weight[(0, 0)] = orig;
        let fd = ((up - down) / (2.0 * f64::from(eps))) as f32;
        assert!((expect - fd).abs() < 1e-2, "top w grad {expect} vs {fd}");
    }

    #[test]
    fn per_example_grads_sum_to_batch_grads() {
        let (model, batch, _) = tiny_setup(4);
        let cache = model.forward(&batch);
        let mut gl = Vec::new();
        Dlrm::logit_grads_into(&cache, &batch.labels, false, &mut gl);
        let mut batch_grads = DlrmGrads::default();
        model.backward_with(
            &cache,
            &batch,
            &gl,
            &mut batch_grads,
            &mut DlrmScratch::default(),
        );
        let per_ex = model.per_example_grads(&cache, &batch, &gl);
        assert_weighted_sum(&model, &per_ex, &[1.0; 4], &batch_grads, 1e-4);
    }

    #[test]
    fn ghost_norms_match_materialized_norms() {
        let (model, batch, _) = tiny_setup(6);
        let cache = model.forward(&batch);
        let mut gl = Vec::new();
        Dlrm::logit_grads_into(&cache, &batch.labels, false, &mut gl);
        let mut ghost = Vec::new();
        model.backward_clipped_with(
            &cache,
            &batch,
            &gl,
            |n, w| {
                ghost = n.to_vec();
                w.resize(n.len(), 1.0);
            },
            &mut DlrmGrads::default(),
            &mut DlrmScratch::default(),
        );
        let per_ex = model.per_example_grads(&cache, &batch, &gl);
        assert_eq!(ghost.len(), per_ex.len());
        for (i, g) in per_ex.iter().enumerate() {
            let mut materialized = g.clone();
            materialized.coalesce(); // per-example norms need coalesced rows
            let explicit = materialized.norm_sq();
            let rel = (ghost[i] - explicit).abs() / explicit.max(1e-12);
            assert!(
                rel < 1e-6,
                "example {i}: ghost {} explicit {explicit}",
                ghost[i]
            );
        }
    }

    #[test]
    fn weighted_backward_equals_weighted_per_example_sum() {
        let (model, batch, _) = tiny_setup(4);
        let cache = model.forward(&batch);
        let mut gl = Vec::new();
        Dlrm::logit_grads_into(&cache, &batch.labels, false, &mut gl);
        let weights = [0.25f32, 1.0, 0.0, 0.5];
        let mut weighted = DlrmGrads::default();
        model.backward_clipped_with(
            &cache,
            &batch,
            &gl,
            |_, w| w.extend_from_slice(&weights),
            &mut weighted,
            &mut DlrmScratch::default(),
        );
        let per_ex = model.per_example_grads(&cache, &batch, &gl);
        assert_weighted_sum(&model, &per_ex, &weights, &weighted, 1e-5);
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let (mut model, _, ds) = tiny_setup(4);
        let ids: Vec<usize> = (0..64).collect();
        let batch = ds.batch_of(&ids);
        let before = model.loss(&batch);
        for _ in 0..60 {
            let cache = model.forward(&batch);
            let mut gl = Vec::new();
            Dlrm::logit_grads_into(&cache, &batch.labels, true, &mut gl);
            let mut grads = DlrmGrads::default();
            model.backward_with(&cache, &batch, &gl, &mut grads, &mut DlrmScratch::default());
            grads.coalesce();
            model.apply(&grads, 0.1);
        }
        let after = model.loss(&batch);
        assert!(
            after < before - 0.05,
            "training must reduce loss: {before:.4} -> {after:.4}"
        );
    }

    #[test]
    fn apply_respects_sparsity() {
        let (mut model, batch, _) = tiny_setup(3);
        let before = model.tables[0].clone();
        let cache = model.forward(&batch);
        let mut gl = Vec::new();
        Dlrm::logit_grads_into(&cache, &batch.labels, true, &mut gl);
        let mut grads = DlrmGrads::default();
        model.backward_with(&cache, &batch, &gl, &mut grads, &mut DlrmScratch::default());
        grads.coalesce();
        model.apply(&grads, 0.5);
        let touched: std::collections::HashSet<u64> =
            batch.table_indices(0).iter().copied().collect();
        for r in 0..model.tables[0].rows() {
            let changed = model.tables[0].row(r) != before.row(r);
            if touched.contains(&(r as u64)) {
                // May legitimately be unchanged if the gradient is ~0,
                // but untouched rows must never change:
                continue;
            }
            assert!(!changed, "untouched row {r} changed");
        }
    }
}
