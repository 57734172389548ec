//! Multi-layer perceptron with the three gradient-derivation styles of
//! the paper's DP-SGD variants.
//!
//! The crucial structural fact (paper §2.5, Denison et al.): activation
//! gradients are *already per-example* — each row of a `B × d` gradient
//! matrix belongs to one example. Only the weight-gradient GEMM
//! (`aᵀ·δ`) sums over examples. Therefore:
//!
//! * plain SGD runs one weight-grad GEMM per layer
//!   ([`Mlp::backward_into`]),
//! * DP-SGD(B) materializes `B` outer products (`a_i δ_iᵀ`,
//!   [`Mlp::per_example_grads`]),
//! * the fused clipped backward reads per-example norms straight off
//!   the activations and activation gradients: `‖grad_W L_i‖² =
//!   ‖a_i‖²·‖δ_i‖²` per linear layer (the *ghost norm*), then runs one
//!   clip-scaled weight-grad GEMM per layer over the cached `δ`s, never
//!   materializing per-example grads.

use lazydp_exec::Executor;
use lazydp_rng::{Prng, RowNoise, NOISE_BLOCK};
use lazydp_tensor::ops::add_bias;
use lazydp_tensor::{Activation, InitKind, Matrix};

/// One linear layer `y = act(x·W + b)` with `W: in × out`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearLayer {
    /// Weight matrix, `in_dim × out_dim`.
    pub weight: Matrix,
    /// Bias, length `out_dim`.
    pub bias: Vec<f32>,
    /// Activation applied to the affine output.
    pub activation: Activation,
}

impl LinearLayer {
    /// Creates a Xavier-initialized layer.
    #[must_use]
    pub fn new<R: Prng>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            weight: InitKind::XavierUniform.matrix(rng, in_dim, out_dim),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Parameter count (weights + bias).
    #[must_use]
    pub fn params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Gradient of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrad {
    /// `∂L/∂W`, same shape as the weight.
    pub dw: Matrix,
    /// `∂L/∂b`, same length as the bias.
    pub db: Vec<f32>,
}

impl LayerGrad {
    /// Squared L2 norm of the layer gradient.
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        self.dw.frob_norm_sq() + lazydp_tensor::vecops::norm_sq(&self.db)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.dw.axpy(alpha, &other.dw);
        for (a, &b) in self.db.iter_mut().zip(other.db.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        self.dw.scale(alpha);
        for b in &mut self.db {
            *b *= alpha;
        }
    }
}

/// Gradients of a whole MLP (one [`LayerGrad`] per layer).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlpGrads {
    /// Per-layer gradients, front to back.
    pub layers: Vec<LayerGrad>,
}

impl MlpGrads {
    /// Zero gradients shaped like `mlp`.
    #[must_use]
    pub fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            layers: mlp
                .layers
                .iter()
                .map(|l| LayerGrad {
                    dw: Matrix::zeros(l.in_dim(), l.out_dim()),
                    db: vec![0.0; l.out_dim()],
                })
                .collect(),
        }
    }

    /// Total squared L2 norm.
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        self.layers.iter().map(LayerGrad::norm_sq).sum()
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.axpy(alpha, b);
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        for l in &mut self.layers {
            l.scale(alpha);
        }
    }

    /// Overwrites every gradient value with exact `+0.0` (the
    /// empty-batch reset of a reused gradient buffer; `scale(0.0)`
    /// would keep `-0.0`/NaN bits).
    pub fn set_zero(&mut self) {
        for l in &mut self.layers {
            l.dw.as_mut_slice().fill(0.0);
            l.db.fill(0.0);
        }
    }
}

/// Forward cache: the input and every layer's post-activation output.
///
/// Reusable: [`Mlp::forward_in_place`] reshapes the cached matrices in
/// place, so a cache driven by a trainer allocates only until every
/// activation has reached its steady-state size.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `activations[0]` is the input; `activations[l+1]` is layer `l`'s
    /// output.
    pub activations: Vec<Matrix>,
}

impl MlpCache {
    /// The MLP output (last activation).
    #[must_use]
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("cache is non-empty")
    }
}

/// A stack of [`LinearLayer`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<LinearLayer>,
}

impl Mlp {
    /// Builds an MLP `in_dim → widths[0] → … → widths.last()` with ReLU
    /// on hidden layers and a linear output layer.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    #[must_use]
    pub fn new<R: Prng>(in_dim: usize, widths: &[usize], rng: &mut R) -> Self {
        assert!(!widths.is_empty(), "MLP needs at least one layer");
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = in_dim;
        for (i, &w) in widths.iter().enumerate() {
            let act = if i + 1 == widths.len() {
                Activation::Linear
            } else {
                Activation::Relu
            };
            layers.push(LinearLayer::new(prev, w, act, rng));
            prev = w;
        }
        Self { layers }
    }

    /// The layers.
    #[must_use]
    pub fn layers(&self) -> &[LinearLayer] {
        &self.layers
    }

    /// Mutable layer access (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [LinearLayer] {
        &mut self.layers
    }

    /// Total parameter count.
    #[must_use]
    pub fn params(&self) -> usize {
        self.layers.iter().map(LinearLayer::params).sum()
    }

    /// Forward pass over a cache whose `activations[0]` the caller has
    /// already filled with the layer input (the DLRM path writes the
    /// dense features and the interaction output straight into those
    /// slots). The remaining activation slots are reshaped and
    /// overwritten in place, so steady-state forward passes allocate
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the cache has no input activation, or if its width
    /// differs from the first layer's input width.
    pub fn forward_in_place(&self, cache: &mut MlpCache) {
        assert!(
            !cache.activations.is_empty(),
            "cache needs its input activation filled"
        );
        cache
            .activations
            .resize_with(self.layers.len() + 1, || Matrix::zeros(0, 0));
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = cache.activations.split_at_mut(l + 1);
            let z = &mut rest[0];
            done[l].matmul_into(&layer.weight, z);
            add_bias(z, &layer.bias);
            layer.activation.forward_inplace(z);
        }
    }

    /// Standard per-batch backward pass: the weight gradients into
    /// `grads` and the gradient with respect to the MLP input into
    /// `grad_in`, given `grad_out = ∂L/∂output` (post-activation).
    /// `grads` is (re)shaped to match the MLP on first use. The working
    /// gradient is `grad_in` itself, ping-ponged with `spare` through
    /// the layers, so steady-state calls allocate nothing.
    pub fn backward_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        grads: &mut MlpGrads,
        grad_in: &mut Matrix,
        spare: &mut Matrix,
    ) {
        if grads.layers.len() != self.layers.len() {
            *grads = MlpGrads::zeros_like(self);
        }
        let grad = grad_in;
        grad.copy_from(grad_out);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let a_in = &cache.activations[l];
            layer.activation.backward_inplace(a_out, grad); // grad is now dz
            a_in.t_matmul_into(grad, &mut grads.layers[l].dw);
            grad.col_sums_into(&mut grads.layers[l].db);
            grad.matmul_t_into(&layer.weight, spare);
            std::mem::swap(grad, spare);
        }
    }

    /// First phase of the fused ghost-clipping backward (DP-SGD(F),
    /// §2.5): per-example squared gradient norms without materializing
    /// per-example weight gradients. Per layer `‖a_i δ_iᵀ‖² =
    /// ‖a_i‖²·‖δ_i‖²`, plus `‖δ_i‖²` for the bias, is summed into
    /// `norms`; `a_norms` and `d_norms` hold one layer's per-example
    /// activation and `δ` norms at a time.
    ///
    /// Each layer's post-activation gradient `δ` (dz) is parked in
    /// `dz_cache` (two buffer swaps per layer, no copies) for
    /// [`weighted_grads_from_cached`](Self::weighted_grads_from_cached).
    /// `grad_in` is the working gradient, ping-ponged with `spare` like
    /// [`backward_into`](Self::backward_into)'s; it ends as the
    /// **unscaled** per-example input gradient, bitwise equal to
    /// `backward_into`'s, so callers keep propagating it (e.g. into the
    /// embedding ghost norms) before any clip factor exists.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_ghost_norms_cached_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        norms: &mut Vec<f64>,
        grad_in: &mut Matrix,
        dz_cache: &mut Vec<Matrix>,
        spare: &mut Matrix,
        a_norms: &mut Vec<f64>,
        d_norms: &mut Vec<f64>,
    ) {
        let batch = grad_out.rows();
        norms.clear();
        norms.resize(batch, 0.0);
        dz_cache.resize_with(self.layers.len(), || Matrix::zeros(0, 0));
        let grad = grad_in;
        grad.copy_from(grad_out);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let a_in = &cache.activations[l];
            layer.activation.backward_inplace(a_out, grad); // grad is now dz
            a_in.row_norms_sq_into(a_norms);
            grad.row_norms_sq_into(d_norms);
            for i in 0..batch {
                // ‖a_i δ_iᵀ‖² = ‖a_i‖²·‖δ_i‖²; bias grad adds ‖δ_i‖².
                norms[i] += a_norms[i] * d_norms[i] + d_norms[i];
            }
            grad.matmul_t_into(&layer.weight, spare);
            // Stash dz without copying: park it in the cache slot, then
            // continue the chain with the freshly propagated gradient.
            // Whatever the slots previously held is fully overwritten by
            // the next iteration's kernels.
            std::mem::swap(grad, &mut dz_cache[l]);
            std::mem::swap(grad, spare);
        }
    }

    /// Second phase of the fused ghost-clipping backward: the clipped
    /// aggregate `Σ_i w_i · grad_i` from the `δ` matrices stashed by
    /// [`backward_ghost_norms_cached_into`](Self::backward_ghost_norms_cached_into),
    /// never re-running the gradient chain. The weights apply only at
    /// the parameter-gradient reductions: folded into the weight-grad
    /// GEMM's B packing (`aᵀ · diag(w) · δ`) and the weighted bias
    /// column-sums. That is valid because the backward graph is linear
    /// in the output gradient, and costs two GEMMs per layer in all
    /// (`δ·Wᵀ` in the first phase, the scaled `aᵀ·δ` here).
    ///
    /// # Panics
    ///
    /// Panics if `dz_cache` doesn't hold one matrix per layer.
    pub fn weighted_grads_from_cached(
        &self,
        cache: &MlpCache,
        dz_cache: &[Matrix],
        weights: &[f32],
        grads: &mut MlpGrads,
    ) {
        assert_eq!(dz_cache.len(), self.layers.len(), "one dz per layer");
        if grads.layers.len() != self.layers.len() {
            *grads = MlpGrads::zeros_like(self);
        }
        for (l, _) in self.layers.iter().enumerate().rev() {
            let a_in = &cache.activations[l];
            a_in.t_matmul_scaled_into(&dz_cache[l], weights, &mut grads.layers[l].dw);
            dz_cache[l].weighted_col_sums_into(weights, &mut grads.layers[l].db);
        }
    }

    /// Materialized per-example gradients (DP-SGD(B), §2.4): one
    /// [`MlpGrads`] per example. Memory scales with `B × params` — the
    /// very overhead DP-SGD(R) exists to avoid (§2.5).
    #[must_use]
    pub fn per_example_grads(&self, cache: &MlpCache, grad_out: &Matrix) -> Vec<MlpGrads> {
        let batch = grad_out.rows();
        // Run the standard backward chain once to get per-layer dz
        // (rows are per-example), then outer-product per example.
        let mut dzs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut grad = grad_out.clone();
        for (l, layer) in self.layers.iter().enumerate().rev() {
            layer
                .activation
                .backward_inplace(&cache.activations[l + 1], &mut grad); // grad is now dz
            let mut next = Matrix::default();
            grad.matmul_t_into(&layer.weight, &mut next);
            dzs.push(std::mem::replace(&mut grad, next));
        }
        dzs.reverse();
        (0..batch)
            .map(|i| {
                // Example `i`'s row of `m` as a `1 × cols` matrix.
                let row_i = |m: &Matrix| Matrix::from_vec(1, m.cols(), m.row(i).to_vec());
                let layers = (0..self.layers.len())
                    .map(|l| {
                        let dz_i = row_i(&dzs[l]);
                        let mut dw = Matrix::default();
                        row_i(&cache.activations[l]).t_matmul_into(&dz_i, &mut dw);
                        LayerGrad {
                            dw,
                            db: dz_i.as_slice().to_vec(),
                        }
                    })
                    .collect();
                MlpGrads { layers }
            })
            .collect()
    }

    /// Applies a gradient: `θ -= lr · g`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply(&mut self, grads: &MlpGrads, lr: f32) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "layer count mismatch"
        );
        for (layer, g) in self.layers.iter_mut().zip(grads.layers.iter()) {
            layer.weight.axpy(-lr, &g.dw);
            for (b, &db) in layer.bias.iter_mut().zip(g.db.iter()) {
                *b -= lr * db;
            }
        }
    }

    /// The DP update of every parameter, one fused sweep per layer:
    /// `θ -= lr · g`, then `θ -= (lr · scale) · n` with `n ~ N(0,1)`
    /// element-wise — the dense noise step both DP-SGD and LazyDP apply
    /// identically to MLP layers (Algorithm 1 note: "both DP-SGD(F) and
    /// LazyDP apply the identical DP protection for MLP layers").
    ///
    /// Layer `l` draws its noise from the dense sequence
    /// `(param_base + l, iter)`: the weights take elements `0..W.len()`
    /// and the bias the ones after them. The weights run as one
    /// chunk-addressed [`Executor::par_for`] region over fixed-length
    /// chunks; each chunk seeks the sequence to its first element
    /// ([`RowNoise::fill_unit_dense_at`]) and draws through a stack
    /// block. So the result is bitwise the sequential gradient sweep
    /// followed by the noise sweep, at any executor width, and the sweep
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_noisy<N: RowNoise>(
        &mut self,
        grads: &MlpGrads,
        noise: &N,
        iter: u64,
        param_base: u32,
        scale: f32,
        lr: f32,
        exec: &Executor,
    ) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "layer count mismatch"
        );
        for (l, (layer, g)) in self.layers.iter_mut().zip(&grads.layers).enumerate() {
            let param = param_base + l as u32;
            let (w, dw) = (layer.weight.as_mut_slice(), g.dw.as_slice());
            assert_eq!(w.len(), dw.len(), "weight shape mismatch");
            assert_eq!(layer.bias.len(), g.db.len(), "bias shape mismatch");
            exec.par_for(w, NOISY_APPLY_CHUNK, |c, chunk| {
                let start = c * NOISY_APPLY_CHUNK;
                let dw = &dw[start..start + chunk.len()];
                noisy_apply(chunk, dw, noise, param, iter, start, scale, lr);
            });
            let start = w.len();
            noisy_apply(&mut layer.bias, &g.db, noise, param, iter, start, scale, lr);
        }
    }
}

/// Weight elements per executor chunk of [`Mlp::apply_noisy`]. Fixed (not
/// derived from the thread count) so chunk addressing is thread-count
/// independent, and even so every chunk seeks to a pair boundary.
const NOISY_APPLY_CHUNK: usize = 16 * 1024;

/// `x -= lr · g`, then `x -= (lr · scale) · n`, for `x` holding elements
/// `start..` of dense sequence `(param, iter)`: per element, the
/// gradient step's rounding and then the noise step's. Draws through
/// its own clone of `noise`, the same values as any other clone.
#[allow(clippy::too_many_arguments)]
fn noisy_apply<N: RowNoise>(
    x: &mut [f32],
    g: &[f32],
    noise: &N,
    param: u32,
    iter: u64,
    start: usize,
    scale: f32,
    lr: f32,
) {
    let mut noise = noise.clone();
    let mut block = [0.0f32; NOISE_BLOCK];
    let noise_lr = lr * scale;
    for (k, (x, g)) in x
        .chunks_mut(NOISE_BLOCK)
        .zip(g.chunks(NOISE_BLOCK))
        .enumerate()
    {
        let n = &mut block[..x.len()];
        noise.fill_unit_dense_at(param, iter, (start + k * NOISE_BLOCK) as u64, n);
        for ((x, &g), &n) in x.iter_mut().zip(g).zip(n.iter()) {
            *x += -lr * g;
            *x -= noise_lr * n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    /// A seeded MLP over 5 inputs and its forward cache on a fixed
    /// 4-example batch (`activations[0]` is the input).
    fn mlp_and_cache(widths: &[usize]) -> (Mlp, MlpCache) {
        let mut rng = Xoshiro256PlusPlus::seed_from(42);
        let mlp = Mlp::new(5, widths, &mut rng);
        let x = Matrix::from_fn(4, 5, |i, j| ((i * 7 + j * 3) as f32 % 5.0 - 2.0) / 3.0);
        let mut cache = MlpCache {
            activations: vec![x],
        };
        mlp.forward_in_place(&mut cache);
        (mlp, cache)
    }

    /// Scalar loss for gradient checking: sum of outputs.
    fn loss_of(mlp: &Mlp, x: &Matrix) -> f32 {
        let mut cache = MlpCache {
            activations: vec![x.clone()],
        };
        mlp.forward_in_place(&mut cache);
        cache.output().as_slice().iter().sum()
    }

    #[test]
    fn forward_shapes() {
        let (mlp, cache) = mlp_and_cache(&[8, 3]);
        assert_eq!(cache.activations.len(), 3);
        assert_eq!(cache.output().shape(), (4, 3));
        assert_eq!(mlp.params(), 5 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (mut mlp, cache) = mlp_and_cache(&[6, 2]);
        let x = cache.activations[0].clone();
        let grad_out = Matrix::from_vec(4, 2, vec![1.0; 8]); // d(sum)/d(out) = 1
        let (mut grads, mut grad_in) = Default::default();
        mlp.backward_into(
            &cache,
            &grad_out,
            &mut grads,
            &mut grad_in,
            &mut Matrix::default(),
        );
        let eps = 1e-3f32;
        // Check a scattering of weight coordinates in both layers.
        for l in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
                if r >= mlp.layers[l].weight.rows() || c >= mlp.layers[l].weight.cols() {
                    continue;
                }
                let orig = mlp.layers[l].weight[(r, c)];
                mlp.layers[l].weight[(r, c)] = orig + eps;
                let up = loss_of(&mlp, &x);
                mlp.layers[l].weight[(r, c)] = orig - eps;
                let down = loss_of(&mlp, &x);
                mlp.layers[l].weight[(r, c)] = orig;
                let fd = (up - down) / (2.0 * eps);
                let got = grads.layers[l].dw[(r, c)];
                assert!(
                    (got - fd).abs() < 2e-2,
                    "layer {l} w[{r},{c}]: {got} vs {fd}"
                );
            }
            // Bias check.
            let orig = mlp.layers[l].bias[0];
            mlp.layers[l].bias[0] = orig + eps;
            let up = loss_of(&mlp, &x);
            mlp.layers[l].bias[0] = orig - eps;
            let down = loss_of(&mlp, &x);
            mlp.layers[l].bias[0] = orig;
            let fd = (up - down) / (2.0 * eps);
            assert!((grads.layers[l].db[0] - fd).abs() < 2e-2, "layer {l} bias");
        }
        // Input gradient check.
        let mut x2 = x.clone();
        let orig = x2[(1, 2)];
        x2[(1, 2)] = orig + eps;
        let up = loss_of(&mlp, &x2);
        x2[(1, 2)] = orig - eps;
        let down = loss_of(&mlp, &x2);
        let fd = (up - down) / (2.0 * eps);
        assert!((grad_in[(1, 2)] - fd).abs() < 2e-2, "input grad");
    }

    #[test]
    fn per_example_grads_sum_to_batch_grad() {
        let (mlp, cache) = mlp_and_cache(&[7, 4, 2]);
        let grad_out = Matrix::from_fn(4, 2, |i, j| (i as f32 - 1.5) * (j as f32 + 0.5));
        let mut batch_grads = MlpGrads::default();
        mlp.backward_into(
            &cache,
            &grad_out,
            &mut batch_grads,
            &mut Matrix::default(),
            &mut Matrix::default(),
        );
        let per_ex = mlp.per_example_grads(&cache, &grad_out);
        assert_eq!(per_ex.len(), 4);
        let mut sum = MlpGrads::zeros_like(&mlp);
        for g in &per_ex {
            sum.axpy(1.0, g);
        }
        for (s, b) in sum.layers.iter().zip(batch_grads.layers.iter()) {
            assert!(s.dw.max_abs_diff(&b.dw) < 1e-4, "weight grads sum");
            for (x, y) in s.db.iter().zip(b.db.iter()) {
                assert!((x - y).abs() < 1e-4, "bias grads sum");
            }
        }
    }

    #[test]
    fn ghost_norms_match_materialized_per_example_norms() {
        let (mlp, cache) = mlp_and_cache(&[6, 3, 2]);
        let grad_out = Matrix::from_fn(4, 2, |i, j| ((i + 2 * j) as f32).sin());
        let mut ghost = Vec::new();
        mlp.backward_ghost_norms_cached_into(
            &cache,
            &grad_out,
            &mut ghost,
            &mut Matrix::default(),
            &mut Vec::new(),
            &mut Matrix::default(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        let per_ex = mlp.per_example_grads(&cache, &grad_out);
        for (i, g) in per_ex.iter().enumerate() {
            let explicit = g.norm_sq();
            assert!(
                (ghost[i] - explicit).abs() < 1e-6 * explicit.max(1.0),
                "example {i}: ghost {} explicit {explicit}",
                ghost[i]
            );
        }
    }

    #[test]
    fn fused_chain_input_grad_is_the_unscaled_plain_backward() {
        // Contract: the fused chain propagates the unscaled gradient
        // (clip factors apply only at parameter-gradient sites), so its
        // input gradient is the plain backward's, bit for bit.
        let (mlp, cache) = mlp_and_cache(&[6, 2]);
        let grad_out = Matrix::from_fn(4, 2, |i, j| (i as f32 - 0.4) * (j as f32 + 0.9));
        let (mut gi_plain, mut gi_fused) = (Matrix::default(), Matrix::default());
        mlp.backward_into(
            &cache,
            &grad_out,
            &mut MlpGrads::default(),
            &mut gi_plain,
            &mut Matrix::default(),
        );
        mlp.backward_ghost_norms_cached_into(
            &cache,
            &grad_out,
            &mut Vec::new(),
            &mut gi_fused,
            &mut Vec::new(),
            &mut Matrix::default(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        assert_eq!(gi_fused.shape(), gi_plain.shape());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gi_fused), bits(&gi_plain));
    }

    #[test]
    fn weighted_backward_equals_weighted_sum_of_per_example() {
        let (mlp, cache) = mlp_and_cache(&[5, 2]);
        let grad_out = Matrix::from_fn(4, 2, |i, j| (i as f32 + 1.0) * 0.3 - j as f32 * 0.2);
        let weights = [0.5f32, 1.0, 0.0, 2.0];
        let mut dz = Vec::new();
        mlp.backward_ghost_norms_cached_into(
            &cache,
            &grad_out,
            &mut Vec::new(),
            &mut Matrix::default(),
            &mut dz,
            &mut Matrix::default(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        let mut wg = MlpGrads::default();
        mlp.weighted_grads_from_cached(&cache, &dz, &weights, &mut wg);
        let per_ex = mlp.per_example_grads(&cache, &grad_out);
        let mut expect = MlpGrads::zeros_like(&mlp);
        for (g, &w) in per_ex.iter().zip(weights.iter()) {
            expect.axpy(w, g);
        }
        for (l, (a, b)) in wg.layers.iter().zip(expect.layers.iter()).enumerate() {
            assert!(a.dw.max_abs_diff(&b.dw) < 1e-5, "layer {l} dw");
            for (x, y) in a.db.iter().zip(b.db.iter()) {
                assert!((x - y).abs() < 1e-5, "layer {l} db: {x} vs {y}");
            }
        }
    }

    #[test]
    fn apply_moves_against_gradient() {
        let (mut mlp, cache) = mlp_and_cache(&[4, 1]);
        let x = &cache.activations[0];
        let before = loss_of(&mlp, x);
        let grad_out = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let mut grads = MlpGrads::default();
        mlp.backward_into(
            &cache,
            &grad_out,
            &mut grads,
            &mut Matrix::default(),
            &mut Matrix::default(),
        );
        mlp.apply(&grads, 0.01);
        let after = loss_of(&mlp, x);
        assert!(
            after < before,
            "gradient step must reduce sum-loss: {before} -> {after}"
        );
    }

    /// The sequential DP update [`Mlp::apply_noisy`] replaces: the
    /// gradient sweep, then per layer one `fill_unit_dense(param, iter,
    /// 0, ·)` over weights and bias into a buffer and a second sweep.
    fn two_sweep_oracle<N: RowNoise>(
        mlp: &mut Mlp,
        grads: &MlpGrads,
        noise: &mut N,
        (iter, param_base, scale, lr): (u64, u32, f32, f32),
    ) {
        for (layer, g) in mlp.layers.iter_mut().zip(grads.layers.iter()) {
            layer.weight.axpy(-lr, &g.dw);
            for (b, &db) in layer.bias.iter_mut().zip(g.db.iter()) {
                *b -= lr * db;
            }
        }
        for (l, layer) in mlp.layers.iter_mut().enumerate() {
            let w = layer.weight.as_mut_slice();
            let mut buf = vec![0.0f32; w.len() + layer.bias.len()];
            noise.fill_unit_dense(param_base + l as u32, iter, 0, &mut buf);
            for (x, &n) in w.iter_mut().zip(buf.iter()) {
                *x -= lr * scale * n;
            }
            for (b, &n) in layer.bias.iter_mut().zip(buf[w.len()..].iter()) {
                *b -= lr * scale * n;
            }
        }
    }

    fn param_bits(mlp: &Mlp) -> Vec<u32> {
        mlp.layers
            .iter()
            .flat_map(|l| l.weight.as_slice().iter().chain(&l.bias))
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn fused_noisy_apply_is_bitwise_the_two_sweep_update_at_any_width() {
        // Layer 0 has 257 × 129 = 33 153 weights: three chunks, the last
        // partial, and an odd count, so its bias seek starts mid-pair.
        // Layer 1 (129 × 3) fits in one chunk.
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        let mlp = Mlp::new(257, &[129, 3], &mut rng);
        let w0 = mlp.layers[0].weight.len();
        assert!(w0 > 2 * NOISY_APPLY_CHUNK && w0 % 2 == 1);
        assert!(mlp.layers[1].weight.len() < NOISY_APPLY_CHUNK);
        let mut grads = MlpGrads::zeros_like(&mlp);
        for g in &mut grads.layers {
            g.dw = InitKind::XavierUniform.matrix(&mut rng, g.dw.rows(), g.dw.cols());
            for (i, b) in g.db.iter_mut().enumerate() {
                *b = (i as f32 * 0.7).sin();
            }
        }
        let step = (9, 64, 0.37, 0.05);
        let mut want = mlp.clone();
        two_sweep_oracle(&mut want, &grads, &mut CounterNoise::new(5), step);
        for threads in [1, 2, 4] {
            let mut got = mlp.clone();
            let (iter, base, scale, lr) = step;
            let exec = Executor::new(threads);
            got.apply_noisy(&grads, &CounterNoise::new(5), iter, base, scale, lr, &exec);
            assert_eq!(param_bits(&got), param_bits(&want), "threads {threads}");
        }
    }

    #[test]
    fn noisy_apply_noise_depends_on_the_seed() {
        let (a, _) = mlp_and_cache(&[4, 2]);
        let grads = MlpGrads::zeros_like(&a);
        let noisy = |seed: u64| {
            let mut m = a.clone();
            let noise = CounterNoise::new(seed);
            m.apply_noisy(&grads, &noise, 3, 0, 0.5, 0.1, &Executor::new(1));
            param_bits(&m)
        };
        assert_eq!(noisy(9), noisy(9), "same seed, same noise");
        assert_ne!(noisy(9), noisy(10), "different seed, different noise");
        assert_ne!(noisy(9), param_bits(&a), "noise moves the parameters");
    }
}
