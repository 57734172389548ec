//! Feature interaction: combining the bottom-MLP output with the pooled
//! embedding vectors (paper Fig. 1).

use lazydp_tensor::Matrix;

/// Forward pass of the interaction into a caller-owned output matrix
/// (reshaped and overwritten in place; no allocation at steady state).
///
/// `inputs` holds `n = T+1` matrices of identical shape `B × d`:
/// `inputs[0]` is the bottom-MLP output, `inputs[1..]` the pooled
/// embeddings. The output is `[bottom | pairwise dot products]` of width
/// `d + n(n−1)/2`, each dot one plain ascending accumulation.
///
/// # Panics
///
/// Panics if `inputs` is empty or shapes disagree.
pub fn interaction_forward_into(inputs: &[Matrix], out: &mut Matrix) {
    let (batch, dim) = shared_shape(inputs);
    let n = inputs.len();
    let pairs = n * (n - 1) / 2;
    out.reset_zeroed(batch, dim + pairs);
    for b in 0..batch {
        let row = out.row_mut(b);
        row[..dim].copy_from_slice(inputs[0].row(b));
        let mut k = dim;
        for i in 0..n {
            let xi = inputs[i].row(b);
            // `DOT_LANES` pairs (i, j) at a time as independent
            // chains: each is still one `acc += x * y` per d,
            // ascending, so every dot keeps its serial bits.
            let mut blocks = inputs[i + 1..].chunks_exact(DOT_LANES);
            for block in &mut blocks {
                let ys: [&[f32]; DOT_LANES] = std::array::from_fn(|l| &block[l].row(b)[..xi.len()]);
                let mut acc = [0.0f32; DOT_LANES];
                for (d, &x) in xi.iter().enumerate() {
                    for (a, y) in acc.iter_mut().zip(&ys) {
                        *a += x * y[d];
                    }
                }
                row[k..k + DOT_LANES].copy_from_slice(&acc);
                k += DOT_LANES;
            }
            for input in blocks.remainder() {
                let mut acc = 0.0f32;
                for (x, y) in xi.iter().zip(input.row(b)) {
                    acc += x * y;
                }
                row[k] = acc;
                k += 1;
            }
        }
    }
}

/// The `(batch, dim)` every interaction input shares.
fn shared_shape(inputs: &[Matrix]) -> (usize, usize) {
    assert!(!inputs.is_empty(), "interaction needs at least one input");
    let shape = inputs[0].shape();
    for m in inputs {
        assert_eq!(m.shape(), shape, "interaction inputs must share shape");
    }
    shape
}

/// Pairwise dots the forward runs side by side per input `i`.
const DOT_LANES: usize = 8;

/// Backward pass: the gradient of each interaction input, given the
/// gradient of the interaction output, into a caller-owned vector of
/// per-input matrices (each reshaped and overwritten in place).
///
/// # Panics
///
/// Panics if `inputs` is empty, their shapes disagree, or `grad_out`'s
/// shape disagrees with what [`interaction_forward_into`] produced.
pub fn interaction_backward_into(inputs: &[Matrix], grad_out: &Matrix, grads: &mut Vec<Matrix>) {
    let (batch, dim) = shared_shape(inputs);
    grads.resize_with(inputs.len(), || Matrix::zeros(0, 0));
    let n = inputs.len();
    let pairs = n * (n - 1) / 2;
    assert_eq!(grad_out.shape(), (batch, dim + pairs), "grad shape");
    for g in grads.iter_mut() {
        g.reset_zeroed(batch, dim);
    }
    // Column of pair (i, j), i < j, in the forward's output.
    let pair = |i: usize, j: usize| dim + i * n - i * (i + 1) / 2 + (j - i - 1);
    for b in 0..batch {
        let g = grad_out.row(b);
        for (m, grad) in grads.iter_mut().enumerate() {
            // d(z_i·z_j)/dz_i = z_j: output m gathers every pair it
            // belongs to, partners p ascending. That is the order the
            // pair-major loop (`k` ascending) added them in, with the
            // same `*` then `+=` per element, so the sweep over d
            // vectorizes without moving a bit.
            let out = grad.row_mut(b);
            if m == 0 {
                // Pass-through part for the bottom vector.
                out.copy_from_slice(&g[..dim]);
            }
            for (p, input) in inputs.iter().enumerate() {
                if p == m {
                    continue;
                }
                let gk = g[pair(m.min(p), m.max(p))];
                if gk != 0.0 {
                    for (o, x) in out.iter_mut().zip(input.row(b)) {
                        *o += gk * x;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize, batch: usize, dim: usize) -> Vec<Matrix> {
        (0..n)
            .map(|t| {
                Matrix::from_fn(batch, dim, |i, j| {
                    ((t * 13 + i * 7 + j * 3) as f32 % 9.0 - 4.0) / 4.0
                })
            })
            .collect()
    }

    /// The pair-major forward the kernel replaced: one serial
    /// `acc += x * y` chain per pair.
    fn reference_dot_forward(inputs: &[Matrix]) -> Matrix {
        let (batch, dim) = inputs[0].shape();
        let n = inputs.len();
        let mut out = Matrix::zeros(batch, dim + n * (n - 1) / 2);
        for b in 0..batch {
            let row = out.row_mut(b);
            row[..dim].copy_from_slice(inputs[0].row(b));
            let mut k = dim;
            for i in 0..n {
                for j in (i + 1)..n {
                    let mut acc = 0.0f32;
                    for (x, y) in inputs[i].row(b).iter().zip(inputs[j].row(b)) {
                        acc += x * y;
                    }
                    row[k] = acc;
                    k += 1;
                }
            }
        }
        out
    }

    /// The pair-major backward the kernel replaced: per pair `k`,
    /// both partners' gradients updated element by element.
    fn reference_dot_backward(inputs: &[Matrix], grad_out: &Matrix) -> Vec<Matrix> {
        let (batch, dim) = inputs[0].shape();
        let n = inputs.len();
        let mut grads = vec![Matrix::zeros(batch, dim); n];
        for b in 0..batch {
            let g = grad_out.row(b);
            grads[0].row_mut(b).copy_from_slice(&g[..dim]);
            let mut k = dim;
            for i in 0..n {
                for j in (i + 1)..n {
                    let gk = g[k];
                    if gk != 0.0 {
                        for d in 0..dim {
                            grads[i].row_mut(b)[d] += gk * inputs[j].row(b)[d];
                            grads[j].row_mut(b)[d] += gk * inputs[i].row(b)[d];
                        }
                    }
                    k += 1;
                }
            }
        }
        grads
    }

    /// Irregular values (so reassociation would show in the low bits),
    /// with exact zeros of both signs in `grad_out` and one infinite
    /// input entry: `0 * inf` is NaN, so the `gk != 0` skip must fire
    /// on exactly the pairs the reference skips.
    fn awkward_case(n: usize, dim: usize, batch: usize) -> (Vec<Matrix>, Matrix) {
        let mut ins: Vec<Matrix> = (0..n)
            .map(|t| {
                Matrix::from_fn(batch, dim, |i, j| {
                    ((t * 131 + i * 17 + j * 7) as f32 * 0.618).sin() * 3.7
                })
            })
            .collect();
        ins[n - 1].row_mut(batch - 1)[dim - 1] = f32::INFINITY;
        let cols = dim + n * (n - 1) / 2;
        let grad_out = Matrix::from_fn(batch, cols, |i, j| match (i + j) % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 29 + j * 11) as f32 * 0.377).cos() * 1.9,
        });
        (ins, grad_out)
    }

    fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn dot_kernels_match_the_pair_major_loops_bitwise() {
        for n in [1usize, 2, 3, 9, 27] {
            for dim in [1usize, 3, 64, 128] {
                for batch in [1usize, 5, 128] {
                    let (ins, grad_out) = awkward_case(n, dim, batch);
                    let what = format!("n={n} dim={dim} batch={batch}");
                    let mut out = Matrix::default();
                    interaction_forward_into(&ins, &mut out);
                    assert_bitwise(
                        &out,
                        &reference_dot_forward(&ins),
                        &format!("forward {what}"),
                    );
                    let mut got = Vec::new();
                    interaction_backward_into(&ins, &grad_out, &mut got);
                    let want = reference_dot_backward(&ins, &grad_out);
                    for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_bitwise(g, w, &format!("backward input {t} {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn dot_forward_shape_and_values() {
        let ins = inputs(3, 2, 4);
        let mut out = Matrix::default();
        interaction_forward_into(&ins, &mut out);
        assert_eq!(out.shape(), (2, 4 + 3));
        // First dim columns replicate the bottom vector.
        assert_eq!(&out.row(0)[..4], ins[0].row(0));
        // Pair (0,1) dot check for sample 1.
        let expect: f32 = ins[0]
            .row(1)
            .iter()
            .zip(ins[1].row(1))
            .map(|(a, b)| a * b)
            .sum();
        assert!((out[(1, 4)] - expect).abs() < 1e-6);
    }

    #[test]
    fn dot_backward_matches_finite_difference() {
        let ins = inputs(3, 2, 3);
        let grad_out = Matrix::from_fn(2, 3 + 3, |i, j| ((i + j) as f32 * 0.37).cos());
        let mut grads = Vec::new();
        interaction_backward_into(&ins, &grad_out, &mut grads);
        // Scalar loss: sum(grad_out ⊙ forward(inputs)).
        let loss = |ins: &[Matrix]| -> f32 {
            let mut out = Matrix::default();
            interaction_forward_into(ins, &mut out);
            out.as_slice()
                .iter()
                .zip(grad_out.as_slice())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-3f32;
        for t in 0..3 {
            for b in 0..2 {
                for d in 0..3 {
                    let mut pert = ins.clone();
                    pert[t].row_mut(b)[d] += eps;
                    let up = loss(&pert);
                    pert[t].row_mut(b)[d] -= 2.0 * eps;
                    let down = loss(&pert);
                    let fd = (up - down) / (2.0 * eps);
                    let got = grads[t][(b, d)];
                    assert!(
                        (got - fd).abs() < 1e-2,
                        "input {t} sample {b} dim {d}: {got} vs {fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_input_dot_has_no_pairs() {
        let ins = inputs(1, 3, 4);
        let mut out = Matrix::default();
        interaction_forward_into(&ins, &mut out);
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(out, ins[0]);
    }

    #[test]
    #[should_panic(expected = "share shape")]
    fn rejects_mismatched_inputs() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        interaction_forward_into(&[a, b], &mut Matrix::default());
    }

    #[test]
    #[should_panic(expected = "share shape")]
    fn backward_rejects_mismatched_inputs() {
        let a = Matrix::zeros(2, 4);
        let b = Matrix::zeros(2, 3);
        let grad_out = Matrix::zeros(2, 4 + 1);
        interaction_backward_into(&[a, b], &grad_out, &mut Vec::new());
    }
}
