//! Activations and layer-level element-wise operations.

use crate::matrix::Matrix;

/// Activation function applied element-wise after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity (no activation) — used for output/logit layers.
    #[default]
    Linear,
    /// Rectified linear unit, the DLRM default for hidden layers.
    Relu,
    /// Logistic sigmoid — DLRM's final click-probability output.
    Sigmoid,
}

impl Activation {
    /// Applies the activation element-wise, in place.
    pub fn forward_inplace(&self, z: &mut Matrix) {
        match self {
            Self::Linear => {}
            Self::Relu => {
                for x in z.as_mut_slice() {
                    *x = x.max(0.0);
                }
            }
            Self::Sigmoid => {
                for x in z.as_mut_slice() {
                    *x = sigmoid(*x);
                }
            }
        }
    }

    /// Transforms the upstream gradient `grad` (with respect to the
    /// *post-activation* output `a`) in place into the gradient with
    /// respect to the pre-activation `z`, allocating nothing.
    ///
    /// Both ReLU and sigmoid derivatives are expressible from the output
    /// alone (`1[a>0]` and `a(1-a)`), so the forward cache only needs
    /// activations, matching the memory-lean layout the paper's
    /// DP-SGD(R/F) variants assume.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn backward_inplace(&self, a: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            a.shape(),
            grad.shape(),
            "activation backward shape mismatch"
        );
        match self {
            Self::Linear => {}
            Self::Relu => {
                for (g, &av) in grad.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    *g = if av > 0.0 { *g } else { 0.0 };
                }
            }
            Self::Sigmoid => {
                for (g, &av) in grad.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    *g = *g * av * (1.0 - av);
                }
            }
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Adds a bias row-vector to every row of `z` in place.
///
/// # Panics
///
/// Panics if `bias.len() != z.cols()`.
pub fn add_bias(z: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), z.cols(), "bias length mismatch");
    for i in 0..z.rows() {
        for (v, &b) in z.row_mut(i).iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Symmetry: σ(-x) = 1 - σ(x).
        for x in [-3.0f32, -0.5, 0.7, 2.2] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-6);
        }
        // No NaN at extreme inputs.
        assert!(sigmoid(f32::MAX).is_finite());
        assert!(sigmoid(f32::MIN).is_finite());
    }

    #[test]
    fn relu_forward_backward() {
        let mut a = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        Activation::Relu.forward_inplace(&mut a);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 2.0]);
        let mut g = Matrix::from_vec(1, 3, vec![5.0; 3]);
        Activation::Relu.backward_inplace(&a, &mut g);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn sigmoid_backward_matches_finite_difference() {
        let z = [0.3f32, -1.2, 2.0];
        let mut a = Matrix::from_vec(1, 3, z.to_vec());
        Activation::Sigmoid.forward_inplace(&mut a);
        let mut gz = Matrix::from_vec(1, 3, vec![1.0; 3]);
        Activation::Sigmoid.backward_inplace(&a, &mut gz);
        let eps = 1e-3f32;
        for (j, &zj) in z.iter().enumerate() {
            let fd = (sigmoid(zj + eps) - sigmoid(zj - eps)) / (2.0 * eps);
            assert!(
                (gz[(0, j)] - fd).abs() < 1e-3,
                "col {j}: {} vs {}",
                gz[(0, j)],
                fd
            );
        }
    }

    #[test]
    fn linear_passthrough() {
        let z = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let mut a = z.clone();
        Activation::Linear.forward_inplace(&mut a);
        assert_eq!(a, z);
        let g = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let mut gz = g.clone();
        Activation::Linear.backward_inplace(&z, &mut gz);
        assert_eq!(gz, g);
    }

    #[test]
    fn add_bias_broadcasts_per_row() {
        let mut z = Matrix::zeros(2, 3);
        add_bias(&mut z, &[1.0, 2.0, 3.0]);
        assert_eq!(z.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(z.row(1), &[1.0, 2.0, 3.0]);
    }
}
