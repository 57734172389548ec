//! Dense tensor substrate for the LazyDP reproduction.
//!
//! The paper's RecSys workload (DLRM) combines sparse embedding layers with
//! dense MLP stacks (paper §2.1, Fig. 1). This crate provides the dense
//! half: a row-major `f32` [`Matrix`] with the GEMM variants backprop
//! needs, activations, stable binary-cross-entropy loss, and
//! Xavier/normal initializers — all deterministic given a seed, with no
//! external BLAS so results are bit-reproducible across machines.
//!
//! # Example
//!
//! Every operation writes into a caller-owned output, so a training
//! step that reuses its buffers allocates nothing:
//!
//! ```
//! use lazydp_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let id = Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
//! let mut out = Matrix::default();
//! a.matmul_into(&id, &mut out);
//! assert_eq!(out, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod ops;
pub mod vecops;

pub use init::{xavier_uniform, InitKind};
pub use loss::{bce_with_logits, bce_with_logits_grad_into, mse};
pub use matrix::Matrix;
pub use ops::Activation;
