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
//! ```
//! use lazydp_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod gemm;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod ops;
pub mod vecops;

pub use arena::ScratchArena;
pub use init::{xavier_uniform, InitKind};
pub use loss::{bce_with_logits, bce_with_logits_grad, bce_with_logits_grad_into, mse};
pub use matrix::Matrix;
pub use ops::Activation;
