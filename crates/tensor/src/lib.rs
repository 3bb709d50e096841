//! # adec-tensor
//!
//! The numeric substrate of the ADEC reproduction: a dense, row-major `f32`
//! matrix type plus the linear algebra the paper's pipeline needs
//! (blocked matrix multiplication, symmetric eigendecomposition, PCA,
//! pairwise distances, kernels) and deterministic random number utilities.
//!
//! Everything is implemented from scratch — no BLAS, no `ndarray` — because
//! the numeric kernel is part of what this reproduction rebuilds. The hot
//! paths run through the [`kernels`] layer: packed, register-tiled gemm and
//! fused elementwise ops, run serially on the calling thread.
//!
//! ## Quick example
//!
//! ```
//! use adec_tensor::{Matrix, rng::SeedRng};
//!
//! let mut rng = SeedRng::new(7);
//! let a = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
//! let b = Matrix::randn(3, 2, 0.0, 1.0, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), (4, 2));
//! ```

// Numeric kernels index with explicit loop counters throughout; the
// iterator rewrites clippy suggests are less readable for the math here.
#![allow(clippy::needless_range_loop)]
// Every index in the dense kernels is bounded by a shape assertion at the
// function head (see `debug_assert_dims!`); checked-access rewrites would
// obscure the inner loops without adding safety.
#![allow(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod kernels;
pub mod linalg;
pub mod matrix;
pub mod rng;

pub use kernels::{add_bias_act, finite_scan, row_lerp, softmax_rows, FiniteScan, FusedAct, RowSoftmax};
pub use linalg::{
    gram_schmidt_rows, pairwise_sq_dists, pca, rbf_kernel, symmetric_eigen, EigenDecomposition,
    Pca,
};
pub use matrix::Matrix;
pub use rng::{RngState, SeedRng};

/// Debug-build invariant: every entry of a matrix is finite.
///
/// Expands to a [`debug_assert!`] on [`Matrix::all_finite`], so release
/// kernels pay nothing while debug runs catch NaN/∞ contamination at the
/// operation that introduced it rather than epochs later in a loss curve.
///
/// ```
/// use adec_tensor::{debug_assert_finite, Matrix};
/// let m = Matrix::zeros(2, 3);
/// debug_assert_finite!(m, "zeros");
/// ```
#[macro_export]
macro_rules! debug_assert_finite {
    ($m:expr, $ctx:expr) => {
        debug_assert!(($m).all_finite(), "{}: matrix contains non-finite values", $ctx)
    };
}

/// Debug-build invariant: a matrix has the expected shape.
///
/// ```
/// use adec_tensor::{debug_assert_dims, Matrix};
/// let m = Matrix::zeros(2, 3);
/// debug_assert_dims!(m, 2, 3, "zeros");
/// ```
#[macro_export]
macro_rules! debug_assert_dims {
    ($m:expr, $rows:expr, $cols:expr, $ctx:expr) => {
        debug_assert!(
            ($m).rows() == $rows && ($m).cols() == $cols,
            "{}: expected {}x{} matrix, got {}x{}",
            $ctx,
            $rows,
            $cols,
            ($m).rows(),
            ($m).cols()
        )
    };
}

/// Errors surfaced by fallible tensor operations.
///
/// Shape mismatches in hot paths panic with a descriptive message (the
/// idiomatic choice for a numeric kernel); this error type covers the
/// conditions a caller can reasonably recover from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An iterative algorithm (e.g. the Jacobi eigensolver) failed to reach
    /// its convergence tolerance within its sweep budget.
    NoConvergence {
        /// Human-readable name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of iterations/sweeps performed before giving up.
        iterations: usize,
    },
    /// A constructor received data whose length does not match `rows * cols`.
    ShapeMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// The operation requires a non-empty matrix.
    Empty,
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::NoConvergence {
                algorithm,
                iterations,
            } => write!(f, "{algorithm} did not converge after {iterations} iterations"),
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} elements, got {actual}")
            }
            TensorError::Empty => write!(f, "operation requires a non-empty matrix"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias for tensor results.
pub type Result<T> = std::result::Result<T, TensorError>;
