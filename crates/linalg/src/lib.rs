//! # s2g-linalg
//!
//! Small, dependency-light dense linear-algebra kernels needed by the
//! Series2Graph embedding and node-extraction steps:
//!
//! * [`matrix::DMatrix`] — row-major dense matrix with the handful of
//!   operations the pipeline needs (multiplication, transpose, column
//!   centring, Gram matrices),
//! * [`eigen`] — cyclic Jacobi eigen-decomposition of symmetric matrices,
//! * [`svd`] — randomized truncated SVD following Halko, Martinsson & Tropp
//!   (the method cited by the paper for the PCA step),
//! * [`pca`] — principal component analysis with both an exact covariance
//!   solver and the randomized solver, used to produce the 3-dimensional
//!   reduced projection `Proj_r(T, ℓ, λ)`,
//! * [`rotation`] — 3-D rotation matrices (per-axis and axis–angle) used to
//!   align the reference vector `v_ref` with the x-axis and obtain
//!   `SProj(T, ℓ, λ)`,
//! * [`kde`] — Gaussian kernel density estimation with Scott's bandwidth rule
//!   and local-maxima extraction, used to turn radius sets `I_ψ` into graph
//!   nodes,
//! * [`vector`] — small fixed-size vector helpers (`Vec2`/`Vec3`),
//! * [`par`] — scoped fan-out of the fit kernels across threads, with
//!   results reassembled in a fixed order so outputs never depend on the
//!   thread count.
//!
//! Everything is deterministic given an explicit random seed; the only
//! dependency is `rand` for the Gaussian test matrix of the randomized SVD.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eigen;
pub mod error;
pub mod kde;
pub mod matrix;
pub mod par;
pub mod pca;
pub mod rotation;
pub mod svd;
pub mod vector;

pub use error::{Error, Result};
pub use matrix::DMatrix;
pub use pca::Pca;
pub use vector::{Vec2, Vec3};
