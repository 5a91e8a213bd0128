//! The `f64` numerics the SVDD, GMM and PCA-SVD baselines need, and nothing
//! else: a dense row-major [`matrix::Matrix`], per-column statistics and
//! z-score standardization ([`stats`]), and the symmetric Jacobi
//! eigendecomposition behind PCA ([`decomp`]).
//!
//! Crate-private on purpose: rustc's `dead_code` lint then holds this
//! module to exactly what the baselines call.

pub(crate) mod decomp;
pub(crate) mod matrix;
pub(crate) mod stats;
