//! # spmv — the PETSc-style baseline
//!
//! The paper's baseline implements Jacobi iteration as repeated sparse
//! matrix–vector products in PETSc (Section IV-A). This crate reproduces
//! that formulation:
//!
//! * [`csr`] — CSR with 64-bit indices (the paper builds PETSc with 64-bit
//!   ints and charges the index loads against it);
//! * [`laplacian`] — the 5-point update assembled as `x' = A·x + b` on the
//!   flattened grid vector;
//! * [`dist`] — PETSc's default row-block partition, one rank per core,
//!   with the `VecScatter`-style one-grid-row ghost exchange emulated and
//!   *checked* (any out-of-halo access panics);
//! * [`perf`] — the calibrated bulk-synchronous performance model used by
//!   the Figure 7 strong-scaling comparison.
//!
//! The numerical result agrees with the stencil reference to rounding
//! (the CSR accumulation order differs from the stencil kernel's fixed
//! expression, so agreement is ~1e-14, not bitwise — same as real PETSc).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod dist;
pub mod laplacian;
pub mod perf;

pub use csr::Csr;
pub use dist::{partition, run_distributed, ExchangeStats, RankRange};
pub use laplacian::{initial_vector, stencil_matrix};
pub use perf::{PetscModel, PetscPrediction};
