//! # machine — hardware profiles, measured benchmarks, and cost models
//!
//! This crate is the bridge between the paper's evaluation machines and the
//! simulator:
//!
//! * [`profile`] — [`MachineProfile`] constants for **NaCL** and
//!   **Stampede2** taken from the paper (cores, STREAM Table I bandwidths,
//!   NetPIPE network parameters), plus a `localhost` constructor fed by
//!   locally measured STREAM;
//! * [`stream`] — a real, runnable STREAM benchmark (COPY/SCALE/ADD/TRIAD),
//!   single- and multi-threaded, reproducing Table I on the host;
//! * [`roofline`] — the roofline bound the paper uses in Section VI-A
//!   (stencil intensity 0.375–0.5625 flop/byte);
//! * [`stencil_model`] — calibrated service-time model for tiled 5-point
//!   Jacobi tasks (drives Figures 6–10 in simulation), including the
//!   "kernel adjustment ratio" of Figures 8–9;
//! * [`spmv_model`] — the PETSc-style SpMV baseline's cost model
//!   (64-bit index traffic, one rank per core).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod profile;
pub mod roofline;
pub mod spmv_model;
pub mod stencil_model;
pub mod stream;

pub use profile::MachineProfile;
pub use roofline::{stencil_window, RooflineWindow};
pub use spmv_model::SpmvCostModel;
pub use stencil_model::StencilCostModel;
pub use stream::{run_stream, StreamKernel, StreamResult};
