//! # ca-stencil — communication-avoiding 2D stencils over a dataflow runtime
//!
//! The paper's primary contribution, reimplemented on this repository's
//! PaRSEC-like [`runtime`]: the 2D five-point Jacobi iteration as one
//! stencil task class in two [`Scheme`]s ([`ca`]). The schemes differ
//! only in which flows carry an `s`-deep strip (the deep-edge rule) and in
//! how a node-boundary tile spends the iterations between exchanges —
//!
//! * base — one task per tile per iteration, one-layer ghost exchange
//!   with every neighbour every iteration (Section IV-B1; no edge is
//!   deep);
//! * CA — the PA1 communication-avoiding variant: node-boundary tiles
//!   keep `s`-deep ghost rings (plus corner blocks), communicate every `s`
//!   iterations and redundantly recompute the shrinking halo in between
//!   (Section IV-B2; an edge into a boundary tile is deep).
//!
//! Supporting modules: [`dtd_front`] (the base scheme inserted task by
//! task), [`solver`] (chunked solves), [`geometry`] (tiling and 2D block distribution),
//! [`tile`] (double-buffered tiles, ghost strips/corners, the 9-flop
//! generalized Jacobi kernel), [`store`] (per-tile data), [`problem`]
//! (Laplace instances and test fields), [`mod@reference`] (sequential ground
//! truth), [`flows`] (slot conventions), [`config`] (run configuration),
//! [`metrics`] (analytic message/flop accounting).
//!
//! Base and CA reproduce the sequential reference **bit for bit** — the
//! update expression is evaluated in the same order everywhere, so even
//! floating-point rounding agrees; the test suites assert exact equality.
//!
//! Configuration follows the workspace-wide builder convention:
//! [`StencilConfig::new`] fixes the required dimensions, chainable
//! `with_*` methods (`with_steps`, `with_ratio`, `with_profile`) set
//! everything optional — the same shape as `runtime::RunConfig`
//! (`with_scheduler`, `with_bodies`, `with_trace`) in the example below.
//!
//! ```
//! use ca_stencil::{build_base, Problem, StencilConfig};
//! use netsim::ProcessGrid;
//! use runtime::{run, RunConfig, SchedulerPolicy};
//!
//! let cfg = StencilConfig::new(Problem::laplace(16), 4, 3, ProcessGrid::new(2, 2));
//! let build = build_base(&cfg, true);
//! let report = run(
//!     &build.program,
//!     &RunConfig::simulated(machine::MachineProfile::nacl(), 4)
//!         .with_scheduler(SchedulerPolicy::Lifo)
//!         .with_bodies(),
//! );
//! assert_eq!(report.tasks_executed, 16 * 4); // 16 tiles × (3 iters + init)
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ca;
pub mod config;
pub mod dtd_front;
pub mod flows;
pub mod geometry;
pub mod metrics;
pub mod problem;
pub mod reference;
pub mod solver;
pub mod store;
pub mod tile;

pub use ca::{build_base, build_base_on, build_ca, build_ca_on, build_ca_shrunk, Scheme};
pub use config::{StencilBuild, StencilConfig};
pub use dtd_front::build_base_dtd;
pub use flows::{kind_names, KIND_BOUNDARY, KIND_INIT, KIND_INTERIOR};
pub use geometry::{Corner, Side, StencilGeometry};
pub use problem::{CoefFn, Operator, Problem, ValueFn};
pub use reference::{jacobi_reference, laplace_residual, max_abs_diff};
pub use solver::{JacobiSolver, SolveReport};
pub use store::TileStore;
pub use tile::{Extents, TileBuf, Weights};
