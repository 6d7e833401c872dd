//! A user-facing Jacobi solve driver: run the dataflow iteration in
//! chunks, check convergence between chunks, stop at a tolerance — the
//! interface a downstream application (the paper's "domain scientist")
//! would actually call.
//!
//! Between chunks the driver gathers the field and measures the maximum
//! point-wise change across the chunk (a stagnation residual); within a
//! chunk the iteration runs at full dataflow speed with no global
//! synchronization — exactly the structure the paper's Krylov motivation
//! implies: amortize the global check over many communication-avoided
//! sweeps.

use crate::ca::{build_on, new_store, Scheme};
use crate::config::StencilConfig;
use crate::reference::max_abs_diff;
use runtime::{run, RunConfig};
use serde::Serialize;
use std::sync::Arc;

/// Outcome of a chunked solve.
#[derive(Debug, Clone, Serialize)]
pub struct SolveReport {
    /// Total Jacobi iterations performed.
    pub iterations_run: u32,
    /// `(iterations so far, max point-wise change over the last chunk)`
    /// after each chunk.
    pub residual_history: Vec<(u32, f64)>,
    /// True when the last chunk's change dropped below the tolerance.
    pub converged: bool,
    /// Total wall-clock time in the executor, seconds.
    pub wall_time: f64,
}

/// The chunked solver.
#[derive(Debug, Clone)]
pub struct JacobiSolver {
    /// Problem and scheme parameters (`iterations` is ignored; the solver
    /// sets it per chunk).
    pub cfg: StencilConfig,
    /// Scheme to run: base or CA.
    pub scheme: Scheme,
    /// Iterations per chunk between convergence checks.
    pub check_every: u32,
    /// Worker threads for the shared-memory executor.
    pub threads: usize,
}

impl JacobiSolver {
    /// A solver with the paper-ish defaults: CA scheme, convergence check
    /// every 4 × step size iterations, four threads.
    pub fn new(cfg: StencilConfig) -> Self {
        let check_every = (4 * cfg.steps as u32).max(1);
        JacobiSolver {
            cfg,
            scheme: Scheme::Ca,
            check_every,
            threads: 4,
        }
    }

    /// Run until the max point-wise change over a chunk drops below `tol`
    /// or `max_iters` iterations have run. Returns the final field and the
    /// report.
    pub fn solve(&self, tol: f64, max_iters: u32) -> (Vec<f64>, SolveReport) {
        assert!(
            self.check_every >= 1,
            "need at least one iteration per chunk"
        );
        assert!(tol >= 0.0, "tolerance must be non-negative");
        let store = new_store(&self.cfg, self.scheme);

        let mut report = SolveReport {
            iterations_run: 0,
            residual_history: Vec::new(),
            converged: false,
            wall_time: 0.0,
        };
        let mut field = store.gather();
        while report.iterations_run < max_iters {
            let chunk = self.check_every.min(max_iters - report.iterations_run);
            let mut cfg = self.cfg.clone();
            cfg.iterations = chunk;
            let build = build_on(&cfg, self.scheme, Arc::clone(&store));
            let r = run(&build.program, &RunConfig::shared_memory(self.threads));
            report.wall_time += r.makespan;
            report.iterations_run += chunk;

            let new_field = store.gather();
            let change = max_abs_diff(&new_field, &field);
            field = new_field;
            report
                .residual_history
                .push((report.iterations_run, change));
            if change <= tol {
                report.converged = true;
                break;
            }
        }
        (field, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::reference::jacobi_reference;
    use netsim::ProcessGrid;

    fn cfg() -> StencilConfig {
        StencilConfig::new(Problem::laplace(24), 4, 0, ProcessGrid::new(2, 2)).with_steps(3)
    }

    #[test]
    fn chunked_solve_equals_one_shot_bitwise() {
        // 3 chunks of 4 iterations == 12 straight iterations
        let mut solver = JacobiSolver::new(cfg());
        solver.check_every = 4;
        let (field, report) = solver.solve(0.0, 12);
        assert_eq!(report.iterations_run, 12);
        let want = jacobi_reference(&cfg().problem, 12);
        assert_eq!(max_abs_diff(&field, &want), 0.0);
        assert_eq!(report.residual_history.len(), 3);
    }

    #[test]
    fn converges_on_laplace() {
        let mut solver = JacobiSolver::new(cfg());
        solver.check_every = 50;
        let (_, report) = solver.solve(1e-10, 20_000);
        assert!(report.converged, "did not converge: {report:?}");
        // residuals decrease overall
        let first = report.residual_history.first().unwrap().1;
        let last = report.residual_history.last().unwrap().1;
        assert!(last < first / 10.0);
    }

    #[test]
    fn base_and_ca_schemes_agree() {
        let mut a = JacobiSolver::new(cfg());
        a.scheme = Scheme::Base;
        a.check_every = 5;
        let mut b = JacobiSolver::new(cfg());
        b.scheme = Scheme::Ca;
        b.check_every = 5;
        let (fa, _) = a.solve(0.0, 10);
        let (fb, _) = b.solve(0.0, 10);
        assert_eq!(max_abs_diff(&fa, &fb), 0.0);
    }

    #[test]
    fn max_iters_respected_without_convergence() {
        let mut solver = JacobiSolver::new(cfg());
        solver.check_every = 4;
        let (_, report) = solver.solve(0.0, 7); // tol 0 never converges
        assert_eq!(report.iterations_run, 7);
        assert!(!report.converged);
        // last chunk clipped to 3 iterations
        assert_eq!(report.residual_history.last().unwrap().0, 7);
    }
}
