//! # runtime — a PaRSEC-like dataflow task runtime
//!
//! The paper delegates inter-node communication of a 2D stencil to the
//! PaRSEC runtime; this crate is a from-scratch Rust reimplementation of
//! the parts that carry the paper's argument:
//!
//! * [`task`] — the Parameterized Task Graph model: task classes indexed
//!   by integer parameters, declaring placement, dataflow inputs and
//!   consumers as pure functions ([`TaskClass`], [`TaskGraph`],
//!   [`Program`]);
//! * [`pending`] — dynamic DAG unfolding by activation counting: one
//!   dense [`PendingTable`] per run, an entry per task slot
//!   ([`TaskGraph::slot`]), shared by every thread of the threaded engine
//!   and used single-threaded by the simulator;
//! * [`payload`] — the per-thread free list that recycles flow payload
//!   buffers, so a steady-state halo exchange allocates nothing;
//! * [`deque`] — the bounded Chase–Lev work-stealing deque
//!   ([`StealDeque`]) each threaded-engine worker owns; the dispatch loop
//!   built on it (own deque → own inbox → seeded steal sweep, with every
//!   task queued on its home lane, [`TaskClass::home`]) is documented in
//!   `docs/EXECUTOR.md`;
//! * [`unfold`] — static enumeration of the whole DAG as data
//!   ([`UnfoldedDag`]), the substrate of the `analyze` crate's passes and
//!   the graph the `insight` crate joins dynamic spans against;
//! * [`exec`] — **the single entry point**: [`run`] dispatches a
//!   [`Program`] to the engine selected by a builder-style [`RunConfig`]
//!   ([`ExecMode::MultiProcess`], [`ExecMode::Simulated`]) and returns
//!   one uniform [`RunReport`] carrying occupancy, an `obs` metric
//!   snapshot, and optionally the full span trace;
//! * [`mp_exec`] — the threaded engine: real threads and real task
//!   bodies, a thread pool per node plus, when there are several nodes, a
//!   per-node communication thread with real channel-borne messages
//!   (stress-tests the distributed logic under true races); one node is
//!   one address space, the paper's single-node runs (Figure 6);
//! * [`sim_exec`] — the virtual-time engine over [`desim`]/[`netsim`]: a
//!   whole cluster per run, one comm thread per node, optional real body
//!   execution, trace capture (Figures 7–10); [`DagSim`] drives the same
//!   model over an [`UnfoldedDag`] with given durations (what-if);
//! * [`scheduler`] — the [`SchedulerPolicy`] (FIFO, LIFO or class
//!   priority) every engine's ready queues follow; placement is always
//!   owner-computes ([`TaskClass::node_of`]);
//! * [`dtd`] — the Dynamic Task Discovery insertion API (PaRSEC's second
//!   DSL) as an alternative front-end.
//!
//! Figure 10's occupancy and Gantt digests live in `obs::fig10`.
//!
//! Configuration follows the workspace-wide builder convention (shared
//! with `ca_stencil::StencilConfig`): a constructor fixes the required
//! dimensions — [`RunConfig::shared_memory`], [`RunConfig::multi_process`],
//! [`RunConfig::simulated`] — and chainable `with_*` methods set
//! everything optional (`with_profile`, `with_scheduler`, `with_bodies`,
//! `with_trace`, `with_comm_engines`, `with_kind_names`).

#![deny(missing_docs)]

pub mod deque;
mod dispatch;
pub mod dtd;
pub mod exec;
#[cfg(all(test, loom))]
mod loom_model;
pub mod mp_exec;
pub mod payload;
pub mod pending;
pub mod ready_queue;
pub mod scheduler;
pub mod sim_exec;
pub mod task;
pub mod unfold;

pub use deque::{Steal, StealDeque};
pub use dtd::{DtdBuilder, DtdTaskId};
pub use exec::{run, ExecMode, RunConfig, RunReport};
pub use pending::{Delivery, DeliveryBatch, PendingTable, ReadyTask, SpareTasks};
pub use scheduler::SchedulerPolicy;
pub use sim_exec::DagSim;
pub use task::{
    ClassId, FlowData, Footprint, OutputDep, Params, Program, Rect, TaskClass, TaskGraph, TaskKey,
};
pub use unfold::{assert_consistent, EdgeRef, InEdges, StructuralFault, UnfoldedDag};
