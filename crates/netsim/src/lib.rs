//! # netsim — the simulated interconnect
//!
//! The paper's experiments ran over InfiniBand QDR (NaCL) and Intel
//! Omni-Path (Stampede2). This crate substitutes a calibrated
//! point-to-point cost model running inside the [`desim`] engine:
//!
//! * [`model`] — [`NetworkModel`]: LogGP-style `o + L + n/B` with an
//!   eager/rendezvous protocol switch, parameterized per machine profile;
//! * [`topology`] — [`ProcessGrid`]: the square logical node grid the
//!   paper arranges its runs on, over a full-crossbar fabric;
//! * [`netpipe`] — the NetPIPE ping-pong benchmark, reproducing the
//!   bandwidth-vs-message-size curves of the paper's Figure 5;
//! * [`collective`] — tree and Rabenseifner collective cost models for the
//!   Krylov-solver workloads the paper motivates.

#![deny(missing_docs)]

pub mod collective;
pub mod inflight;
pub mod model;
pub mod netpipe;
pub mod topology;

pub use collective::CollectiveModel;
pub use inflight::InFlight;
pub use model::NetworkModel;
pub use netpipe::{netpipe_sweep, ping_pong, NetPipePoint};
pub use topology::{NodeId, ProcessGrid};
