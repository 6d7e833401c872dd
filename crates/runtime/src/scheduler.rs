//! The scheduling policy: **which** ready task a worker picks.
//!
//! PaRSEC's dynamic schedulers differ only in the order a node's ready
//! tasks leave its queue; placement is owner-computes, read from
//! [`crate::TaskClass::node_of`]. This module is that one choice, the
//! [`SchedulerPolicy`] stored in [`crate::RunConfig::scheduler`]:
//!
//! | policy | next task |
//! |--------|-----------|
//! | [`SchedulerPolicy::Fifo`] (default) | oldest ready task |
//! | [`SchedulerPolicy::Lifo`] | newest ready task |
//! | [`SchedulerPolicy::Priority`] | highest [`crate::TaskClass::priority`], FIFO by arrival within a level |
//!
//! Every engine builds its ready queues straight from the policy and the
//! program's [`crate::TaskGraph`] (see
//! [`ReadyQueue::new`](crate::ready_queue::ReadyQueue::new)). Priority
//! ties break by a monotone arrival sequence, so a priority run over
//! equal priorities *is* a FIFO run.
//!
//! # Policies and the work-stealing executors
//!
//! The real executors dispatch through per-worker lock-free deques (see
//! `docs/EXECUTOR.md`), which changes *where* each policy is enforced but
//! not *what* it promises:
//!
//! * `Fifo` / `Lifo` lanes use the deque directly — FIFO owners pop from
//!   the steal end so local order matches the central-queue order, LIFO
//!   owners pop from the bottom;
//! * `Priority` lanes keep a small mutex-guarded
//!   [`ReadyQueue`](crate::ready_queue::ReadyQueue) per lane, because
//!   best-first selection needs a global view a deque cannot give;
//!   thieves lock it to steal the victim's highest-priority task.
//!
//! Determinism splits accordingly: the simulator remains **bit-identical**
//! under a fixed config, while the real engines are **seed-stable** — the
//! steal victim order is a pure function of
//! [`crate::RunConfig::with_steal_seed`], but OS thread timing still
//! decides which worker wins a race, so only per-lane order (not the
//! global interleaving) is reproducible.

use serde::Serialize;

/// Ready-queue discipline of the node-local scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum SchedulerPolicy {
    /// Oldest ready task first (the default of every engine).
    #[default]
    Fifo,
    /// Newest ready task first (depth-first; PaRSEC's default locality
    /// heuristic).
    Lifo,
    /// Highest [`crate::task::TaskClass::priority`] first, FIFO within a
    /// level (e.g. boundary tiles before interior tiles, so their strips
    /// reach the comm thread early).
    Priority,
}

impl SchedulerPolicy {
    /// Stable short name, recorded in [`crate::RunReport::scheduler`] and
    /// every exported trace/metric header.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::Lifo => "lifo",
            SchedulerPolicy::Priority => "priority",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_fifo_is_the_default() {
        assert_eq!(SchedulerPolicy::Fifo.name(), "fifo");
        assert_eq!(SchedulerPolicy::Lifo.name(), "lifo");
        assert_eq!(SchedulerPolicy::Priority.name(), "priority");
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Fifo);
    }
}
