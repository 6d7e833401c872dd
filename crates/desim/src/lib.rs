//! # desim — deterministic discrete-event simulation engine
//!
//! The substrate beneath the distributed experiments in this repository.
//! The paper ran on two real clusters (NaCL and Stampede2); this crate
//! provides the virtual machinery on which we replay the same executions:
//!
//! * [`time`] — integral nanosecond [`VirtualTime`]/[`VirtualDuration`], so
//!   simulations are bit-reproducible;
//! * [`engine`] — a typed event loop ([`Engine`], [`Model`], [`Scheduler`])
//!   with stable FIFO ordering of simultaneous events.
//!
//! The engine is callback-free and coroutine-free: a model is a state
//! machine over its own event enum. This keeps the hot loop allocation-light
//! and makes model logic unit-testable in isolation.
//!
//! ```
//! use desim::{Engine, Model, Scheduler, VirtualDuration, VirtualTime};
//!
//! /// Count pings until a deadline.
//! struct Ping { count: u32 }
//! impl Model for Ping {
//!     type Event = ();
//!     fn handle(&mut self, _now: VirtualTime, _ev: (), sched: &mut Scheduler<()>) {
//!         self.count += 1;
//!         if self.count < 5 {
//!             sched.schedule_in(VirtualDuration::from_micros(10), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ping { count: 0 });
//! engine.prime(());
//! let end = engine.run();
//! assert_eq!(engine.model().count, 5);
//! assert_eq!(end.as_nanos(), 4 * 10_000);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod time;

pub use engine::{Engine, Model, Scheduler};
pub use time::{VirtualDuration, VirtualTime};
