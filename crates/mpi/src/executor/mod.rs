//! The sanctioned execution substrate for simulated ranks.
//!
//! Everything that turns rank *programs* into running *worlds* lives under
//! this module — and only here: a `dlsr-lint` rule (`thread-spawn`) rejects
//! `std::thread::spawn`/`JoinHandle` anywhere else in the rank-execution
//! crates, so the thread-per-rank model this module replaces cannot creep
//! back in through a side door.
//!
//! Two cores share one message fabric contract (exact `(src, tag)`
//! matching, per-sender FIFO, LogGP arrival stamps — see `docs/SIMCORE.md`
//! for the determinism argument) and run the same collective state
//! machines:
//!
//! - `context::run_event` — runs every `MpiWorld::run` closure. Per-rank
//!   closures run on OS threads used purely as *coroutine contexts*: at
//!   most `workers` run tokens exist, a blocked recv parks the rank and
//!   releases its token, and the `fabric::EventFabric` grants freed tokens
//!   to eligible ranks in deterministic `(virtual_time, rank)` order.
//! - `driven::run` — zero threads. Rank programs are resumable state
//!   machines ([`RankProgram`] yielding [`EventTask`]s) stepped by a
//!   single-threaded virtual-time event loop; this is the core that takes
//!   worlds to 512–4096 ranks.
//!
//! The two are each other's bitwise-equivalence baseline: the same
//! program driven on either, at any worker count, yields identical clocks
//! and results.

pub(crate) mod budget;
pub(crate) mod context;
pub mod driven;
pub(crate) mod fabric;

pub use driven::{drive_program, drive_task, EventTask, Poll, RankProgram, Step, Task};
