//! # qr2-sched — the per-source query scheduler
//!
//! QR2 pays for every web-database probe, and real sources meter that
//! traffic (rate limits — see [`qr2_webdb::SourcePolicy`]). This crate
//! sits between the shared answer cache and the traffic-shaped interface
//! and decides **which** pending probe to spend the next admitted token
//! on:
//!
//! * **Admission queue with round-robin fair share** — each source has
//!   one [`SourceScheduler`]; pending probes queue per session, and a
//!   round-robin ring dispatches one probe per session per pass, so no
//!   session starves behind a hot competitor.
//! * **Priority classes** — [`qr2_core::QueryClass::Interactive`] probes (a user
//!   waiting on a page) strictly precede [`qr2_core::QueryClass::Background`]
//!   (crawls, prefetch).
//! * **Token-bucket pacing** — the scheduler dispatches through
//!   [`qr2_webdb::TopKInterface::probe`], which returns a simulated 429 as
//!   an error instead of blocking, so a 429 never reaches the engines: the
//!   probe is requeued and retried when the bucket refills.
//!
//! The scheduler pays every probe it is given. Coalescing is the answer
//! cache's job: it sits above the scheduler in every source's stack and
//! single-flights identical probes, so concurrent identical misses reach
//! the scheduler as one probe.
//!
//! The scheduler has no threads of its own: every blocked submitter
//! cooperatively dispatches whatever probe the fair-share scan picks next,
//! so liveness never depends on a background worker.
//!
//! Sessions identify themselves with the ambient [`qr2_core::SessionCtx`]
//! (thread-local), installed by the service around each engine step and
//! re-installed by the parallel executor on its worker threads; work
//! submitted without a context shares one anonymous best-effort session.

mod sched;

pub use sched::{ClassSnapshot, SchedConfig, SchedSnapshot, SourceScheduler};
