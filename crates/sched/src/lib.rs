//! # qr2-sched — the per-source query scheduler
//!
//! QR2 pays for every web-database probe, and real sources meter that
//! traffic (rate limits — see [`qr2_webdb::SourcePolicy`]). This crate
//! sits between the shared answer cache and the traffic-shaped interface
//! and decides **which** pending probe to spend the next admitted token
//! on, and **how many** probes need to be paid for at all:
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
//! * **Frontier coalescing** — when one session's pending probe *covers*
//!   another's ([`qr2_webdb::SearchQuery::covers`]), one covering query is
//!   issued and the answer is fanned out to every waiter, each waiter's
//!   page derived exactly from the covering page
//!   ([`coalesce::derive_answer`]). This extends `qr2-cache`'s identical-
//!   key single-flight to *overlapping* query frontiers.
//!
//! The scheduler has no threads of its own: every blocked submitter
//! cooperatively dispatches whatever probe the fair-share scan picks next,
//! so liveness never depends on a background worker.
//!
//! Sessions identify themselves with the ambient [`qr2_core::SessionCtx`]
//! (thread-local), installed by the service around each engine step and
//! re-installed by the parallel executor on its worker threads; work
//! submitted without a context shares one anonymous best-effort session.

pub mod coalesce;
mod sched;

pub use sched::{ClassSnapshot, SchedConfig, SchedSnapshot, SourceScheduler};
