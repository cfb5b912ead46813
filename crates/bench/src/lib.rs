//! # qr2-bench — the experiment harness
//!
//! Every figure and demonstration scenario of the QR2 paper has a
//! regeneration function in [`experiments`]. The `figures` binary prints
//! the tables and writes CSVs to `target/figures/`.
//!
//! `figures -- --smoke` runs the seven smoke scenarios (the `*_smoke`
//! modules). Each returns a [`Report`] in the one schema of [`report`],
//! written as a committed `BENCH_pr*.json`; the runner
//! ([`report::run_suite`]) fails on any failing contract or any drift of
//! a deterministic value from the committed file.
//!
//! The cost metric throughout is the paper's: **queries issued to the web
//! database**, which is deterministic given the workload seed. Wall time
//! appears only where the paper reports it (Fig. 4), in the parallelism
//! ablation and in the smoke reports' `measured` values.

pub mod cache_smoke;
pub mod experiments;
pub mod fault_smoke;
pub mod obs_smoke;
pub mod perf_smoke;
pub mod recon_smoke;
pub mod report;
pub mod sched_smoke;
pub mod smoke;
pub mod workloads;

pub use cache_smoke::run_cache_smoke;
pub use experiments::*;
pub use fault_smoke::{run_fault_smoke, FaultSmokeConfig};
pub use obs_smoke::{run_obs_smoke, ObsSmokeConfig};
pub use perf_smoke::{run_perf_smoke, PerfSmokeConfig};
pub use recon_smoke::{run_recon_smoke, ReconSmokeConfig};
pub use report::{write_csv, Contract, Report, Table};
pub use sched_smoke::run_sched_smoke;
pub use smoke::run_smoke;
