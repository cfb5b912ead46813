//! The live reconstruction of one source and its budgeted driver.
//!
//! ## State model
//!
//! A reconstruction is `(epoch, root, pending, atomic, tuples)`:
//!
//! * `root` — the region the reconstruction set out to cover (usually the
//!   whole query space);
//! * `pending` — regions whose tuples are not all retrieved yet: the
//!   resumable work-list. Split halves replace their parent, completed
//!   leaves disappear;
//! * `atomic` — unsplittable regions that still overflow (more than
//!   `system-k` hidden tuples identical on every searchable attribute):
//!   permanently uncoverable holes;
//! * `tuples` — every tuple retrieved so far, deduplicated and ordered by
//!   id: one immutable snapshot, replaced (never mutated) by each merge,
//!   whose per-attribute columns and sorted projections are built on
//!   first use and shared by every cursor over that version.
//!
//! A conjunctive region `q` is **covered** iff the reconstruction is at
//! the caller's current epoch, `root` covers `q`, and `q` intersects no
//! pending or atomic region. Because split halves partition their parent
//! exactly (see `qr2-crawler`), every tuple of a covered region is in
//! `tuples` — so the tuples matching `q`, pulled in [`crate::ServeOrder`]
//! by a [`ReconCursor`], reproduce the live engines' output byte for
//! byte.
//!
//! The driver and the opportunistic feed path only ever shrink coverage
//! claims on crash or race (a checkpoint's frontier is a superset of the
//! truly uncovered regions): the index under-claims, never over-claims.

use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use qr2_core::{CancelToken, Normalizer};
use qr2_crawler::{effective_cats, effective_range, split_region, SplitPolicy};
use qr2_sched::context::{next_session_key, with_session};
use qr2_sched::{QueryClass, SessionCtx};
use qr2_store::RankIndex;
use qr2_webdb::{
    Answer, AttrId, AttrKind, Schema, SearchError, SearchQuery, TopKInterface, TopKResponse, Tuple,
};

use crate::cursor::{ReconCursor, TupleSet};
use crate::serve::ServeOrder;

/// In-memory reconstruction state (behind [`ReconIndex`]'s lock).
#[derive(Debug, Default)]
struct State {
    epoch: u64,
    root: Option<SearchQuery>,
    pending: Vec<SearchQuery>,
    atomic: Vec<SearchQuery>,
    tuples: Arc<TupleSet>,
    budget_spent: u64,
}

/// Job bookkeeping: at most one reconstruction job per source at a time.
#[derive(Debug, Default)]
struct Jobs {
    next_id: u64,
    running: Option<(u64, CancelToken)>,
    last: Option<JobReport>,
}

/// Options for one reconstruction job.
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// Region to reconstruct (`None` = the whole query space). Changing
    /// the root restarts the reconstruction from scratch.
    pub root: Option<SearchQuery>,
    /// Paid web-DB queries this job may spend; the work-list persists
    /// across jobs, so a follow-up job resumes where the budget ran out.
    pub max_queries: usize,
    /// Paid queries between incremental checkpoints.
    pub checkpoint_every: usize,
    /// Region split policy.
    pub policy: SplitPolicy,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            root: None,
            max_queries: 10_000,
            checkpoint_every: 32,
            policy: SplitPolicy::WidestRelative,
        }
    }
}

/// Outcome of one reconstruction job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job id (unique per source).
    pub job_id: u64,
    /// `"complete"`, `"budget_exhausted"`, `"cancelled"`, or `"failed"`
    /// (a probe failed at the source; the failed region stays pending).
    pub state: &'static str,
    /// Paid web-DB queries this job spent.
    pub paid_queries: usize,
    /// Probes served free (answer-cache hits and coalesced waits).
    pub free_lookups: usize,
    /// Leaf regions fully retrieved by this job.
    pub regions_completed: usize,
    /// New tuples this job added to the index.
    pub tuples_added: usize,
    /// Persistence failures (the in-memory index kept going; the
    /// checkpointed state on disk is behind but still consistent).
    pub persist_errors: usize,
}

/// Why a job could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconJobError {
    /// Another reconstruction job for this source is still running.
    Busy {
        /// The running job's id.
        job_id: u64,
    },
}

impl std::fmt::Display for ReconJobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconJobError::Busy { job_id } => {
                write!(f, "reconstruction job r{job_id} is still running")
            }
        }
    }
}

impl std::error::Error for ReconJobError {}

/// A running or finished job, for the status endpoint.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// `"running"` or the finished job's [`JobReport::state`].
    pub state: &'static str,
}

/// One source's reconstruction status snapshot.
#[derive(Debug, Clone)]
pub struct ReconStatus {
    /// `"empty"`, `"partial"`, or `"complete"`.
    pub state: &'static str,
    /// True when the reconstruction predates the current epoch (a cache
    /// flush invalidated it); covered serving is suspended until re-crawl.
    pub stale: bool,
    /// Epoch the reconstruction was built under.
    pub epoch: u64,
    /// Covered fraction of the root region's volume (estimate; the
    /// per-region covered check is exact).
    pub coverage: f64,
    /// Uncovered work-list regions.
    pub pending_regions: usize,
    /// Permanently uncoverable (atomic-overflow) regions.
    pub atomic_regions: usize,
    /// Tuples retrieved so far.
    pub tuples: usize,
    /// Paid web-DB queries spent across all jobs.
    pub budget_spent: u64,
    /// The running job, or the most recently finished one.
    pub job: Option<JobStatus>,
}

/// Outcome of a boot-time freshness check ([`ReconIndex::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Reconstructed tuples the check compared against.
    pub tuples: usize,
    /// Web-DB queries the check issued: none for an empty
    /// reconstruction, else one.
    pub queries: usize,
    /// True when the source disagrees with the reconstruction: its
    /// database changed since the crawl.
    pub stale: bool,
}

/// The live offline-reconstruction index of one source.
///
/// Thread-safe and cheap to share (`Arc`). Serving reads take a short
/// read lock; the driver and the opportunistic feed path take the write
/// lock only to merge checkpoints, never across web-DB probes or disk
/// writes.
pub struct ReconIndex {
    state: RwLock<State>,
    store: Mutex<Option<RankIndex>>,
    jobs: Mutex<Jobs>,
}

impl ReconIndex {
    /// An empty, memory-only index (nothing persists).
    pub fn ephemeral() -> ReconIndex {
        ReconIndex {
            state: RwLock::new(State::default()),
            store: Mutex::new(None),
            jobs: Mutex::new(Jobs::default()),
        }
    }

    /// Open (or create) a persisted index at `path` and warm-start from
    /// its checkpointed state.
    pub fn open(path: impl AsRef<Path>) -> qr2_store::Result<ReconIndex> {
        let store = RankIndex::open(path)?;
        let snap = store.load()?;
        let mut tuples = Arc::default();
        TupleSet::absorb(&mut tuples, snap.tuples);
        let state = State {
            epoch: snap.epoch,
            root: snap.root,
            pending: snap.pending,
            atomic: snap.atomic,
            tuples,
            budget_spent: snap.budget_spent,
        };
        Ok(ReconIndex {
            state: RwLock::new(state),
            store: Mutex::new(Some(store)),
            jobs: Mutex::new(Jobs::default()),
        })
    }

    /// Epoch the reconstruction was built under.
    pub fn epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// True when `q` is covered at `current_epoch`: answers over `q` can
    /// be served from the reconstruction with zero web-DB queries.
    pub fn covered(&self, q: &SearchQuery, current_epoch: u64) -> bool {
        covered_locked(&self.state.read(), q, current_epoch)
    }

    /// A lazy cursor over the complete, engine-ordered answer set of a
    /// covered region: every indexed tuple matching `q`, pulled in the
    /// live engines' exact order. `None` when `q` is not covered — the
    /// caller must fall back to the live engine.
    ///
    /// `epoch_at` supplies the caller's current staleness epoch and is
    /// evaluated *while the read lock is held*, so the coverage check and
    /// the epoch read are one atomic decision — a cache flush cannot slip
    /// between them and let a just-invalidated reconstruction serve a
    /// brand-new session.
    ///
    /// Nothing is materialized or sorted here: the cursor shares the
    /// current tuple snapshot and its columns, projections and kd-trees
    /// (built once per version, on the first serve that needs them) and
    /// does its work as the session pulls pages.
    pub fn serve(
        &self,
        q: &SearchQuery,
        order: &ServeOrder,
        norm: &Normalizer,
        epoch_at: impl FnOnce() -> u64,
    ) -> Option<ReconCursor> {
        qr2_obs::span("recon.serve", || {
            let tuples = {
                let st = self.state.read();
                if !covered_locked(&st, q, epoch_at()) {
                    return None;
                }
                Arc::clone(&st.tuples)
            };
            Some(ReconCursor::new(tuples, q.clone(), order, norm))
        })
    }

    /// Build the columns of `attrs`, the sorted projections of the
    /// numeric ones, and the kd-tree over those numeric ones (the tree an
    /// MD order over exactly `attrs` walks), on the current tuple
    /// snapshot now. They are otherwise built by the first
    /// [`ReconIndex::serve`] that needs them — wall-clock benchmarks call
    /// this so that one-time cost is not charged to the first measured
    /// session.
    pub fn prewarm(&self, attrs: &[AttrId]) {
        let tuples = Arc::clone(&self.state.read().tuples);
        for &attr in attrs {
            tuples.projection(attr);
        }
        tuples.tree(attrs);
    }

    /// Opportunistically absorb a live answer observed during fallback
    /// serving: when a complete (non-overflowing) response's query covers
    /// one or more pending regions, those regions' tuples are all in the
    /// response — the regions leave the work-list without the driver
    /// spending anything. Ignored when the reconstruction is stale,
    /// unstarted, or the response proves nothing.
    pub fn feed_observed(&self, q: &SearchQuery, resp: &TopKResponse, current_epoch: u64) {
        if resp.overflow {
            return;
        }
        let (added, pending, atomic) = {
            let mut st = self.state.write();
            if st.root.is_none() || st.epoch != current_epoch || st.pending.is_empty() {
                return;
            }
            let before = st.pending.len();
            st.pending.retain(|r| !q.covers(r));
            if st.pending.len() == before {
                return;
            }
            let added = TupleSet::absorb(&mut st.tuples, resp.tuples.to_vec());
            (added, st.pending.clone(), st.atomic.clone())
        };
        if let Some(store) = self.store.lock().as_mut() {
            // Tuples strictly before the frontier: if the batch fails to
            // persist, the on-disk frontier must not shrink, or a
            // reopened index would claim coverage it cannot back.
            if store.append_tuples(&added).is_ok() {
                let _ = store.save_frontier(&pending, &atomic);
            }
        }
    }

    /// Boot-time freshness check (paper §II-B: "before the system boots
    /// up we verify the cache and update the changes from the web
    /// database"). An empty reconstruction issues no query. Otherwise the
    /// root region is probed once on `db` — the raw source, since a check
    /// served from the answer cache would always look fresh — and the
    /// reconstruction is stale when
    ///
    /// * a returned tuple that lies in no pending or atomic region is
    ///   missing from the index or differs from its indexed copy, or
    /// * the reconstruction is complete and the root's size disagrees:
    ///   the root fits in one page but holds a different number of
    ///   tuples, or it overflows while the index holds fewer than
    ///   `system_k`.
    ///
    /// One query, not a re-crawl. A failed probe proves nothing, so it
    /// reports fresh. The check only reads; the caller decides what to
    /// drop.
    pub fn verify(&self, db: &dyn TopKInterface) -> VerifyReport {
        let (root, pending, atomic, tuples) = {
            let st = self.state.read();
            let Some(root) = st.root.clone() else {
                return VerifyReport::default();
            };
            (
                root,
                st.pending.clone(),
                st.atomic.clone(),
                Arc::clone(&st.tuples),
            )
        };
        let mut report = VerifyReport {
            tuples: tuples.len(),
            queries: 1,
            stale: false,
        };
        let Ok(Answer { resp, .. }) = db.probe(&root) else {
            return report;
        };
        let unclaimed = |t: &Tuple| {
            pending
                .iter()
                .chain(&atomic)
                .any(|r| r.matches_with(|a| t.value(a)))
        };
        let differs = resp
            .tuples
            .iter()
            .filter(|t| !unclaimed(t))
            .any(|t| tuples.find(t.id) != Some(t));
        let complete = pending.is_empty() && atomic.is_empty();
        let miscounted = complete
            && if resp.overflow {
                tuples.len() < db.system_k()
            } else {
                resp.tuples.len() != tuples.len()
            };
        report.stale = differs || miscounted;
        report
    }

    /// Drop the reconstruction (memory and disk) and move to
    /// `current_epoch`. Cancels a running job at its next probe boundary.
    pub fn drop_index(&self, current_epoch: u64) -> qr2_store::Result<()> {
        if let Some((_, cancel)) = &self.jobs.lock().running {
            cancel.cancel();
        }
        *self.state.write() = State {
            epoch: current_epoch,
            ..State::default()
        };
        match self.store.lock().as_mut() {
            Some(store) => store.clear(current_epoch),
            None => Ok(()),
        }
    }

    /// Covered fraction of the root region's volume, in `[0, 1]`.
    /// Pending and atomic regions partition the uncovered remainder
    /// exactly (split halves never overlap), so the estimate is only
    /// approximate in how volume weighs region cardinality — the
    /// per-region [`ReconIndex::covered`] check stays exact.
    pub fn coverage(&self, schema: &Schema) -> f64 {
        let st = self.state.read();
        coverage_locked(&st, schema)
    }

    /// Status snapshot for the operational endpoint.
    pub fn status(&self, schema: &Schema, current_epoch: u64) -> ReconStatus {
        let st = self.state.read();
        let jobs = self.jobs.lock();
        let job = match (&jobs.running, &jobs.last) {
            (Some((id, _)), _) => Some(JobStatus {
                id: *id,
                state: "running",
            }),
            (None, Some(report)) => Some(JobStatus {
                id: report.job_id,
                state: report.state,
            }),
            (None, None) => None,
        };
        let state = match &st.root {
            None => "empty",
            Some(_) if st.pending.is_empty() && st.atomic.is_empty() => "complete",
            Some(_) => "partial",
        };
        ReconStatus {
            state,
            stale: st.root.is_some() && st.epoch != current_epoch,
            epoch: st.epoch,
            coverage: coverage_locked(&st, schema),
            pending_regions: st.pending.len(),
            atomic_regions: st.atomic.len(),
            tuples: st.tuples.len(),
            budget_spent: st.budget_spent,
            job,
        }
    }

    /// Run one budgeted reconstruction job to completion on the calling
    /// thread. At most one job runs per index; a second call while one is
    /// running returns [`ReconJobError::Busy`].
    ///
    /// Every probe is issued under an ambient background-class
    /// [`SessionCtx`], so a scheduling decorator in `db`'s stack queues
    /// reconstruction work behind interactive sessions — the fix for
    /// crawls driven outside an HTTP session, which previously fell into
    /// the anonymous *interactive* default.
    pub fn run_job<D: TopKInterface + ?Sized>(
        &self,
        db: &D,
        opts: &JobOptions,
        current_epoch: u64,
    ) -> Result<JobReport, ReconJobError> {
        let (job_id, cancel) = self.reserve_job()?;
        Ok(self.run_reserved(db, opts, current_epoch, job_id, cancel))
    }

    /// Reserve the single job slot under the lock; the returned id is
    /// the id that runs (no predicted-id races).
    fn reserve_job(&self) -> Result<(u64, CancelToken), ReconJobError> {
        let mut jobs = self.jobs.lock();
        if let Some((id, _)) = &jobs.running {
            return Err(ReconJobError::Busy { job_id: *id });
        }
        jobs.next_id += 1;
        let cancel = CancelToken::new();
        jobs.running = Some((jobs.next_id, cancel.clone()));
        Ok((jobs.next_id, cancel))
    }

    /// Run a job whose slot [`ReconIndex::reserve_job`] already holds,
    /// releasing the slot when it finishes.
    fn run_reserved<D: TopKInterface + ?Sized>(
        &self,
        db: &D,
        opts: &JobOptions,
        current_epoch: u64,
        job_id: u64,
        cancel: CancelToken,
    ) -> JobReport {
        let ctx =
            SessionCtx::new(next_session_key(), QueryClass::Background).with_cancel(cancel.clone());
        let report = with_session(ctx, || self.drive(db, opts, current_epoch, job_id, &cancel));
        let mut jobs = self.jobs.lock();
        jobs.running = None;
        jobs.last = Some(report.clone());
        report
    }

    /// Run a reconstruction job on a background thread and return the
    /// job id immediately (the HTTP `POST …/recon` path). The job slot
    /// is reserved under the lock *before* spawning, so two concurrent
    /// calls cannot both start a job, and a returned id always refers to
    /// the job that actually runs.
    pub fn start_job(
        self: &Arc<Self>,
        db: Arc<dyn TopKInterface>,
        opts: JobOptions,
        current_epoch: u64,
    ) -> Result<u64, ReconJobError> {
        let (job_id, cancel) = self.reserve_job()?;
        let index = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("qr2-recon-r{job_id}"))
            .spawn(move || {
                index.run_reserved(&*db, &opts, current_epoch, job_id, cancel);
            });
        if spawned.is_err() {
            // Could not get a thread: release the slot we reserved.
            self.jobs.lock().running = None;
            return Err(ReconJobError::Busy { job_id });
        }
        Ok(job_id)
    }

    /// The work loop: resumable region walk with incremental checkpoints.
    fn drive<D: TopKInterface + ?Sized>(
        &self,
        db: &D,
        opts: &JobOptions,
        epoch: u64,
        job_id: u64,
        cancel: &CancelToken,
    ) -> JobReport {
        let schema = db.schema();
        let root = opts.root.clone().unwrap_or_else(SearchQuery::all);
        let mut persist_errors = 0usize;

        // Fresh start or resume: an epoch or root change restarts.
        let (resume, mut worklist): (bool, Vec<(SearchQuery, usize)>) = {
            let mut st = self.state.write();
            let resume = st.epoch == epoch && st.root.as_ref() == Some(&root);
            if !resume {
                *st = State {
                    epoch,
                    root: Some(root.clone()),
                    pending: vec![root.clone()],
                    ..State::default()
                };
            }
            (resume, st.pending.iter().cloned().map(|q| (q, 0)).collect())
        };
        {
            let mut store = self.store.lock();
            if let Some(store) = store.as_mut() {
                // begin() wipes every persisted tuple batch, so it must
                // run exactly on a restart — never on a same-epoch resume
                // (however small its remaining work-list), where the
                // batches on disk back coverage the frontier already
                // claims.
                if (!resume || store.epoch() != epoch) && store.begin(epoch, &root).is_err() {
                    persist_errors += 1;
                }
            }
        }

        let mut atomic: Vec<SearchQuery> = self.state.read().atomic.clone();
        let mut batch: Vec<Tuple> = Vec::new();
        let mut paid = 0usize;
        let mut free = 0usize;
        let mut completed = 0usize;
        let mut tuples_added = 0usize;
        let mut since_checkpoint = 0usize;
        let state_str;

        loop {
            if cancel.is_cancelled() {
                state_str = "cancelled";
                break;
            }
            if paid >= opts.max_queries {
                state_str = "budget_exhausted";
                break;
            }
            let Some((q, depth)) = worklist.pop() else {
                // Every splittable region is retrieved (atomic holes, if
                // any, can never be — they stay excluded from coverage).
                state_str = "complete";
                break;
            };
            let Answer { resp, outcome } = match db.probe(&q) {
                Ok(answer) => answer,
                Err(err) => {
                    // The region was not retrieved: it stays on the
                    // frontier, so coverage never claims it.
                    worklist.push((q, depth));
                    state_str = if err == SearchError::Cancelled {
                        "cancelled"
                    } else {
                        "failed"
                    };
                    break;
                }
            };
            if outcome.is_free() {
                free += 1;
            } else {
                paid += 1;
                since_checkpoint += 1;
            }
            batch.extend(resp.tuples.iter().cloned());
            if resp.overflow {
                let policy = match opts.policy {
                    SplitPolicy::RoundRobin { .. } => SplitPolicy::RoundRobin { depth },
                    p => p,
                };
                match split_region(schema, &q, policy) {
                    Some((left, right)) => {
                        if !right.is_trivially_empty() {
                            worklist.push((right, depth + 1));
                        }
                        if !left.is_trivially_empty() {
                            worklist.push((left, depth + 1));
                        }
                    }
                    None => {
                        if !atomic.contains(&q) {
                            atomic.push(q);
                        }
                    }
                }
            } else {
                completed += 1;
            }
            if since_checkpoint >= opts.checkpoint_every.max(1) {
                let (added, errors) = self.checkpoint(
                    &mut batch,
                    &worklist,
                    &atomic,
                    paid + free,
                    since_checkpoint,
                );
                since_checkpoint = 0;
                tuples_added += added;
                persist_errors += errors;
            }
        }

        // Final checkpoint. The worklist still holds every region not
        // retrieved (a failed probe's included), so the frontier stays a
        // superset of the truly uncovered regions.
        let (added, errors) = self.checkpoint(
            &mut batch,
            &worklist,
            &atomic,
            paid + free,
            since_checkpoint,
        );
        tuples_added += added;
        persist_errors += errors;

        JobReport {
            job_id,
            state: state_str,
            paid_queries: paid,
            free_lookups: free,
            regions_completed: completed,
            tuples_added,
            persist_errors,
        }
    }

    /// Merge a crawled batch into the live state and persist it. Order
    /// matters for crash safety: tuples are appended before the frontier
    /// shrinks. Returns `(new tuples, persist errors)`.
    fn checkpoint(
        &self,
        batch: &mut Vec<Tuple>,
        worklist: &[(SearchQuery, usize)],
        atomic: &[SearchQuery],
        _lookups: usize,
        paid_delta: usize,
    ) -> (usize, usize) {
        let pending: Vec<SearchQuery> = worklist.iter().map(|(q, _)| q.clone()).collect();
        let (added, budget_spent) = {
            let mut st = self.state.write();
            let added = TupleSet::absorb(&mut st.tuples, std::mem::take(batch));
            st.pending = pending.clone();
            st.atomic = atomic.to_vec();
            st.budget_spent += paid_delta as u64;
            // Each checkpoint call accounts its own paid delta exactly
            // once: the caller resets its counter.
            (added, st.budget_spent)
        };
        let mut errors = 0usize;
        if let Some(store) = self.store.lock().as_mut() {
            // Tuples strictly before the frontier: when the batch append
            // fails, neither the frontier nor the budget may move on
            // disk — a shrunk frontier without its backing tuples would
            // make a reopened index over-claim coverage.
            match store.append_tuples(&added) {
                Ok(()) => {
                    if store.save_frontier(&pending, atomic).is_err() {
                        errors += 1;
                    }
                    if store.save_budget(budget_spent).is_err() {
                        errors += 1;
                    }
                }
                Err(_) => errors += 1,
            }
        }
        (added.len(), errors)
    }
}

/// Exact coverage test against a locked state.
fn covered_locked(st: &State, q: &SearchQuery, current_epoch: u64) -> bool {
    let Some(root) = &st.root else {
        return false;
    };
    st.epoch == current_epoch
        && root.covers(q)
        && !st.pending.iter().any(|r| regions_intersect(q, r))
        && !st.atomic.iter().any(|r| regions_intersect(q, r))
}

/// True when two conjunctive regions can share a tuple: every attribute
/// constrained by both has a non-empty predicate intersection (an
/// attribute constrained by only one side never separates them).
fn regions_intersect(a: &SearchQuery, b: &SearchQuery) -> bool {
    a.predicates().all(|(attr, pa)| match b.predicate(attr) {
        Some(pb) => !pa.intersect(pb).is_empty(),
        None => true,
    })
}

fn coverage_locked(st: &State, schema: &Schema) -> f64 {
    let Some(root) = &st.root else {
        return 0.0;
    };
    if st.pending.is_empty() && st.atomic.is_empty() {
        return 1.0;
    }
    let total = region_volume(schema, root);
    if total <= 0.0 {
        return 0.0;
    }
    let uncovered: f64 = st
        .pending
        .iter()
        .chain(st.atomic.iter())
        .map(|r| region_volume(schema, r))
        .sum();
    (1.0 - uncovered / total).clamp(0.0, 1.0)
}

/// Fraction-of-domain volume of a conjunctive region: the product over
/// schema attributes of the constrained fraction (numeric width over
/// domain width; categorical label fraction). Used for the coverage
/// estimate — point constraints have zero width, so an uncovered point
/// region rounds to full coverage while [`ReconIndex::covered`] still
/// correctly refuses to serve it.
pub fn region_volume(schema: &Schema, q: &SearchQuery) -> f64 {
    let mut vol = 1.0_f64;
    for (id, attr) in schema.iter() {
        match &attr.kind {
            AttrKind::Numeric { min, max, .. } => {
                let span = max - min;
                if span <= 0.0 {
                    continue;
                }
                let r = effective_range(schema, q, id);
                let width = (r.hi - r.lo).max(0.0);
                vol *= (width / span).clamp(0.0, 1.0);
            }
            AttrKind::Categorical { labels } => {
                if labels.is_empty() {
                    continue;
                }
                let cats = effective_cats(schema, q, id);
                vol *= (cats.len() as f64 / labels.len() as f64).clamp(0.0, 1.0);
            }
        }
    }
    vol
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{
        CatSet, Column, Projection, RangePred, SimulatedWebDb, SystemRanking, TableBuilder, Value,
    };

    /// 64 tuples on an 8×8 grid, hidden rank = x descending, system-k 5.
    fn grid_inner(system_k: usize) -> SimulatedWebDb {
        let schema = Schema::builder()
            .numeric("x", 0.0, 8.0)
            .numeric("y", 0.0, 8.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..8 {
            for j in 0..8 {
                tb.push_row(vec![i as f64, j as f64]).unwrap();
            }
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        SimulatedWebDb::new(tb.build(), ranking, system_k)
    }

    fn grid_db(system_k: usize) -> Arc<SimulatedWebDb> {
        Arc::new(grid_inner(system_k))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "qr2-recon-index-{}-{}-{name}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn full_reconstruction_covers_and_serves() {
        let db = grid_db(5);
        let idx = ReconIndex::ephemeral();
        let report = idx.run_job(&*db, &JobOptions::default(), 0).unwrap();
        assert_eq!(report.state, "complete");
        assert_eq!(report.tuples_added, 64);
        assert!(report.paid_queries > 0);

        let schema = db.schema();
        let x = schema.expect_id("x");
        assert!(idx.covered(&SearchQuery::all(), 0));
        let narrow = SearchQuery::all().and_range(x, RangePred::closed(2.0, 3.0));
        assert!(idx.covered(&narrow, 0));
        assert!(!idx.covered(&narrow, 1), "stale epoch must not serve");

        let norm = Normalizer::from_domains(schema);
        let order = ServeOrder::OneDim {
            attr: x,
            dir: qr2_core::SortDir::Asc,
        };
        let page: Vec<Tuple> = idx.serve(&narrow, &order, &norm, || 0).unwrap().collect();
        assert_eq!(page.len(), 16);
        // The first serve built x's projection on the current snapshot; a
        // second serve at the same version reuses both.
        let (snapshot, projection) = {
            let st = idx.state.read();
            let p = st.tuples.projection(x).unwrap() as *const _;
            (Arc::clone(&st.tuples), p)
        };
        let again: Vec<Tuple> = idx.serve(&narrow, &order, &norm, || 0).unwrap().collect();
        assert_eq!(again, page);
        {
            let st = idx.state.read();
            assert!(
                Arc::ptr_eq(&snapshot, &st.tuples),
                "same version, same snapshot"
            );
            assert!(
                std::ptr::eq(projection, st.tuples.projection(x).unwrap()),
                "unchanged state must reuse the built projection"
            );
        }
        assert!(page.windows(2).all(|w| {
            match (w.first(), w.get(1)) {
                (Some(a), Some(b)) => (a.num_at(x), a.id) <= (b.num_at(x), b.id),
                _ => true,
            }
        }));
        assert!((idx.coverage(schema) - 1.0).abs() < 1e-12);
        assert_eq!(idx.status(schema, 0).state, "complete");
        assert!(!idx.status(schema, 0).stale);
        assert!(idx.status(schema, 1).stale);
    }

    #[test]
    fn prewarm_builds_columns_projections_and_tree_the_first_serve_reuses() {
        let db = grid_db(5);
        let idx = ReconIndex::ephemeral();
        idx.run_job(&*db, &JobOptions::default(), 0).unwrap();
        let schema = db.schema();
        let (x, y) = (schema.expect_id("x"), schema.expect_id("y"));
        let builds = || {
            qr2_obs::global()
                .histogram("qr2_stage_duration_us", &[("stage", "recon.build")])
                .count()
        };
        let before = builds();
        idx.prewarm(&[x, y]);
        // Other tests may build concurrently; they only add samples.
        assert!(
            builds() >= before + 5,
            "two columns, two projections and the tree each record a recon.build sample"
        );
        let tree = || {
            let st = idx.state.read();
            st.tuples.built_tree(&[x, y]).map(|t| Arc::as_ptr(&t))
        };
        let warm_tree = tree();
        assert!(warm_tree.is_some(), "prewarm builds the tree");
        let built = |attr| {
            let st = idx.state.read();
            let column = st.tuples.built_column(attr).map(|c| c as *const Column);
            let projection = st
                .tuples
                .built_projection(attr)
                .map(|p| p as *const Projection);
            (column, projection)
        };
        let warm = [built(x), built(y)];
        for (column, projection) in warm {
            assert!(column.is_some(), "prewarm builds the column");
            assert!(projection.is_some(), "prewarm builds the projection");
        }
        let norm = Normalizer::from_domains(schema);
        let lin = qr2_core::LinearFunction::new(vec![(x, 1.0), (y, -0.5)]).unwrap();
        for order in [
            ServeOrder::OneDim {
                attr: x,
                dir: qr2_core::SortDir::Desc,
            },
            ServeOrder::Scored(lin),
        ] {
            let q = SearchQuery::all().and_range(y, RangePred::closed(1.0, 6.0));
            let served = idx.serve(&q, &order, &norm, || 0).unwrap().count();
            assert_eq!(served, 48);
        }
        assert_eq!(
            ([built(x), built(y)], tree()),
            (warm, warm_tree),
            "the first serve after prewarm builds nothing"
        );
    }

    #[test]
    fn categorical_filter_serves_through_a_categorical_column() {
        let schema = Schema::builder()
            .numeric("x", 0.0, 8.0)
            .categorical("c", ["a", "b", "c"])
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..30u32 {
            tb.push_values(vec![Value::Num(f64::from(i % 8)), Value::Cat(i % 3)])
                .unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let db = SimulatedWebDb::new(tb.build(), ranking, 4);
        let idx = ReconIndex::ephemeral();
        let report = idx.run_job(&db, &JobOptions::default(), 0).unwrap();
        assert_eq!(report.state, "complete");
        let (x, c) = (schema.expect_id("x"), schema.expect_id("c"));
        let q = SearchQuery::all().and_cats(c, CatSet::new([0, 2]));
        let order = ServeOrder::OneDim {
            attr: x,
            dir: qr2_core::SortDir::Asc,
        };
        let norm = Normalizer::from_domains(&schema);
        let got: Vec<Tuple> = idx.serve(&q, &order, &norm, || 0).unwrap().collect();
        let truth = db.ground_truth();
        let mut want: Vec<Tuple> = truth
            .matching_rows(&q)
            .into_iter()
            .map(|r| truth.tuple(r))
            .collect();
        order.sort(&mut want, &norm);
        assert_eq!(got, want);
        let st = idx.state.read();
        assert!(
            matches!(st.tuples.built_column(c), Some(Column::Categorical(codes)) if codes.len() == 30),
            "the filter check built c's codes"
        );
        assert!(
            st.tuples.built_projection(c).is_none(),
            "a filter-only attribute needs no projection"
        );
    }

    #[test]
    fn budget_exhaustion_leaves_partial_coverage_and_resumes() {
        let db = grid_db(2);
        let idx = ReconIndex::ephemeral();
        let small = JobOptions {
            max_queries: 5,
            checkpoint_every: 2,
            ..JobOptions::default()
        };
        let report = idx.run_job(&*db, &small, 0).unwrap();
        assert_eq!(report.state, "budget_exhausted");
        let schema = db.schema();
        let status = idx.status(schema, 0);
        assert_eq!(status.state, "partial");
        assert!(status.pending_regions > 0);
        assert!(status.coverage < 1.0);
        assert!(!idx.covered(&SearchQuery::all(), 0));

        // Resume with a big budget: completes without restarting.
        let report = idx.run_job(&*db, &JobOptions::default(), 0).unwrap();
        assert_eq!(report.state, "complete");
        assert_eq!(idx.status(schema, 0).state, "complete");
        assert_eq!(idx.state.read().tuples.len(), 64);
        // Total spend accumulated across both jobs.
        assert!(idx.status(schema, 0).budget_spent >= 5);
    }

    #[test]
    fn partial_coverage_is_region_exact() {
        let db = grid_db(5);
        let schema = db.schema();
        let x = schema.expect_id("x");
        // Reconstruct only x ∈ [0, 4).
        let half = SearchQuery::all().and_range(x, RangePred::half_open(0.0, 4.0));
        let idx = ReconIndex::ephemeral();
        let opts = JobOptions {
            root: Some(half.clone()),
            ..JobOptions::default()
        };
        assert_eq!(idx.run_job(&*db, &opts, 0).unwrap().state, "complete");
        let inside = SearchQuery::all().and_range(x, RangePred::closed(1.0, 2.0));
        let outside = SearchQuery::all().and_range(x, RangePred::closed(5.0, 6.0));
        assert!(idx.covered(&inside, 0));
        assert!(!idx.covered(&outside, 0), "outside the root");
        assert!(!idx.covered(&SearchQuery::all(), 0), "wider than the root");
    }

    #[test]
    fn feed_observed_retires_pending_regions() {
        let db = grid_db(5);
        let idx = ReconIndex::ephemeral();
        // Start a reconstruction but spend nothing: everything pending.
        let opts = JobOptions {
            max_queries: 0,
            ..JobOptions::default()
        };
        assert_eq!(
            idx.run_job(&*db, &opts, 0).unwrap().state,
            "budget_exhausted"
        );
        assert!(!idx.covered(&SearchQuery::all(), 0));
        // A live answer for the whole space that does not overflow proves
        // the root region complete.
        let wide = SearchQuery::all();
        let resp = grid_db(100).search(&wide);
        assert!(!resp.overflow);
        idx.feed_observed(&wide, &resp, 0);
        assert!(idx.covered(&wide, 0));
        assert_eq!(idx.state.read().tuples.len(), 64);
        // Stale feeds are ignored.
        idx.drop_index(3).unwrap();
        idx.feed_observed(&wide, &resp, 0);
        assert!(!idx.covered(&wide, 0));
    }

    #[test]
    fn persisted_index_reopens_warm() {
        let db = grid_db(5);
        let path = temp_path("warm");
        {
            let idx = ReconIndex::open(&path).unwrap();
            let report = idx.run_job(&*db, &JobOptions::default(), 7).unwrap();
            assert_eq!(report.state, "complete");
        }
        let idx = ReconIndex::open(&path).unwrap();
        assert!(idx.covered(&SearchQuery::all(), 7));
        assert_eq!(idx.state.read().tuples.len(), 64);
        assert_eq!(idx.epoch(), 7);
        // Dropping clears disk too.
        idx.drop_index(8).unwrap();
        let idx = ReconIndex::open(&path).unwrap();
        assert!(!idx.covered(&SearchQuery::all(), 7));
        assert_eq!(idx.status(db.schema(), 8).state, "empty");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_pending_resume_keeps_persisted_tuples() {
        // Regression: a same-epoch resume must never begin() the store —
        // begin() wipes the persisted tuple batches, and a resume whose
        // work-list happened to hold exactly one region used to trip a
        // worklist-length heuristic and do exactly that, leaving a
        // reopened index claiming coverage without its tuples.
        let db = grid_db(2);
        let path = temp_path("resume1");
        // Crawl one paid query at a time, reopening from disk between
        // jobs, so every possible pending-list length (including 1) is
        // hit at job start.
        let mut steps = 0;
        loop {
            let idx = ReconIndex::open(&path).unwrap();
            if idx.status(db.schema(), 0).state == "complete" {
                break;
            }
            let opts = JobOptions {
                max_queries: 1,
                checkpoint_every: 1,
                ..JobOptions::default()
            };
            idx.run_job(&*db, &opts, 0).unwrap();
            steps += 1;
            assert!(steps < 1000, "reconstruction failed to converge");
        }
        let idx = ReconIndex::open(&path).unwrap();
        assert!(idx.covered(&SearchQuery::all(), 0));
        assert_eq!(
            idx.state.read().tuples.len(),
            64,
            "a reopened complete index must hold every tuple it claims"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn epoch_change_restarts_reconstruction() {
        let db = grid_db(5);
        let idx = ReconIndex::ephemeral();
        assert_eq!(
            idx.run_job(&*db, &JobOptions::default(), 0).unwrap().state,
            "complete"
        );
        assert!(idx.covered(&SearchQuery::all(), 0));
        // The web database "changed": epoch 1. A new job rebuilds.
        let report = idx.run_job(&*db, &JobOptions::default(), 1).unwrap();
        assert_eq!(report.state, "complete");
        assert_eq!(report.tuples_added, 64, "fresh crawl, fresh tuples");
        assert!(idx.covered(&SearchQuery::all(), 1));
        assert!(!idx.covered(&SearchQuery::all(), 0));
    }

    #[test]
    fn probes_carry_background_class_context() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// A decorator that records the ambient class of every probe.
        struct ClassSpy<D> {
            inner: D,
            background: AtomicUsize,
            other: AtomicUsize,
        }
        impl<D: TopKInterface> TopKInterface for ClassSpy<D> {
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn system_k(&self) -> usize {
                self.inner.system_k()
            }
            fn search(&self, q: &SearchQuery) -> TopKResponse {
                let ctx = qr2_sched::context::current();
                if ctx.class == QueryClass::Background && ctx.key != 0 {
                    self.background.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.other.fetch_add(1, Ordering::Relaxed);
                }
                self.inner.search(q)
            }
            fn ledger(&self) -> &qr2_webdb::QueryLedger {
                self.inner.ledger()
            }
        }
        let spy = ClassSpy {
            inner: grid_db(5),
            background: AtomicUsize::new(0),
            other: AtomicUsize::new(0),
        };
        let idx = ReconIndex::ephemeral();
        idx.run_job(&spy, &JobOptions::default(), 0).unwrap();
        assert!(spy.background.load(Ordering::Relaxed) > 0);
        assert_eq!(
            spy.other.load(Ordering::Relaxed),
            0,
            "every reconstruction probe must run as keyed background work"
        );
    }

    #[test]
    fn concurrent_job_rejected_as_busy() {
        let db = Arc::new(grid_inner(2).with_latency(
            std::time::Duration::from_millis(5),
            std::time::Duration::ZERO,
            42,
        ));
        let idx = Arc::new(ReconIndex::ephemeral());
        let started = idx.start_job(db.clone(), JobOptions::default(), 0).unwrap();
        // The spawned job holds the slot; a second start while it runs
        // must be refused. (It may also have finished already — then the
        // second start succeeds; both outcomes are legal, so only assert
        // the Busy id when we get one.)
        match idx.start_job(db.clone(), JobOptions::default(), 0) {
            Err(ReconJobError::Busy { job_id }) => assert_eq!(job_id, started),
            Ok(_) => {}
        }
        // Wait for completion.
        for _ in 0..200 {
            if idx.jobs.lock().running.is_none() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(idx.covered(&SearchQuery::all(), 0));
    }

    /// One numeric attribute `x`, one tuple per value.
    fn line_db(xs: &[f64], system_k: usize) -> SimulatedWebDb {
        let schema = Schema::builder().numeric("x", 0.0, 10.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for &x in xs {
            tb.push_row(vec![x]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        SimulatedWebDb::new(tb.build(), ranking, system_k)
    }

    fn reconstructed(db: &SimulatedWebDb) -> ReconIndex {
        let idx = ReconIndex::ephemeral();
        assert_eq!(
            idx.run_job(db, &JobOptions::default(), 0).unwrap().state,
            "complete"
        );
        idx
    }

    #[test]
    fn verify_of_an_empty_reconstruction_is_free() {
        let db = line_db(&[1.0, 2.0], 10);
        let report = ReconIndex::ephemeral().verify(&db);
        assert_eq!(report, VerifyReport::default());
        assert_eq!(db.ledger().total(), 0, "no query for nothing to check");
    }

    #[test]
    fn verify_keeps_a_fresh_reconstruction() {
        let db = line_db(&[1.0, 2.0, 3.0, 8.0], 10);
        let report = reconstructed(&db).verify(&db);
        assert_eq!((report.tuples, report.queries), (4, 1));
        assert!(!report.stale);

        // A fresh partial reconstruction is not stale either: tuples in
        // its pending regions make no claim.
        let grid = grid_db(2);
        let idx = ReconIndex::ephemeral();
        let small = JobOptions {
            max_queries: 5,
            checkpoint_every: 2,
            ..JobOptions::default()
        };
        assert_eq!(
            idx.run_job(&*grid, &small, 0).unwrap().state,
            "budget_exhausted"
        );
        assert!(!idx.verify(&*grid).stale);
    }

    #[test]
    fn verify_flags_a_changed_tuple() {
        let idx = reconstructed(&line_db(&[1.0, 2.0, 3.0], 10));
        assert!(idx.verify(&line_db(&[1.0, 2.5, 3.0], 10)).stale);
    }

    #[test]
    fn verify_flags_a_removed_tuple_by_count() {
        // Every returned tuple matches its indexed copy; only the count
        // of the one-page root shows the removal.
        let idx = reconstructed(&line_db(&[1.0, 2.0, 3.0], 10));
        assert!(idx.verify(&line_db(&[1.0, 2.0], 10)).stale);
    }

    #[test]
    fn region_volume_fractions() {
        let schema = Schema::builder()
            .numeric("x", 0.0, 10.0)
            .categorical("c", ["a", "b", "c", "d"])
            .build();
        let x = schema.expect_id("x");
        assert!((region_volume(&schema, &SearchQuery::all()) - 1.0).abs() < 1e-12);
        let half = SearchQuery::all().and_range(x, RangePred::half_open(0.0, 5.0));
        assert!((region_volume(&schema, &half) - 0.5).abs() < 1e-12);
        let c = schema.expect_id("c");
        let quarter = half.and_cats(c, qr2_webdb::CatSet::new([0u32, 1u32]));
        assert!((region_volume(&schema, &quarter) - 0.25).abs() < 1e-12);
    }
}
