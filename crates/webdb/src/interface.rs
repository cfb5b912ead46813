//! The public top-k search interface — the *only* channel through which a
//! third-party service can interact with a web database.

use std::sync::Arc;

use crate::fault::SearchError;
use crate::metrics::QueryLedger;
use crate::predicate::SearchQuery;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// The result of one search-form submission.
///
/// The tuple page is `Arc`-shared: cloning a response (answer-cache hits,
/// single-flight completions, buffered session replays) bumps a reference
/// count instead of deep-copying the page. Build one with
/// [`TopKResponse::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResponse {
    /// At most `system-k` matching tuples, in system-ranking order (best
    /// first).
    pub tuples: Arc<[Tuple]>,
    /// True when the query matched more than `system-k` tuples — i.e. some
    /// matches are *invisible* to the caller.
    pub overflow: bool,
}

impl TopKResponse {
    /// Build a response from an owned tuple page.
    pub fn new(tuples: Vec<Tuple>, overflow: bool) -> TopKResponse {
        TopKResponse {
            tuples: tuples.into(),
            overflow,
        }
    }

    /// The empty (underflow) response.
    pub fn empty() -> TopKResponse {
        TopKResponse {
            tuples: Arc::from([]),
            overflow: false,
        }
    }

    /// `true` when zero tuples matched.
    pub fn is_underflow(&self) -> bool {
        self.tuples.is_empty() && !self.overflow
    }

    /// `true` when every match is visible (no overflow).
    pub fn is_complete(&self) -> bool {
        !self.overflow
    }
}

/// How one answered probe was served: whether it cost the caller a
/// query against the web database.
///
/// The plain [`TopKInterface::search`] contract is "every call costs one
/// query"; a decorator such as `qr2-cache`'s `CachedInterface` breaks that
/// equation, and callers that do their own cost accounting (the executor's
/// `QueryStats`, the crawler's budget) need to know which calls were free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Served from a shared answer cache; the web database saw nothing.
    pub cache_hit: bool,
    /// Blocked on another caller's identical in-flight request and shared
    /// its answer (single-flight coalescing); the web database saw one
    /// query, charged to the leader, not to this caller.
    pub coalesced: bool,
}

impl SearchOutcome {
    /// A plain uncached search (the default for every raw interface).
    pub const MISS: SearchOutcome = SearchOutcome {
        cache_hit: false,
        coalesced: false,
    };

    /// Served from the answer cache (see [`SearchOutcome::cache_hit`]).
    pub const CACHE_HIT: SearchOutcome = SearchOutcome {
        cache_hit: true,
        coalesced: false,
    };

    /// Served by another caller's probe (see [`SearchOutcome::coalesced`]).
    pub const COALESCED: SearchOutcome = SearchOutcome {
        cache_hit: false,
        coalesced: true,
    };

    /// True when this call cost the caller zero web-DB queries.
    pub fn is_free(&self) -> bool {
        self.cache_hit || self.coalesced
    }
}

/// A successful probe: the page the source returned and how this caller
/// was served. Only an `Answer` may be remembered (cached, fed to a
/// reconstruction, stored as a crawled region); a failed probe is a
/// [`SearchError`], never an empty `Answer`.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The result page.
    pub resp: TopKResponse,
    /// Whether the page cost this caller a query.
    pub outcome: SearchOutcome,
}

impl Answer {
    /// A page this caller paid one web-DB query for.
    pub fn paid(resp: TopKResponse) -> Answer {
        Answer {
            resp,
            outcome: SearchOutcome::MISS,
        }
    }
}

/// The page an infallible [`TopKInterface::search`] returns for a probe
/// result: the answer's page, or the empty page when the probe failed.
pub fn page_or_empty(probe: Result<Answer, SearchError>) -> TopKResponse {
    probe.map_or_else(|_| TopKResponse::empty(), |answer| answer.resp)
}

/// A web database's public search interface.
///
/// Implementations must be thread-safe: QR2 issues verification and subspace
/// queries in parallel (paper §II-B "Parallel processing").
pub trait TopKInterface: Send + Sync {
    /// The public schema (attribute names and domains shown on the form).
    fn schema(&self) -> &Schema;

    /// The interface's result-page size `k`.
    fn system_k(&self) -> usize;

    /// Execute a conjunctive search. Every call costs one query. A layer
    /// whose [`probe`](TopKInterface::probe) can fail answers `search`
    /// with [`page_or_empty`], so a failure reads as "no matches": callers
    /// that remember answers must call `probe` instead.
    fn search(&self, q: &SearchQuery) -> TopKResponse;

    /// The shared query ledger (cost accounting).
    fn ledger(&self) -> &QueryLedger;

    /// Execute one probe: the page and how it was served, or why the
    /// source could not answer. A raw interface never fails and always
    /// pays; decorators override this to report free answers (cache hits,
    /// coalesced waits) and failures (throttles, faults, cancellation).
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        Ok(Answer::paid(self.search(q)))
    }
}

/// Blanket impl so `Arc<Db>` and `&Db` can be used wherever a
/// `TopKInterface` is expected.
impl<T: TopKInterface + ?Sized> TopKInterface for std::sync::Arc<T> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn system_k(&self) -> usize {
        (**self).system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        (**self).search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        (**self).ledger()
    }
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        (**self).probe(q)
    }
}

impl<T: TopKInterface + ?Sized> TopKInterface for &T {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn system_k(&self) -> usize {
        (**self).system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        (**self).search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        (**self).ledger()
    }
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        (**self).probe(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;
    use crate::value::Value;

    #[test]
    fn response_flags() {
        let empty = TopKResponse::empty();
        assert!(empty.is_underflow());
        assert!(empty.is_complete());

        let partial = TopKResponse::new(vec![Tuple::new(TupleId(0), vec![Value::Num(1.0)])], true);
        assert!(!partial.is_underflow());
        assert!(!partial.is_complete());
    }

    #[test]
    fn clone_shares_tuple_storage() {
        let resp = TopKResponse::new(vec![Tuple::new(TupleId(1), vec![Value::Num(2.0)])], false);
        let copy = resp.clone();
        assert!(
            Arc::ptr_eq(&resp.tuples, &copy.tuples),
            "cloning a response must share the page, not deep-copy it"
        );
        assert_eq!(resp, copy);
    }

    #[test]
    fn outcome_flags() {
        assert!(!SearchOutcome::MISS.is_free());
        assert!(SearchOutcome::CACHE_HIT.is_free());
        assert!(SearchOutcome::COALESCED.is_free());
        assert_eq!(SearchOutcome::default(), SearchOutcome::MISS);
    }
}
