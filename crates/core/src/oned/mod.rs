//! One-dimensional reranking: `ORDER BY attr ASC|DESC` over a hidden top-k
//! interface.
//!
//! All three algorithms are implemented as *chunk finders*: given the
//! unexplored interval of the ranking attribute, they retrieve a **complete
//! prefix** of it — an interval starting at the preferred end together with
//! *every* matching tuple inside it. The [`OneDimStream`] then serves those
//! tuples in order and advances the frontier, which is exactly the paper's
//! get-next primitive (the user-level session cache is the stream's pending
//! buffer).
//!
//! Bisection state is session state too: the stream keeps the chunk
//! finder's stack between refills, so each later chunk of `Binary`/`Rerank`
//! resumes from the unprobed siblings the previous chunk left instead of
//! re-bisecting the whole remainder, after a dense chunk (an enumerated tie
//! or cluster) too. A page that proves a tie splits its interval three ways
//! at the tied value, so the siblings of a tie are ordinary intervals, not
//! slivers of its neighbourhood.
//!
//! * [`OneDAlgo::Baseline`] — narrow `[lo, best)` with the best returned
//!   value as the new bound; fast when the hidden ranking agrees with the
//!   user's, linear-ish when it opposes it.
//! * [`OneDAlgo::Binary`] — halve the interval; logarithmic except in
//!   *dense regions* (ties/clusters), where it degenerates into a crawl
//!   without remembering anything.
//! * [`OneDAlgo::Rerank`] — binary plus the shared [`DenseIndex`](crate::DenseIndex): a dense
//!   interval is crawled once and served from the index forever after.

mod chunk;
mod stream;

pub use stream::OneDimStream;

/// Algorithm selector for 1D reranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneDAlgo {
    /// `1D-BASELINE` of the paper.
    Baseline,
    /// `1D-BINARY` of the paper.
    Binary,
    /// `1D-RERANK` of the paper (binary + on-the-fly dense indexing).
    Rerank,
}

/// Default dense-region threshold for `1D-RERANK`: an interval narrower
/// than this fraction of the attribute's domain that still overflows is
/// declared dense and crawled into the index.
///
/// δ covers clusters: more than system-k distinct values packed into a
/// sliver of the domain. Exact ties do not wait for it: a page that proves
/// a tie splits the point off at its value, and a point that overflows is
/// enumerated whatever δ is. The default is deliberately near-point (2⁻²⁶
/// of the domain), so eager crawling is reserved for value-mass regions
/// where splitting cannot make progress. Wider thresholds trade
/// first-session cost for warm-session savings on clustered data;
/// experiment A1 sweeps this knob (docs/PERF.md, "The 1D bisection
/// stack"). On heavy-tailed attributes (prices), a wide δ misfires: the
/// bulk of the inventory sits in a narrow band near the cheap end and
/// would be crawled wholesale on first contact.
pub const DEFAULT_DENSE_DELTA_1D: f64 = 1.0 / (1u64 << 26) as f64;
