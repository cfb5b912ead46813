//! Multi-dimensional reranking: user functions `Σ wᵢ·Aᵢ` over two or more
//! normalized attributes.
//!
//! * [`MdAlgo::Baseline`] — `MD-BASELINE`: repeatedly query the bounding
//!   box of the best tuple's rank-contour region and narrow it; splits only
//!   when stuck. Cheap under correlation, dreadful against it.
//! * [`MdAlgo::Binary`] — `MD-BINARY`: best-first branch-and-bound over
//!   contour-pruned cells, several frontier cells searched per (parallel)
//!   round — the paper's "queries that cover the areas in which a tuple may
//!   dominate the discovered tuple". A cell is never probed when the page
//!   it would return is already held, and a parallel round splits ahead
//!   only cells dense with tuples already seen.
//! * [`MdAlgo::Rerank`] — `MD-RERANK`: branch-and-bound plus the shared
//!   dense index; cells below the δ threshold are crawled once.
//! * [`MdAlgo::Ta`] — `MD-TA`: Fagin's Threshold Algorithm with sorted
//!   access provided by per-attribute `1D-RERANK` streams.
//!
//! All four serve the get-next primitive through [`MdReranker::next`].
//! [`FrontierEngine`] is the one region engine: `MD-BINARY`, `MD-RERANK`,
//! `1D-BINARY`, `1D-RERANK` and MD-TA's sorted-access streams all run on
//! it, the 1D ones as one-attribute functions. Its rules, and which of
//! them depend on the function's dimension, are set out in `md/frontier.rs`.

mod baseline;
mod frontier;
mod ta;

use std::sync::Arc;

use qr2_webdb::{SearchError, SearchQuery, Tuple};

use crate::dense_index::DenseIndex;
use crate::executor::SearchCtx;
use crate::function::LinearFunction;
use crate::normalize::Normalizer;

pub use baseline::BaselineEngine;
pub use frontier::FrontierEngine;
pub use ta::TaEngine;

/// Algorithm selector for MD reranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdAlgo {
    /// `MD-BASELINE` of the paper.
    Baseline,
    /// `MD-BINARY` of the paper.
    Binary,
    /// `MD-RERANK` of the paper.
    Rerank,
    /// `MD-TA` of the paper (TA over 1D-RERANK streams).
    Ta,
}

/// Default dense-cell threshold for `MD-RERANK`: a cell whose
/// `|w|`-weighted relative diameter falls below this while still
/// overflowing is crawled into the shared index.
pub const DEFAULT_DENSE_DELTA_MD: f64 = 1.0 / 256.0;

/// An incremental MD reranking session (the get-next primitive).
pub struct MdReranker {
    inner: Engine,
}

enum Engine {
    Frontier(FrontierEngine),
    Baseline(BaselineEngine),
    Ta(TaEngine),
}

impl MdReranker {
    /// Start a session.
    ///
    /// `dense` is required for [`MdAlgo::Rerank`] and [`MdAlgo::Ta`] (TA's
    /// sorted-access streams are 1D-RERANK streams).
    pub fn new(
        ctx: SearchCtx,
        filter: SearchQuery,
        f: LinearFunction,
        norm: Arc<Normalizer>,
        algo: MdAlgo,
        dense: Option<Arc<DenseIndex>>,
    ) -> Self {
        for attr in f.attrs() {
            assert!(
                ctx.schema().attr(attr).kind.is_numeric(),
                "MD ranking attributes must be numeric"
            );
        }
        let inner = match algo {
            MdAlgo::Baseline => Engine::Baseline(BaselineEngine::new(ctx, filter, f, norm)),
            MdAlgo::Binary => Engine::Frontier(FrontierEngine::new(
                ctx, filter, f, norm, /*use_dense=*/ None,
            )),
            MdAlgo::Rerank => {
                let dense = dense.expect("MD-RERANK requires a dense index");
                Engine::Frontier(FrontierEngine::new(ctx, filter, f, norm, Some(dense)))
            }
            MdAlgo::Ta => {
                let dense = dense.expect("MD-TA requires a dense index (1D-RERANK streams)");
                Engine::Ta(TaEngine::new(ctx, filter, f, norm, dense))
            }
        };
        MdReranker { inner }
    }

    /// The get-next primitive: the next tuple in score order (smallest
    /// first), `None` when the filter's matches are exhausted, or the
    /// error of a failed probe (the engine keeps the failed region pending
    /// and resumes from it on the next call).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        match &mut self.inner {
            Engine::Frontier(e) => e.next(),
            Engine::Baseline(e) => e.next(),
            Engine::Ta(e) => e.next(),
        }
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        match &self.inner {
            Engine::Frontier(e) => e.served(),
            Engine::Baseline(e) => e.served(),
            Engine::Ta(e) => e.served(),
        }
    }

    /// Tuples the next `next()` calls can serve without issuing queries
    /// (already discovered and provably next in order).
    pub fn buffered(&self) -> usize {
        match &self.inner {
            Engine::Frontier(e) => e.buffered(),
            Engine::Baseline(e) => e.buffered(),
            Engine::Ta(e) => e.buffered(),
        }
    }
}
