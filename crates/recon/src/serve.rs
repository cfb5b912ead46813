//! The engines' client-visible serving order, reproduced exactly.
//!
//! Every reranking engine in `qr2-core` serves tuples in an order that is
//! fully determined by tuple *content* — never by the hidden system
//! ranking it probes through:
//!
//! * the 1D engines (`1D-BASELINE`, `1D-BINARY`, `1D-RERANK`) sort each
//!   served chunk by the ranking attribute's value in the requested
//!   direction, ties broken by ascending [`TupleId`](qr2_webdb::TupleId)
//!   (`oned/stream.rs`, `refill`);
//! * the MD engines (`MD-BASELINE`, `MD-BINARY`, `MD-RERANK`, `MD-TA`)
//!   serve by ascending [`LinearFunction`] score under the reranker's
//!   [`Normalizer`](qr2_core::Normalizer), ties broken by ascending id
//!   (the frontier heap's `Candidate` ordering and the baseline's sort).
//!
//! Both comparators use [`f64::total_cmp`], so a reconstruction-served
//! page pulled in this order by a [`ReconCursor`](crate::ReconCursor) is
//! **byte-identical** to the live engine's output — the invariant
//! `tests/recon_e2e.rs` pins for all seven algorithms. The normalizer is
//! frozen once a reranker is built (calibration happens at build time),
//! so scoring with the same normalizer instance reproduces the exact
//! score bits.

use qr2_core::{Algorithm, LinearFunction, RankingFunction, SortDir};
use qr2_webdb::AttrId;

/// The client-visible order one reranking request serves tuples in.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOrder {
    /// 1D engines: by `attr` in `dir`, ties by ascending id.
    OneDim {
        /// The ranking attribute.
        attr: AttrId,
        /// Sort direction.
        dir: SortDir,
    },
    /// MD engines: by ascending linear score, ties by ascending id.
    Scored(LinearFunction),
}

impl ServeOrder {
    /// The serving order of `algorithm` running `function`, mirroring the
    /// function/algorithm reconciliation in `Reranker::query`: a
    /// single-attribute linear function on a 1D engine becomes an
    /// `ORDER BY` (weight sign picks the direction); a
    /// [`qr2_core::OneDimFunction`] on an MD engine becomes a ±1-weight
    /// linear function. Returns `None` for the one rejected combination —
    /// a multi-attribute function on a 1D algorithm.
    pub fn for_request(algorithm: Algorithm, function: &RankingFunction) -> Option<ServeOrder> {
        if algorithm.is_one_dimensional() {
            match function {
                RankingFunction::OneDim(f) => Some(ServeOrder::OneDim {
                    attr: f.attr,
                    dir: f.dir,
                }),
                RankingFunction::Linear(f) => {
                    let (attr, w) = *f.weights().first()?;
                    if f.dims() != 1 {
                        return None;
                    }
                    Some(ServeOrder::OneDim {
                        attr,
                        dir: if w >= 0.0 {
                            SortDir::Asc
                        } else {
                            SortDir::Desc
                        },
                    })
                }
            }
        } else {
            match function {
                RankingFunction::Linear(f) => Some(ServeOrder::Scored(f.clone())),
                RankingFunction::OneDim(f) => {
                    let w = match f.dir {
                        SortDir::Asc => 1.0,
                        SortDir::Desc => -1.0,
                    };
                    LinearFunction::new(vec![(f.attr, w)])
                        .ok()
                        .map(ServeOrder::Scored)
                }
            }
        }
    }

    /// Sort `tuples` into this serving order with the engines' exact
    /// comparators. `norm` must be the owning reranker's normalizer so MD
    /// scores reproduce bit-for-bit. The reference the cursors are tested
    /// against; serving itself never sorts.
    #[cfg(test)]
    pub fn sort(&self, tuples: &mut [qr2_webdb::Tuple], norm: &qr2_core::Normalizer) {
        match self {
            ServeOrder::OneDim {
                attr,
                dir: SortDir::Asc,
            } => {
                let attr = *attr;
                tuples.sort_by(|a, b| {
                    a.num_at(attr)
                        .total_cmp(&b.num_at(attr))
                        .then(a.id.cmp(&b.id))
                });
            }
            ServeOrder::OneDim {
                attr,
                dir: SortDir::Desc,
            } => {
                let attr = *attr;
                tuples.sort_by(|a, b| {
                    b.num_at(attr)
                        .total_cmp(&a.num_at(attr))
                        .then(a.id.cmp(&b.id))
                });
            }
            ServeOrder::Scored(f) => {
                tuples.sort_by(|a, b| {
                    f.score(a, norm)
                        .total_cmp(&f.score(b, norm))
                        .then(a.id.cmp(&b.id))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::{Normalizer, OneDimFunction};
    use qr2_webdb::{Schema, TopKInterface, Tuple, TupleId, Value};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("x", 0.0, 10.0)
            .numeric("y", 0.0, 10.0)
            .build()
    }

    fn t(id: u32, x: f64, y: f64) -> Tuple {
        Tuple::new(TupleId(id), vec![Value::Num(x), Value::Num(y)])
    }

    #[test]
    fn oned_orders_by_value_then_id() {
        let s = schema();
        let x = s.expect_id("x");
        let norm = Normalizer::from_domains(&s);
        let mut tuples = vec![t(3, 2.0, 0.0), t(1, 5.0, 0.0), t(2, 2.0, 0.0)];
        let asc =
            ServeOrder::for_request(Algorithm::OneDBinary, &OneDimFunction::asc(x).into()).unwrap();
        asc.sort(&mut tuples, &norm);
        assert_eq!(
            tuples.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        let desc =
            ServeOrder::for_request(Algorithm::OneDBaseline, &OneDimFunction::desc(x).into())
                .unwrap();
        desc.sort(&mut tuples, &norm);
        assert_eq!(
            tuples.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn scored_orders_by_score_then_id() {
        let s = schema();
        let norm = Normalizer::from_domains(&s);
        let f = LinearFunction::from_names(&s, &[("x", 1.0), ("y", -1.0)]).unwrap();
        let mut tuples = vec![t(9, 10.0, 0.0), t(4, 0.0, 10.0), t(5, 5.0, 5.0)];
        let order = ServeOrder::for_request(Algorithm::MdTa, &f.clone().into()).unwrap();
        order.sort(&mut tuples, &norm);
        // Scores: id9 → 1.0, id4 → -1.0, id5 → 0.0.
        assert_eq!(
            tuples.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![4, 5, 9]
        );
    }

    #[test]
    fn reconciliation_matches_reranker_rules() {
        let s = schema();
        let x = s.expect_id("x");
        // Single-attribute negative-weight linear on a 1D engine → Desc.
        let f = LinearFunction::from_names(&s, &[("x", -0.5)]).unwrap();
        match ServeOrder::for_request(Algorithm::OneDRerank, &f.into()) {
            Some(ServeOrder::OneDim { attr, dir }) => {
                assert_eq!(attr, x);
                assert_eq!(dir, SortDir::Desc);
            }
            other => panic!("expected OneDim, got {other:?}"),
        }
        // OneDim Desc on an MD engine → −1-weight linear function.
        match ServeOrder::for_request(Algorithm::MdRerank, &OneDimFunction::desc(x).into()) {
            Some(ServeOrder::Scored(f)) => {
                assert_eq!(f.weights(), &[(x, -1.0)]);
            }
            other => panic!("expected Scored, got {other:?}"),
        }
        // Multi-attribute linear on a 1D engine: the rejected combination.
        let multi = LinearFunction::from_names(&s, &[("x", 1.0), ("y", 1.0)]).unwrap();
        assert!(ServeOrder::for_request(Algorithm::OneDBinary, &multi.into()).is_none());
    }

    #[test]
    fn full_drain_matches_every_live_engine() {
        use qr2_core::{Budget, ExecutorKind, RerankRequest, Reranker};
        use qr2_datagen::{generic_db, SyntheticConfig};
        use std::sync::Arc;

        let cfg = SyntheticConfig {
            n: 120,
            dims: 2,
            system_k: 7,
            ..SyntheticConfig::default()
        };
        let db = Arc::new(generic_db(&cfg, &[1.0, -0.4]));
        let schema = db.schema().clone();
        let x0 = schema.expect_id("x0");
        let all_algorithms = [
            Algorithm::OneDBaseline,
            Algorithm::OneDBinary,
            Algorithm::OneDRerank,
            Algorithm::MdBaseline,
            Algorithm::MdBinary,
            Algorithm::MdRerank,
            Algorithm::MdTa,
        ];
        let lin = LinearFunction::from_names(&schema, &[("x0", 0.6), ("x1", -0.8)]).unwrap();
        for algo in all_algorithms {
            let function: RankingFunction = if algo.is_one_dimensional() {
                OneDimFunction::desc(x0).into()
            } else {
                lin.clone().into()
            };
            let r = Reranker::builder(db.clone())
                .executor(ExecutorKind::Sequential)
                .build();
            let mut session = r.query(RerankRequest {
                filter: qr2_webdb::SearchQuery::all(),
                function: function.clone(),
                algorithm: algo,
            });
            let mut live = Vec::new();
            loop {
                let step = session.advance(Budget::UNLIMITED);
                let done = step.is_done();
                live.extend(step.into_tuples());
                if done {
                    break;
                }
            }
            let order = ServeOrder::for_request(algo, &function).expect("valid combination");
            let truth = db.ground_truth();
            let mut ours: Vec<Tuple> = (0..truth.len()).map(|r| truth.tuple(r)).collect();
            order.sort(&mut ours, r.normalizer());
            assert_eq!(
                live.len(),
                ours.len(),
                "{}: drained {} vs table {}",
                algo.paper_name(),
                live.len(),
                ours.len()
            );
            assert_eq!(
                live,
                ours,
                "{}: live order diverges from ServeOrder",
                algo.paper_name()
            );
        }
    }
}
