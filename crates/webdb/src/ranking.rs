//! The *proprietary* system ranking function of a web database.
//!
//! The reranking service never sees this function — it only observes the
//! order in which result pages return tuples. The simulator supports several
//! families so experiments can control the correlation between the hidden
//! ranking and the user's desired ranking (the axis the paper's scenarios
//! vary).

use crate::attr::AttrId;
use crate::fault::splitmix64;
use crate::schema::Schema;
use crate::table::Table;

/// Sort direction for lexicographic rankings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values rank earlier.
    Descending,
    /// Smaller values rank earlier.
    Ascending,
}

#[derive(Debug, Clone)]
enum RankingKind {
    /// score(t) = Σ wᵢ · t[Aᵢ]; larger score ranks earlier.
    Linear(Vec<(AttrId, f64)>),
    /// Order by attributes in sequence.
    Lexicographic(Vec<(AttrId, Direction)>),
    /// Deterministic pseudo-random projection of all numeric attributes —
    /// models a fully opaque relevance function.
    Opaque { seed: u64 },
}

/// A hidden system ranking function.
#[derive(Debug, Clone)]
pub struct SystemRanking {
    kind: RankingKind,
}

impl SystemRanking {
    /// Linear ranking over named numeric attributes (largest score first).
    pub fn linear(schema: &Schema, weights: &[(&str, f64)]) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("linear ranking needs >= 1 weight".into());
        }
        let mut resolved = Vec::with_capacity(weights.len());
        for (name, w) in weights {
            let id = schema
                .id_of(name)
                .ok_or_else(|| format!("no attribute named '{name}'"))?;
            if !schema.attr(id).kind.is_numeric() {
                return Err(format!("ranking attribute '{name}' must be numeric"));
            }
            if !w.is_finite() {
                return Err(format!("non-finite weight for '{name}'"));
            }
            resolved.push((id, *w));
        }
        Ok(SystemRanking {
            kind: RankingKind::Linear(resolved),
        })
    }

    /// Lexicographic ranking (first attribute dominates).
    pub fn lexicographic(schema: &Schema, attrs: &[(&str, Direction)]) -> Result<Self, String> {
        if attrs.is_empty() {
            return Err("lexicographic ranking needs >= 1 attribute".into());
        }
        let mut resolved = Vec::with_capacity(attrs.len());
        for (name, d) in attrs {
            let id = schema
                .id_of(name)
                .ok_or_else(|| format!("no attribute named '{name}'"))?;
            if !schema.attr(id).kind.is_numeric() {
                return Err(format!("ranking attribute '{name}' must be numeric"));
            }
            resolved.push((id, *d));
        }
        Ok(SystemRanking {
            kind: RankingKind::Lexicographic(resolved),
        })
    }

    /// Fully opaque deterministic ranking seeded by `seed`.
    pub fn opaque(seed: u64) -> Self {
        SystemRanking {
            kind: RankingKind::Opaque { seed },
        }
    }

    /// Compute the global rank order of `table`: a permutation of row
    /// indices with the best-ranked row first. Ties break by row index so
    /// the interface is deterministic (real sites are, too, page to page).
    pub fn rank_rows(&self, table: &Table) -> Vec<u32> {
        let n = table.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        match &self.kind {
            RankingKind::Linear(ws) => {
                let scores: Vec<f64> = (0..n).map(|r| self.linear_score(table, r, ws)).collect();
                order.sort_by(|&a, &b| {
                    scores[b as usize]
                        .total_cmp(&scores[a as usize])
                        .then(a.cmp(&b))
                });
            }
            RankingKind::Lexicographic(keys) => {
                order.sort_by(|&a, &b| {
                    for (attr, dir) in keys {
                        let va = table.num(a as usize, *attr);
                        let vb = table.num(b as usize, *attr);
                        let ord = match dir {
                            Direction::Descending => vb.total_cmp(&va),
                            Direction::Ascending => va.total_cmp(&vb),
                        };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    a.cmp(&b)
                });
            }
            RankingKind::Opaque { seed } => {
                let numeric = table.schema().numeric_attrs();
                let weights: Vec<f64> = numeric
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        // splitmix64-derived weight in [-1, 1]
                        let h = splitmix64(seed.wrapping_add(i as u64 + 1));
                        (h as f64 / u64::MAX as f64) * 2.0 - 1.0
                    })
                    .collect();
                let scores: Vec<f64> = (0..n)
                    .map(|r| {
                        numeric
                            .iter()
                            .zip(&weights)
                            .map(|(a, w)| table.num(r, *a) * w)
                            .sum::<f64>()
                    })
                    .collect();
                order.sort_by(|&a, &b| {
                    scores[b as usize]
                        .total_cmp(&scores[a as usize])
                        .then(a.cmp(&b))
                });
            }
        }
        order
    }

    fn linear_score(&self, table: &Table, row: usize, ws: &[(AttrId, f64)]) -> f64 {
        ws.iter().map(|(a, w)| table.num(row, *a) * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;

    fn setup() -> Table {
        let schema = Schema::builder()
            .numeric("price", 0.0, 100.0)
            .numeric("size", 0.0, 10.0)
            .build();
        let mut tb = TableBuilder::new(schema);
        tb.push_row(vec![10.0, 3.0]).unwrap(); // row 0
        tb.push_row(vec![30.0, 1.0]).unwrap(); // row 1
        tb.push_row(vec![20.0, 2.0]).unwrap(); // row 2
        tb.build()
    }

    #[test]
    fn linear_orders_by_score_descending() {
        let t = setup();
        let r = SystemRanking::linear(t.schema(), &[("price", 1.0)]).unwrap();
        assert_eq!(r.rank_rows(&t), vec![1, 2, 0]);
    }

    #[test]
    fn linear_negative_weight_flips_order() {
        let t = setup();
        let r = SystemRanking::linear(t.schema(), &[("price", -1.0)]).unwrap();
        assert_eq!(r.rank_rows(&t), vec![0, 2, 1]);
    }

    #[test]
    fn lexicographic_ascending() {
        let t = setup();
        let r =
            SystemRanking::lexicographic(t.schema(), &[("size", Direction::Ascending)]).unwrap();
        assert_eq!(r.rank_rows(&t), vec![1, 2, 0]);
    }

    #[test]
    fn lexicographic_tie_break_on_second_key() {
        let schema = Schema::builder()
            .numeric("a", 0.0, 10.0)
            .numeric("b", 0.0, 10.0)
            .build();
        let mut tb = TableBuilder::new(schema);
        tb.push_row(vec![1.0, 5.0]).unwrap();
        tb.push_row(vec![1.0, 9.0]).unwrap();
        let t = tb.build();
        let r = SystemRanking::lexicographic(
            t.schema(),
            &[("a", Direction::Descending), ("b", Direction::Descending)],
        )
        .unwrap();
        assert_eq!(r.rank_rows(&t), vec![1, 0]);
    }

    #[test]
    fn opaque_is_deterministic() {
        let t = setup();
        let a = SystemRanking::opaque(42).rank_rows(&t);
        let b = SystemRanking::opaque(42).rank_rows(&t);
        assert_eq!(a, b);
        // Different seeds generally give different orders on larger tables;
        // here we only require determinism.
    }

    #[test]
    fn linear_rejects_unknown_and_categorical_attrs() {
        let schema = Schema::builder()
            .numeric("price", 0.0, 1.0)
            .categorical("cut", ["G"])
            .build();
        assert!(SystemRanking::linear(&schema, &[("none", 1.0)]).is_err());
        assert!(SystemRanking::linear(&schema, &[("cut", 1.0)]).is_err());
        assert!(SystemRanking::linear(&schema, &[]).is_err());
        assert!(SystemRanking::linear(&schema, &[("price", f64::INFINITY)]).is_err());
    }

    #[test]
    fn tie_breaks_by_row_index() {
        let schema = Schema::builder().numeric("x", 0.0, 1.0).build();
        let mut tb = TableBuilder::new(schema);
        tb.push_row(vec![0.5]).unwrap();
        tb.push_row(vec![0.5]).unwrap();
        tb.push_row(vec![0.5]).unwrap();
        let t = tb.build();
        let r = SystemRanking::linear(t.schema(), &[("x", 1.0)]).unwrap();
        assert_eq!(r.rank_rows(&t), vec![0, 1, 2]);
    }
}
