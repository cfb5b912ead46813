//! Columnar backing storage for a simulated web database.

use crate::attr::{AttrId, AttrKind};
use crate::predicate::SearchQuery;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;

/// One attribute's values, indexed by row: a [`Table`]'s storage, and
/// the reconstruction tier's per-attribute column over its tuple vector
/// (`qr2-recon`), so both read values by row through one type.
#[derive(Debug, Clone)]
pub enum Column {
    /// A numeric attribute's values.
    Numeric(Vec<f64>),
    /// A categorical attribute's codes.
    Categorical(Vec<u32>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(v) => v.len(),
        }
    }

    /// The value at `row`, or `None` past the end.
    #[inline]
    pub fn value(&self, row: usize) -> Option<Value> {
        match self {
            Column::Numeric(v) => v.get(row).copied().map(Value::Num),
            Column::Categorical(v) => v.get(row).copied().map(Value::Cat),
        }
    }

    /// The numeric values; `None` for a categorical column.
    pub fn numeric(&self) -> Option<&[f64]> {
        match self {
            Column::Numeric(v) => Some(v),
            Column::Categorical(_) => None,
        }
    }

    #[inline]
    fn get(&self, row: usize) -> Value {
        match self {
            Column::Numeric(v) => Value::Num(v[row]),
            Column::Categorical(v) => Value::Cat(v[row]),
        }
    }
}

/// An immutable columnar table: the ground-truth contents of a simulated
/// web database. The reranking service never sees this directly — only the
/// top-k interface built on it.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Value at (row, attr).
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> Value {
        self.columns[attr.index()].get(row)
    }

    /// Numeric value at (row, attr); panics on categorical columns.
    #[inline]
    pub fn num(&self, row: usize, attr: AttrId) -> f64 {
        match &self.columns[attr.index()] {
            Column::Numeric(v) => v[row],
            Column::Categorical(_) => {
                panic!("column {attr} is categorical")
            }
        }
    }

    /// Whether `row` satisfies the conjunctive query.
    #[inline]
    pub fn row_matches(&self, row: usize, q: &SearchQuery) -> bool {
        q.matches_with(|attr| self.value(row, attr))
    }

    /// Materialize a row as a [`Tuple`].
    pub fn tuple(&self, row: usize) -> Tuple {
        let values: Vec<Value> = (0..self.schema.len())
            .map(|i| self.columns[i].get(row))
            .collect();
        Tuple::new(TupleId(row as u32), values)
    }

    /// Raw numeric column storage (index building); `None` for
    /// categorical attributes.
    pub(crate) fn raw_numeric(&self, attr: AttrId) -> Option<&[f64]> {
        self.columns[attr.index()].numeric()
    }

    /// Raw categorical column storage (index building); `None` for
    /// numeric attributes.
    pub(crate) fn raw_categorical(&self, attr: AttrId) -> Option<&[u32]> {
        match &self.columns[attr.index()] {
            Column::Categorical(v) => Some(v),
            Column::Numeric(_) => None,
        }
    }

    /// Count rows matching `q` (ground truth; not available through the
    /// public interface — used by tests and oracles).
    pub fn count_matches(&self, q: &SearchQuery) -> usize {
        (0..self.rows).filter(|&r| self.row_matches(r, q)).count()
    }

    /// All matching row indices (ground truth; oracle use only).
    pub fn matching_rows(&self, q: &SearchQuery) -> Vec<usize> {
        (0..self.rows).filter(|&r| self.row_matches(r, q)).collect()
    }
}

/// Row-by-row builder for [`Table`].
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Start an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .iter()
            .map(|(_, a)| match &a.kind {
                AttrKind::Numeric { .. } => Column::Numeric(Vec::new()),
                AttrKind::Categorical { .. } => Column::Categorical(Vec::new()),
            })
            .collect();
        TableBuilder { schema, columns }
    }

    /// Append a row given per-attribute numeric values *only* (valid when
    /// the schema is all-numeric). Errors on arity mismatch.
    pub fn push_row(&mut self, nums: Vec<f64>) -> Result<(), String> {
        if nums.len() != self.schema.len() {
            return Err(format!(
                "row arity {} != schema arity {}",
                nums.len(),
                self.schema.len()
            ));
        }
        let values: Vec<Value> = nums.into_iter().map(Value::from).collect();
        self.push_values(values)
    }

    /// Append a row of mixed values. Errors on arity or kind mismatch, or
    /// out-of-domain values.
    pub fn push_values(&mut self, values: Vec<Value>) -> Result<(), String> {
        if values.len() != self.schema.len() {
            return Err(format!(
                "row arity {} != schema arity {}",
                values.len(),
                self.schema.len()
            ));
        }
        // Validate before mutating anything so a failed push is atomic.
        for (i, v) in values.iter().enumerate() {
            let attr = self.schema.attr(AttrId(i as u16));
            match (&attr.kind, v) {
                (AttrKind::Numeric { min, max, .. }, Value::Num(x)) => {
                    if x.is_nan() || *x < *min || *x > *max {
                        return Err(format!(
                            "value {x} out of domain [{min}, {max}] for '{}'",
                            attr.name
                        ));
                    }
                }
                (AttrKind::Categorical { labels }, Value::Cat(c)) => {
                    if *c as usize >= labels.len() {
                        return Err(format!(
                            "code {c} out of range for '{}' ({} labels)",
                            attr.name,
                            labels.len()
                        ));
                    }
                }
                _ => {
                    return Err(format!("kind mismatch for attribute '{}'", attr.name));
                }
            }
        }
        for (i, v) in values.into_iter().enumerate() {
            match (&mut self.columns[i], v) {
                (Column::Numeric(col), Value::Num(x)) => col.push(x),
                (Column::Categorical(col), Value::Cat(c)) => col.push(c),
                _ => unreachable!("validated above"),
            }
        }
        Ok(())
    }

    /// Current number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// True when no rows have been added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish building.
    pub fn build(self) -> Table {
        let rows = self.len();
        assert!(
            rows <= u32::MAX as usize,
            "tables are limited to u32::MAX rows"
        );
        Table {
            schema: self.schema,
            columns: self.columns,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CatSet, RangePred};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 100.0)
            .categorical("cut", ["Good", "Ideal"])
            .build()
    }

    fn table() -> Table {
        let mut tb = TableBuilder::new(schema());
        tb.push_values(vec![Value::Num(10.0), Value::Cat(0)])
            .unwrap();
        tb.push_values(vec![Value::Num(20.0), Value::Cat(1)])
            .unwrap();
        tb.push_values(vec![Value::Num(30.0), Value::Cat(1)])
            .unwrap();
        tb.build()
    }

    #[test]
    fn build_and_access() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.num(1, AttrId(0)), 20.0);
        assert_eq!(t.value(2, AttrId(1)), Value::Cat(1));
        let tup = t.tuple(0);
        assert_eq!(tup.id, TupleId(0));
        assert_eq!(tup.num(0), 10.0);
    }

    #[test]
    fn matching_and_counting() {
        let t = table();
        let q = SearchQuery::all()
            .and_range(AttrId(0), RangePred::closed(15.0, 100.0))
            .and_cats(AttrId(1), CatSet::single(1));
        assert_eq!(t.count_matches(&q), 2);
        assert_eq!(t.matching_rows(&q), vec![1, 2]);
    }

    #[test]
    fn push_row_arity_error() {
        let mut tb = TableBuilder::new(schema());
        assert!(tb.push_row(vec![1.0]).is_err());
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut tb = TableBuilder::new(schema());
        let err = tb
            .push_values(vec![Value::Num(1000.0), Value::Cat(0)])
            .unwrap_err();
        assert!(err.contains("out of domain"), "{err}");
        // failed push must not leave partial state behind
        assert_eq!(tb.len(), 0);
    }

    #[test]
    fn bad_cat_code_rejected() {
        let mut tb = TableBuilder::new(schema());
        assert!(tb
            .push_values(vec![Value::Num(1.0), Value::Cat(9)])
            .is_err());
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut tb = TableBuilder::new(schema());
        assert!(tb.push_values(vec![Value::Cat(0), Value::Cat(0)]).is_err());
    }

    #[test]
    #[should_panic(expected = "categorical")]
    fn num_on_categorical_column_panics() {
        table().num(0, AttrId(1));
    }
}
