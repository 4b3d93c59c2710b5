//! Per-table statistics for the cost-based planner.
//!
//! Statistics are derived on demand from the catalog and the secondary
//! indexes — no separate maintenance path, so they can never go stale:
//! row counts come from row storage, distinct counts from index key
//! counts, and min/max from the first/last key of an index led by the
//! column. Everything here is a deterministic function of table contents,
//! which keeps plan choice (and the explain text) byte-stable across runs
//! and across index-creation order.

use crate::database::Database;
use crate::value::Value;
use std::collections::BTreeMap;

/// Statistics for one column, keyed by schema position.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColStats {
    /// Distinct-value estimate (exact for single-column indexes; an upper
    /// bound when only multi-column indexes lead with this column).
    pub(crate) distinct: Option<usize>,
    /// Smallest value in `order_key` order.
    pub(crate) min: Option<Value>,
    /// Largest value in `order_key` order.
    pub(crate) max: Option<Value>,
}

/// Statistics for one table.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableStats {
    /// Total row count.
    pub(crate) rows: usize,
    /// Per-column stats for columns leading at least one index.
    pub(crate) cols: BTreeMap<usize, ColStats>,
}

impl TableStats {
    /// Equality selectivity for a predicate on column `col`:
    /// `1 / distinct` when an index supplies a distinct count, else a
    /// conservative default.
    pub(crate) fn eq_selectivity(&self, col: usize) -> f64 {
        let distinct = self.cols.get(&col).and_then(|c| c.distinct).unwrap_or(20);
        1.0 / distinct.max(1) as f64
    }

    /// Range selectivity for bounds on column `col`, interpolated over the
    /// observed [min, max] span when both are numeric; a fixed default
    /// otherwise. The column holds discrete keys, so a non-empty clipped
    /// range selects at least one key's share (`1 / distinct`): a range
    /// that touches only the extreme key still matches that key's rows.
    pub(crate) fn range_selectivity(
        &self,
        col: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> f64 {
        const DEFAULT: f64 = 0.25;
        let Some(cs) = self.cols.get(&col) else { return DEFAULT };
        let (Some(min), Some(max)) =
            (cs.min.as_ref().and_then(Value::as_f64), cs.max.as_ref().and_then(Value::as_f64))
        else {
            return DEFAULT;
        };
        let span = max - min;
        if !span.is_finite() || span <= 0.0 {
            return DEFAULT;
        }
        let lo = lo.and_then(Value::as_f64).unwrap_or(min).max(min);
        let hi = hi.and_then(Value::as_f64).unwrap_or(max).min(max);
        let mut frac = (hi - lo) / span;
        if let (true, Some(distinct)) = (hi >= lo, cs.distinct) {
            frac = frac.max(1.0 / distinct.max(1) as f64);
        }
        if frac.is_finite() {
            frac.clamp(0.0005, 1.0)
        } else {
            DEFAULT
        }
    }
}

/// Gathers statistics for `table` (real, lowercased name) from its row
/// storage and secondary indexes.
pub(crate) fn gather(db: &Database, table: &str) -> TableStats {
    let rows = db.table(table).map(|t| t.rows.len()).unwrap_or(0);
    let mut cols: BTreeMap<usize, ColStats> = BTreeMap::new();
    for ix in db.indexes_for(table) {
        let lead = ix.positions()[0];
        let entry = cols.entry(lead).or_default();
        let keys = ix.key_count();
        entry.distinct = Some(match entry.distinct {
            // Every index whose key starts with this column over-counts its
            // distinct values (extra key columns split buckets); the
            // smallest count is the tightest bound.
            Some(d) => d.min(keys),
            None => keys,
        });
        if entry.min.is_none() {
            entry.min = ix.first_key().map(|k| k.values()[0].clone());
            entry.max = ix.last_key().map(|k| k.values()[0].clone());
        }
    }
    TableStats { rows, cols }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Column::new("method", ColumnType::Text),
                Column::new("horizon", ColumnType::Int),
            ]),
        )
        .unwrap();
        for (m, h) in [("a", 24), ("b", 24), ("a", 96), ("c", 96), ("a", 336)] {
            db.insert_row("t", vec![Value::from(m), Value::Int(h)]).unwrap();
        }
        db.create_index("ix_m", "t", &["method"]).unwrap();
        db.create_index("ix_h", "t", &["horizon"]).unwrap();
        db.create_index("ix_mh", "t", &["method", "horizon"]).unwrap();
        db
    }

    #[test]
    fn distinct_uses_tightest_index_bound() {
        let st = gather(&db(), "t");
        assert_eq!(st.rows, 5);
        // ix_m says 3 distinct methods; ix_mh would say 5 — the minimum wins
        // regardless of which index was created first.
        assert_eq!(st.cols[&0].distinct, Some(3));
        assert_eq!(st.cols[&1].distinct, Some(3));
    }

    #[test]
    fn min_max_come_from_index_extremes() {
        let st = gather(&db(), "t");
        assert_eq!(st.cols[&1].min, Some(Value::Int(24)));
        assert_eq!(st.cols[&1].max, Some(Value::Int(336)));
    }

    #[test]
    fn selectivities_are_sane() {
        let st = gather(&db(), "t");
        let eq = st.eq_selectivity(1);
        assert!((eq - 1.0 / 3.0).abs() < 1e-12);
        let range = st.range_selectivity(1, Some(&Value::Int(24)), Some(&Value::Int(180)));
        assert!((0.0..=1.0).contains(&range));
        assert!(range < 1.0, "half the span is not the whole span");
        // An empty clipped range keeps the floor.
        let empty = st.range_selectivity(1, Some(&Value::Int(400)), None);
        assert!(empty < 0.01, "a range past the max selects nothing: {empty}");
        // No stats for an unindexed column → defaults.
        assert_eq!(st.eq_selectivity(7), 1.0 / 20.0);
        assert_eq!(st.range_selectivity(7, None, None), 0.25);
    }

    #[test]
    fn a_range_touching_only_an_extreme_key_selects_that_key() {
        // Two horizons with equal row counts: `>= max` and `<= min` each
        // match half the rows, not the interpolated zero-width span.
        let mut db = Database::new();
        db.create_table("r", Schema::new(vec![Column::new("horizon", ColumnType::Int)]))
            .unwrap();
        for h in [24, 96, 24, 96] {
            db.insert_row("r", vec![Value::Int(h)]).unwrap();
        }
        db.create_index("ix_h", "r", &["horizon"]).unwrap();
        let st = gather(&db, "r");
        let at_max = st.range_selectivity(0, Some(&Value::Int(96)), None);
        let at_min = st.range_selectivity(0, None, Some(&Value::Int(24)));
        assert!(at_max >= 0.5, "horizon >= 96 selects {at_max}");
        assert!(at_min >= 0.5, "horizon <= 24 selects {at_min}");
    }
}
