//! Typed secondary indexes.
//!
//! An [`Index`] maps a tuple of column values — ordered by
//! [`Value::order_key`], so NULLs, NaNs, and cross-type tuples sort exactly
//! like `ORDER BY` does — to the ascending row ids that carry that tuple.
//! Multi-column indexes support *prefix* access: an equality prefix plus an
//! optional range on the next column, walked forward or backward.
//!
//! Two contracts matter for the planner's bit-identical-results guarantee:
//!
//! 1. **Superset pruning.** `order_key` equality is coarser than SQL
//!    equality (`Int(2)` equals `Float(2.0)`, `NaN` equals `NaN`), so a
//!    seek returns a *superset* of the SQL-matching rows. The executor
//!    always re-applies the full predicate; the index only prunes.
//! 2. **Row-id tie order.** Ids are appended in insertion order, so each
//!    key's id list is ascending. A forward (or per-key, in reverse) walk
//!    therefore reproduces the stable-sort tie order of the scan path.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Lexicographic [`Value::order_key`] comparison of two value tuples;
/// shorter tuples sort before longer ones sharing their prefix.
// lint: hot(runs per tree-node comparison on every index seek and per entry on range walks; must stay allocation-free)
pub(crate) fn cmp_values(a: &[Value], b: &[Value]) -> Ordering {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        let ord = a[i].order_key(&b[i]);
        if ord != Ordering::Equal {
            return ord;
        }
        i += 1;
    }
    a.len().cmp(&b.len())
}

/// An owned index key: a tuple of column values totally ordered by
/// [`cmp_values`]. Reusable as a probe scratch buffer (`clear` + `push`
/// keep the allocation).
#[derive(Debug, Clone, Default)]
pub struct IndexKey {
    values: Vec<Value>,
}

impl IndexKey {
    /// Creates an empty key.
    pub fn new() -> IndexKey {
        IndexKey { values: Vec::new() }
    }

    /// Creates a key from owned values.
    pub fn from_values(values: Vec<Value>) -> IndexKey {
        IndexKey { values }
    }

    /// Drops all components, keeping the allocation (probe-scratch reuse).
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Appends one component.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Sets component `i` (appending it when `i` is the length) to a copy
    /// of `v`, reusing the text buffer already in that slot: a scratch key
    /// rebuilt for every row stops allocating once its buffers fit.
    pub(crate) fn assign(&mut self, i: usize, v: &Value) {
        match (self.values.get_mut(i), v) {
            (Some(Value::Text(dst)), Value::Text(src)) => {
                dst.clear();
                dst.push_str(src);
            }
            (Some(slot), _) => *slot = v.clone(),
            (None, _) => self.values.push(v.clone()),
        }
    }

    /// The key's components.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the key has no components.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &IndexKey) -> bool {
        cmp_values(&self.values, &other.values) == Ordering::Equal
    }
}

// `cmp_values` is a total order (order_key is total per column), so the
// reflexive/symmetric/transitive requirements hold even for NaN-bearing
// keys — `total_cmp` calls a NaN equal to itself.
impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &IndexKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &IndexKey) -> Ordering {
        cmp_values(&self.values, &other.values)
    }
}

/// A secondary index over one table's columns.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    table: String,
    columns: Vec<String>,
    positions: Vec<usize>,
    map: BTreeMap<IndexKey, Vec<usize>>,
}

impl Index {
    /// Creates an empty index over `columns` (schema `positions`) of
    /// `table`. Names are expected lowercased by the caller.
    pub(crate) fn new(
        name: String,
        table: String,
        columns: Vec<String>,
        positions: Vec<usize>,
    ) -> Index {
        Index { name, table, columns, positions, map: BTreeMap::new() }
    }

    /// Index name (lowercased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed table name (lowercased).
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Indexed column names in key order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Schema positions of the key columns, in key order.
    pub(crate) fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of key columns.
    pub fn width(&self) -> usize {
        self.positions.len()
    }

    /// Number of distinct keys (the planner's distinct-count estimate for
    /// the leading column, exact for single-column indexes).
    pub(crate) fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Smallest key, when the index is non-empty (planner min statistic).
    pub(crate) fn first_key(&self) -> Option<&IndexKey> {
        self.map.keys().next()
    }

    /// Largest key, when the index is non-empty (planner max statistic).
    pub(crate) fn last_key(&self) -> Option<&IndexKey> {
        self.map.keys().next_back()
    }

    /// Registers `row` (stored at `row_id`) in the index. Called in
    /// insertion order, so each key's id list stays ascending.
    pub(crate) fn insert_row(&mut self, row_id: usize, row: &[Value]) {
        let key =
            IndexKey::from_values(self.positions.iter().map(|&p| row[p].clone()).collect());
        self.map.entry(key).or_default().push(row_id);
    }

    /// Equality probe: appends the row ids whose key starts with `key`
    /// (all components when `key` is full-width) to `out`, in ascending
    /// row-id order. `out` is cleared first; capacity is reused across
    /// probes.
    // lint: hot(join probes run once per driving row; the seek and id copy must not allocate per probe)
    pub fn probe_into(&self, key: &IndexKey, out: &mut Vec<usize>) {
        out.clear();
        if key.len() == self.width() {
            if let Some(ids) = self.map.get(key) {
                out.extend_from_slice(ids);
            }
            return;
        }
        self.collect_range(key, key.len(), None, None, false, out);
        // Prefix probes span several keys; per-key runs are ascending but
        // the concatenation is not. Ids are unique, so unstable is exact.
        out.sort_unstable();
    }

    /// Ordered range walk: appends row ids for keys whose first
    /// `prefix_len` components equal `start`'s, with the component at
    /// `prefix_len` further constrained by `lo`/`hi` (bound value,
    /// inclusive flag), to `out` in index-key order (reversed key order
    /// when `desc`; ids within one key always ascend). `start` doubles as
    /// the seek position: when `lo` is given, the caller pushes the bound
    /// as component `prefix_len` so the walk starts at the range's floor.
    // lint: hot(the per-entry bound checks of every index range scan; pruning wins vanish if this allocates per key)
    pub fn collect_range(
        &self,
        start: &IndexKey,
        prefix_len: usize,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
        desc: bool,
        out: &mut Vec<usize>,
    ) {
        let prefix = &start.values()[..prefix_len];
        // Collected per-key id runs for the descending replay; forward
        // walks extend `out` directly.
        let mut rev_groups: Vec<&[usize]> = Vec::new();
        for (key, ids) in self.map.range((Bound::Included(start), Bound::Unbounded)) {
            let kv = key.values();
            if cmp_values(&kv[..prefix_len.min(kv.len())], prefix) != Ordering::Equal {
                break;
            }
            if prefix_len < kv.len() {
                let v = &kv[prefix_len];
                if let Some((bound, inclusive)) = lo {
                    match v.order_key(bound) {
                        Ordering::Less => continue,
                        Ordering::Equal if !inclusive => continue,
                        _ => {}
                    }
                }
                if let Some((bound, inclusive)) = hi {
                    match v.order_key(bound) {
                        Ordering::Greater => break,
                        Ordering::Equal if !inclusive => break,
                        _ => {}
                    }
                }
            }
            if desc {
                rev_groups.push(ids.as_slice());
            } else {
                out.extend_from_slice(ids);
            }
        }
        if desc {
            for ids in rev_groups.iter().rev() {
                out.extend_from_slice(ids);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ix() -> Index {
        // Key: (method TEXT, horizon INT) over rows laid out as
        // [method, horizon, mae].
        let mut ix = Index::new(
            "ix_t".into(),
            "t".into(),
            vec!["method".into(), "horizon".into()],
            vec![0, 1],
        );
        let rows = [
            ("naive", 24, 1.0),
            ("theta", 24, 2.0),
            ("naive", 96, 3.0),
            ("naive", 24, 4.0),
            ("theta", 96, 5.0),
        ];
        for (i, (m, h, mae)) in rows.iter().enumerate() {
            ix.insert_row(i, &[Value::from(*m), Value::Int(*h), Value::Float(*mae)]);
        }
        ix
    }

    #[test]
    fn full_key_probe_returns_ascending_ids() {
        let ix = ix();
        let key = IndexKey::from_values(vec![Value::from("naive"), Value::Int(24)]);
        let mut out = Vec::new();
        ix.probe_into(&key, &mut out);
        assert_eq!(out, vec![0, 3]);
    }

    #[test]
    fn prefix_probe_sorts_across_keys() {
        let ix = ix();
        let key = IndexKey::from_values(vec![Value::from("naive")]);
        let mut out = Vec::new();
        ix.probe_into(&key, &mut out);
        assert_eq!(out, vec![0, 2, 3], "ids across (naive,24) and (naive,96) re-sorted");
    }

    #[test]
    fn range_walk_orders_by_key_and_reverses_key_groups() {
        let ix = ix();
        // All of method = 'naive', ordered by horizon.
        let start = IndexKey::from_values(vec![Value::from("naive")]);
        let mut out = Vec::new();
        ix.collect_range(&start, 1, None, None, false, &mut out);
        assert_eq!(out, vec![0, 3, 2], "(24: ids 0,3) then (96: id 2)");
        out.clear();
        ix.collect_range(&start, 1, None, None, true, &mut out);
        assert_eq!(out, vec![2, 0, 3], "descending keys, ascending ids within a key");
    }

    #[test]
    fn range_bounds_clip_the_walk() {
        // horizon >= 90 over every method: prefix empty, bound on col 0
        // (single-column view: build a horizon-only index)
        let mut hix =
            Index::new("ix_h".into(), "t".into(), vec!["horizon".into()], vec![1]);
        for (i, h) in [24, 24, 96, 24, 96].iter().enumerate() {
            hix.insert_row(i, &[Value::Null, Value::Int(*h), Value::Null]);
        }
        let start = IndexKey::from_values(vec![Value::Int(90)]);
        let mut out = Vec::new();
        hix.collect_range(&start, 0, Some((&Value::Int(90), true)), None, false, &mut out);
        assert_eq!(out, vec![2, 4]);
        // Exclusive upper bound stops before the boundary key.
        let start = IndexKey::new();
        out.clear();
        hix.collect_range(&start, 0, None, Some((&Value::Int(96), false)), false, &mut out);
        assert_eq!(out, vec![0, 1, 3]);
    }

    #[test]
    fn nan_keys_group_and_order_deterministically() {
        let mut ix = Index::new("ix_m".into(), "t".into(), vec!["mae".into()], vec![0]);
        for (i, v) in
            [Value::Float(f64::NAN), Value::Float(1.0), Value::Float(f64::NAN), Value::Null]
                .iter()
                .enumerate()
        {
            ix.insert_row(i, std::slice::from_ref(v));
        }
        assert_eq!(ix.key_count(), 3, "both NaNs share one key; NULL is its own");
        let key = IndexKey::from_values(vec![Value::Float(f64::NAN)]);
        let mut out = Vec::new();
        ix.probe_into(&key, &mut out);
        assert_eq!(out, vec![0, 2]);
        // Full ascending walk: NULL first, then 1.0, then NaN last.
        let start = IndexKey::new();
        out.clear();
        ix.collect_range(&start, 0, None, None, false, &mut out);
        assert_eq!(out, vec![3, 1, 0, 2]);
    }

    #[test]
    fn key_equality_follows_order_key() {
        let a = IndexKey::from_values(vec![Value::Int(2)]);
        let b = IndexKey::from_values(vec![Value::Float(2.0)]);
        assert_eq!(a, b, "cross-type numeric equality, same as ORDER BY");
        let shorter = IndexKey::from_values(vec![Value::Int(2)]);
        let longer = IndexKey::from_values(vec![Value::Int(2), Value::Int(0)]);
        assert!(shorter < longer, "prefix sorts first");
    }
}
