//! `SELECT` execution.
//!
//! Two executors share name resolution and one finishing tail:
//!
//! * [`execute_select`] — the naive scan oracle: FROM/JOIN as materialized
//!   nested-loop inner joins, then [`run_select`], which tree-walks
//!   [`eval`] over every row and every group. Kept verbatim in spirit so
//!   every plan stays verifiable against it.
//! * [`execute_planned`] — runs the statement compiled at plan time
//!   ([`crate::compiled`]) along the plan's access path and join
//!   strategies. A statement whose evaluation could raise an error has no
//!   compiled form and runs on the oracle instead, so both executors return
//!   the same `Err` by construction.
//!
//! Both end in [`finish`]: DISTINCT → ORDER BY → LIMIT. Grouping and
//! DISTINCT key on typed [`IndexKey`] tuples (ordered by
//! `Value::order_key`), not stringified rows — no per-row key `String`
//! allocations, and the same R8 total-order policy everywhere.

use crate::ast::{Aggregate, BinOp, Expr, SelectItem, SelectStmt};
use crate::database::{Database, QueryResult, Table};
use crate::error::DbError;
use crate::index::IndexKey;
use crate::plan::SelectPlan;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// The tables a `SELECT` joins, in join order, as its column references
/// see them.
#[derive(Debug, Clone)]
pub(crate) struct Layout<'d> {
    /// `(effective name, table)` per joined table.
    pub(crate) tables: Vec<(&'d str, &'d Table)>,
}

impl<'d> Layout<'d> {
    /// The layout of every table `stmt` reads, driver first.
    pub(crate) fn of(db: &'d Database, stmt: &'d SelectStmt) -> Result<Layout<'d>, DbError> {
        let mut tables = Vec::with_capacity(stmt.joins.len() + 1);
        for r in std::iter::once(&stmt.from).chain(stmt.joins.iter().map(|j| &j.table)) {
            tables.push((r.effective_name(), db.table(&r.name)?));
        }
        Ok(Layout { tables })
    }

    /// The first `n` tables: the scope of the `ON` clause that joins table
    /// `n - 1`, exactly the tables the naive incremental build has seen.
    pub(crate) fn prefix(&self, n: usize) -> Layout<'d> {
        Layout { tables: self.tables[..n].to_vec() }
    }

    /// Resolves a column reference to `(table, column)` positions.
    pub(crate) fn slot(&self, table: Option<&str>, name: &str) -> Result<(usize, usize), DbError> {
        let name = name.to_ascii_lowercase();
        let column = |tab: &Table| tab.schema.columns().iter().position(|c| c.name == name);
        match table {
            Some(t) => {
                let t = t.to_ascii_lowercase();
                for (i, (eff, tab)) in self.tables.iter().enumerate() {
                    if eff.eq_ignore_ascii_case(&t) {
                        return column(tab).map(|c| (i, c)).ok_or_else(|| {
                            DbError::UnknownColumn { name: format!("{t}.{name}") }
                        });
                    }
                }
                Err(DbError::UnknownTable { name: t })
            }
            None => {
                let mut found = None;
                for (i, (eff, tab)) in self.tables.iter().enumerate() {
                    if let Some(c) = column(tab) {
                        if found.is_some() {
                            let tname = eff.to_ascii_lowercase();
                            return Err(DbError::Eval {
                                message: format!(
                                    "ambiguous column '{name}' (qualify with a table name, e.g. {tname}.{name})"
                                ),
                            });
                        }
                        found = Some((i, c));
                    }
                }
                found.ok_or(DbError::UnknownColumn { name })
            }
        }
    }

    /// Resolves a column reference to its offset in a joined row: the
    /// tables' rows concatenated in join order.
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize, DbError> {
        let (t, c) = self.slot(table, name)?;
        Ok(self.tables[..t].iter().map(|(_, tab)| tab.schema.len()).sum::<usize>() + c)
    }
}

/// SQL LIKE matching with `%` and `_` wildcards (ASCII case-insensitive,
/// the friendlier choice for natural-language-generated SQL). Greedy, with
/// backtracking to the last `%`; allocation-free, because compiled filters
/// run it once per row.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (0, 0);
    // After the last `%`: where the pattern resumes, and how far into the
    // text the `%` has absorbed.
    let mut star: Option<(usize, usize)> = None;
    while let Some(tc) = text[t..].chars().next() {
        match pattern[p..].chars().next() {
            Some('%') => {
                p += 1;
                star = Some((p, t));
                continue;
            }
            Some(pc) if pc == '_' || pc.eq_ignore_ascii_case(&tc) => {
                p += pc.len_utf8();
                t += tc.len_utf8();
                continue;
            }
            _ => {}
        }
        // Mismatch: let the last `%` absorb one more character and retry.
        let Some((resume, absorbed)) = star else { return false };
        let absorbed = absorbed + text[absorbed..].chars().next().map_or(1, char::len_utf8);
        star = Some((resume, absorbed));
        p = resume;
        t = absorbed;
    }
    pattern[p..].chars().all(|c| c == '%')
}

/// `l op r` for `+ - * /`: NULL when either side is NULL or on division
/// by zero, an `Int` when both sides are ints (except for division), and
/// `None` when a non-NULL side is not numeric.
pub(crate) fn arith(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    if l.is_null() || r.is_null() {
        return Some(Value::Null);
    }
    let (a, b) = (l.as_f64()?, r.as_f64()?);
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div if b == 0.0 => return Some(Value::Null),
        BinOp::Div => return Some(Value::Float(a / b)),
        _ => return None,
    };
    // Preserve integer type when both sides were ints.
    Some(match (l, r) {
        (Value::Int(_), Value::Int(_)) => Value::Int(out as i64),
        _ => Value::Float(out),
    })
}

/// Evaluation context: one joined row, or a whole group for aggregates.
enum Ctx<'a> {
    Row(&'a [Value]),
    Group {
        rows: &'a [Vec<Value>],
    },
}

/// The oracle's tree-walking evaluator: resolves each column by name on
/// every call.
fn eval(expr: &Expr, ctx: &Ctx<'_>, layout: &Layout<'_>) -> Result<Value, DbError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, name } => {
            let idx = layout.resolve(table.as_deref(), name)?;
            match ctx {
                Ctx::Row(row) => Ok(row[idx].clone()),
                // In aggregate context a bare column takes the group's first
                // row (valid for GROUP BY keys; consistent for others).
                Ctx::Group { rows } => Ok(rows
                    .first()
                    .map(|r| r[idx].clone())
                    .unwrap_or(Value::Null)),
            }
        }
        Expr::Neg(e) => {
            let v = eval(e, ctx, layout)?;
            match v {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::Eval { message: format!("cannot negate {other:?}") }),
            }
        }
        Expr::Not(e) => {
            let v = eval(e, ctx, layout)?;
            match v.truthy() {
                Some(b) => Ok(Value::Bool(!b)),
                None => Ok(Value::Null),
            }
        }
        Expr::Binary { op, left, right } => {
            let l = eval(left, ctx, layout)?;
            // Short-circuit logic operators.
            match op {
                BinOp::And => {
                    if l.truthy() == Some(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(right, ctx, layout)?;
                    return Ok(match (l.truthy(), r.truthy()) {
                        (Some(a), Some(b)) => Value::Bool(a && b),
                        _ => Value::Null,
                    });
                }
                BinOp::Or => {
                    if l.truthy() == Some(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(right, ctx, layout)?;
                    return Ok(match (l.truthy(), r.truthy()) {
                        (Some(a), Some(b)) => Value::Bool(a || b),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let r = eval(right, ctx, layout)?;
            match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    match l.compare(&r) {
                        None => Ok(Value::Null),
                        Some(ord) => {
                            let b = match op {
                                BinOp::Eq => ord == Ordering::Equal,
                                BinOp::Ne => ord != Ordering::Equal,
                                BinOp::Lt => ord == Ordering::Less,
                                BinOp::Le => ord != Ordering::Greater,
                                BinOp::Gt => ord == Ordering::Greater,
                                BinOp::Ge => ord != Ordering::Less,
                                _ => {
                                    return Err(DbError::Eval {
                                        message: format!(
                                            "non-comparison operator {op:?} in comparison arm"
                                        ),
                                    })
                                }
                            };
                            Ok(Value::Bool(b))
                        }
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    arith(*op, &l, &r).ok_or_else(|| {
                        let bad = if l.as_f64().is_none() { &l } else { &r };
                        DbError::Eval { message: format!("arithmetic on non-numeric {bad:?}") }
                    })
                }
                BinOp::And | BinOp::Or => Err(DbError::Eval {
                    message: "logical operator reached the scalar evaluator".into(),
                }),
            }
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, ctx, layout)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Bool(like_match(pattern, &s) != *negated)),
                other => Err(DbError::Eval { message: format!("LIKE on non-text {other:?}") }),
            }
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, ctx, layout)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut any = false;
            for item in list {
                let iv = eval(item, ctx, layout)?;
                if v.sql_eq(&iv) == Some(true) {
                    any = true;
                    break;
                }
            }
            Ok(Value::Bool(any != *negated))
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, ctx, layout)?;
            let lo = eval(low, ctx, layout)?;
            let hi = eval(high, ctx, layout)?;
            match (v.compare(&lo), v.compare(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx, layout)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::AggregateCall { func, arg } => {
            let rows: &[Vec<Value>] = match ctx {
                Ctx::Group { rows } => rows,
                Ctx::Row(_) => {
                    return Err(DbError::Eval {
                        message: "aggregate used outside GROUP BY context".into(),
                    })
                }
            };
            let values: Vec<Value> = match arg {
                None => return Ok(Value::Int(rows.len() as i64)), // COUNT(*)
                Some(a) => rows
                    .iter()
                    .map(|r| eval(a, &Ctx::Row(r), layout))
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .filter(|v| !v.is_null())
                    .collect(),
            };
            match func {
                Aggregate::Count => Ok(Value::Int(values.len() as i64)),
                Aggregate::Sum | Aggregate::Avg => {
                    if values.is_empty() {
                        return Ok(Value::Null);
                    }
                    let mut sum = 0.0;
                    for v in &values {
                        sum += v.as_f64().ok_or_else(|| DbError::Eval {
                            message: format!("{} on non-numeric value", func.name()),
                        })?;
                    }
                    if *func == Aggregate::Sum {
                        Ok(Value::Float(sum))
                    } else {
                        Ok(Value::Float(sum / values.len() as f64))
                    }
                }
                Aggregate::Min | Aggregate::Max => {
                    let mut best: Option<Value> = None;
                    for v in values {
                        best = Some(match best {
                            None => v,
                            Some(b) => {
                                let keep_new = match v.compare(&b) {
                                    Some(Ordering::Less) => *func == Aggregate::Min,
                                    Some(Ordering::Greater) => *func == Aggregate::Max,
                                    _ => false,
                                };
                                if keep_new {
                                    v
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    Ok(best.unwrap_or(Value::Null))
                }
            }
        }
    }
}

/// Executes a parsed `SELECT` with the naive scan pipeline (the planner's
/// test oracle): materialized nested-loop joins, then [`run_select`].
pub(crate) fn execute_select(db: &Database, stmt: &SelectStmt) -> Result<QueryResult, DbError> {
    let mut sp = easytime_obs::span("db.execute");
    // --- FROM / JOIN: build the joined layout and row set. ---
    let layout = Layout::of(db, stmt)?;
    let base = layout.tables[0].1;
    if sp.is_recording() {
        sp.attr("table", stmt.from.name.as_str());
        sp.attr_u64("joins", stmt.joins.len() as u64);
        easytime_obs::add("db.rows_scanned", base.rows.len() as u64);
    }
    let mut rows: Vec<Vec<Value>> = base.rows.clone();
    for (j, join) in stmt.joins.iter().enumerate() {
        let right = layout.tables[j + 1].1;
        // `ON` sees exactly the tables joined so far.
        let scope = layout.prefix(j + 2);
        let mut joined = Vec::new();
        for l in &rows {
            for r in &right.rows {
                let mut combined = Vec::with_capacity(l.len() + r.len());
                combined.extend_from_slice(l);
                combined.extend_from_slice(r);
                if eval(&join.on, &Ctx::Row(&combined), &scope)?.truthy() == Some(true) {
                    joined.push(combined);
                }
            }
        }
        rows = joined;
    }

    let result = run_select(stmt, rows, &layout)?;
    if sp.is_recording() {
        sp.attr_u64("rows", result.rows.len() as u64);
        easytime_obs::add("db.rows_returned", result.rows.len() as u64);
    }
    Ok(result)
}

/// Executes a parsed `SELECT` along its plan: the compiled statement when
/// the plan carries one, the scan oracle otherwise. Produces bit-identical
/// results to [`execute_select`] (see [`crate::compiled`]).
pub(crate) fn execute_planned(
    db: &Database,
    stmt: &SelectStmt,
    plan: &SelectPlan,
) -> Result<QueryResult, DbError> {
    let Some(program) = &plan.program else { return execute_select(db, stmt) };
    let mut sp = easytime_obs::span("db.execute");
    if sp.is_recording() {
        sp.attr("table", stmt.from.name.as_str());
        sp.attr_u64("joins", stmt.joins.len() as u64);
        sp.attr("path", "planned");
    }
    let layout = Layout::of(db, stmt)?;
    let (result, stats) = program.run(db, stmt, &layout, plan)?;
    if sp.is_recording() {
        sp.attr_u64("rows", result.rows.len() as u64);
        easytime_obs::add("db.index_seeks", stats.seeks);
        easytime_obs::add("db.rows_scanned", stats.scanned);
        easytime_obs::add("db.rows_pruned", stats.pruned);
        easytime_obs::add("db.rows_returned", result.rows.len() as u64);
    }
    Ok(result)
}

/// Each output column's name and expression, with `*` expanded to every
/// column of every joined table.
pub(crate) fn projections(stmt: &SelectStmt, layout: &Layout<'_>) -> (Vec<String>, Vec<Expr>) {
    let mut names = Vec::new();
    let mut exprs = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (eff, tab) in &layout.tables {
                    for c in tab.schema.columns() {
                        names.push(c.name.clone());
                        exprs.push(Expr::Column {
                            table: Some(eff.to_ascii_lowercase()),
                            name: c.name.clone(),
                        });
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                exprs.push(expr.clone());
            }
        }
    }
    (names, exprs)
}

/// The output column an `ORDER BY` key names: an unqualified name equal to
/// an output column's (so aliases win over table columns) sorts by that
/// output value instead of being evaluated.
pub(crate) fn output_alias(expr: &Expr, columns: &[String]) -> Option<usize> {
    match expr {
        Expr::Column { table: None, name } => {
            columns.iter().position(|c| c.eq_ignore_ascii_case(name))
        }
        _ => None,
    }
}

/// The oracle's finishing pipeline over the materialized joined rows:
/// WHERE → GROUP BY + aggregates → HAVING → projection, then [`finish`].
fn run_select(
    stmt: &SelectStmt,
    rows: Vec<Vec<Value>>,
    layout: &Layout<'_>,
) -> Result<QueryResult, DbError> {
    let aggregate_mode = stmt.is_aggregate();
    if aggregate_mode && stmt.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        return Err(DbError::Unsupported {
            feature: "SELECT * together with aggregates/GROUP BY".into(),
        });
    }
    let (out_columns, out_exprs) = projections(stmt, layout);

    // --- WHERE, stopping early when LIMIT needs no ordering pass ---
    let early_limit = match stmt.limit {
        Some(l) if !aggregate_mode && !stmt.distinct && stmt.order_by.is_empty() => Some(l),
        _ => None,
    };
    let mut kept: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        if early_limit.is_some_and(|l| kept.len() >= l) {
            break;
        }
        if let Some(pred) = &stmt.where_clause {
            if eval(pred, &Ctx::Row(&row), layout)?.truthy() != Some(true) {
                continue;
            }
        }
        kept.push(row);
    }
    let rows = kept;

    let mut result_rows: Vec<Vec<Value>> = Vec::new();
    // Values used for ORDER BY, aligned with result_rows.
    let mut order_keys: Vec<Vec<Value>> = Vec::new();

    // Resolves an ORDER BY expression: output alias/name first, then any
    // expression over the underlying context.
    let order_value = |expr: &Expr,
                       out_row: &[Value],
                       ctx: &Ctx<'_>|
     -> Result<Value, DbError> {
        match output_alias(expr, &out_columns) {
            Some(i) => Ok(out_row[i].clone()),
            None => eval(expr, ctx, layout),
        }
    };

    if aggregate_mode {
        // Group rows by the GROUP BY key (whole input = one group when no
        // GROUP BY but aggregates are present). Groups keep first-appearance
        // order; the key map is a BTreeMap over typed order_key tuples.
        let mut groups: Vec<Vec<Vec<Value>>> = Vec::new();
        if stmt.group_by.is_empty() {
            groups.push(rows);
        } else {
            let mut index: BTreeMap<IndexKey, usize> = BTreeMap::new();
            for row in rows {
                let keys: Vec<Value> = stmt
                    .group_by
                    .iter()
                    .map(|e| eval(e, &Ctx::Row(&row), layout))
                    .collect::<Result<_, _>>()?;
                let key = IndexKey::from_values(keys);
                match index.get(&key) {
                    Some(&i) => groups[i].push(row),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![row]);
                    }
                }
            }
        }

        for group_rows in &groups {
            if group_rows.is_empty() && !stmt.group_by.is_empty() {
                continue;
            }
            let ctx = Ctx::Group { rows: group_rows };
            if let Some(h) = &stmt.having {
                if eval(h, &ctx, layout)?.truthy() != Some(true) {
                    continue;
                }
            }
            let out: Vec<Value> = out_exprs
                .iter()
                .map(|e| eval(e, &ctx, layout))
                .collect::<Result<_, _>>()?;
            let keys: Vec<Value> = stmt
                .order_by
                .iter()
                .map(|(e, _)| order_value(e, &out, &ctx))
                .collect::<Result<_, _>>()?;
            result_rows.push(out);
            order_keys.push(keys);
        }
    } else {
        if stmt.having.is_some() {
            return Err(DbError::Unsupported {
                feature: "HAVING without GROUP BY or aggregates".into(),
            });
        }
        for row in &rows {
            let ctx = Ctx::Row(row);
            let out: Vec<Value> = out_exprs
                .iter()
                .map(|e| eval(e, &ctx, layout))
                .collect::<Result<_, _>>()?;
            let keys: Vec<Value> = stmt
                .order_by
                .iter()
                .map(|(e, _)| order_value(e, &out, &ctx))
                .collect::<Result<_, _>>()?;
            result_rows.push(out);
            order_keys.push(keys);
        }
    }
    Ok(finish(stmt, out_columns, result_rows, order_keys, false))
}

/// The tail both executors share: DISTINCT → ORDER BY → LIMIT over the
/// projected rows and their aligned `ORDER BY` keys. With `sort_elided`
/// the rows already arrive in final `ORDER BY` order and the sort is
/// skipped.
pub(crate) fn finish(
    stmt: &SelectStmt,
    columns: Vec<String>,
    mut rows: Vec<Vec<Value>>,
    mut order_keys: Vec<Vec<Value>>,
    sort_elided: bool,
) -> QueryResult {
    // --- DISTINCT (typed keys, first appearance wins) ---
    if stmt.distinct {
        let mut seen: BTreeSet<IndexKey> = BTreeSet::new();
        let mut deduped_rows = Vec::new();
        let mut deduped_keys = Vec::new();
        for (row, keys) in rows.into_iter().zip(order_keys) {
            if seen.insert(IndexKey::from_values(row.clone())) {
                deduped_rows.push(row);
                deduped_keys.push(keys);
            }
        }
        rows = deduped_rows;
        order_keys = deduped_keys;
    }

    // --- ORDER BY (stable; skipped when the access path delivered it) ---
    if !stmt.order_by.is_empty() && !sort_elided {
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| {
            for (k, (_, desc)) in stmt.order_by.iter().enumerate() {
                let ord = order_keys[a][k].order_key(&order_keys[b][k]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        rows = idx.into_iter().map(|i| std::mem::take(&mut rows[i])).collect();
    }

    // --- LIMIT ---
    if let Some(limit) = stmt.limit {
        rows.truncate(limit);
    }

    QueryResult { columns, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn results_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE results (dataset_id TEXT, method TEXT, horizon INTEGER, mae REAL)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO results VALUES \
             ('web_01', 'naive', 24, 3.0), \
             ('web_01', 'theta', 24, 2.0), \
             ('web_01', 'naive', 96, 6.0), \
             ('web_01', 'theta', 96, 4.0), \
             ('eco_01', 'naive', 24, 1.0), \
             ('eco_01', 'theta', 24, 1.5)",
        )
        .unwrap();
        db.execute("CREATE TABLE datasets (id TEXT, domain TEXT, trend REAL)").unwrap();
        db.execute(
            "INSERT INTO datasets VALUES ('web_01', 'web', 0.8), ('eco_01', 'economic', 0.3)",
        )
        .unwrap();
        db
    }

    #[test]
    fn where_order_limit() {
        let db = results_db();
        let r = db
            .query("SELECT method, mae FROM results WHERE horizon = 24 ORDER BY mae LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], vec![Value::Text("naive".into()), Value::Float(1.0)]);
        assert_eq!(r.rows[1], vec![Value::Text("theta".into()), Value::Float(1.5)]);
    }

    #[test]
    fn group_by_with_aggregates_and_having() {
        let db = results_db();
        let r = db
            .query(
                "SELECT method, AVG(mae) AS mean_mae, COUNT(*) AS n FROM results \
                 GROUP BY method HAVING COUNT(*) >= 3 ORDER BY mean_mae",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["method", "mean_mae", "n"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("theta".into()));
        assert_eq!(r.rows[0][1], Value::Float(2.5));
        assert_eq!(r.rows[0][2], Value::Int(3));
        assert_eq!(r.rows[1][1], Value::Float(10.0 / 3.0));
    }

    #[test]
    fn aggregates_without_group_by() {
        let db = results_db();
        let r = db
            .query("SELECT COUNT(*), MIN(mae), MAX(mae), SUM(mae) FROM results")
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Int(6), Value::Float(1.0), Value::Float(6.0), Value::Float(17.5)]
        );
    }

    #[test]
    fn join_with_filter_on_joined_table() {
        let db = results_db();
        let r = db
            .query(
                "SELECT r.method, AVG(r.mae) AS m FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id \
                 WHERE d.trend > 0.6 AND r.horizon = 96 \
                 GROUP BY r.method ORDER BY m",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("theta".into()));
        assert_eq!(r.rows[0][1], Value::Float(4.0));
    }

    #[test]
    fn distinct_and_wildcard() {
        let db = results_db();
        let r = db.query("SELECT DISTINCT method FROM results ORDER BY method").unwrap();
        assert_eq!(r.rows.len(), 2);
        let all = db.query("SELECT * FROM datasets").unwrap();
        assert_eq!(all.columns, vec!["id", "domain", "trend"]);
        assert_eq!(all.rows.len(), 2);
    }

    #[test]
    fn like_in_between() {
        let db = results_db();
        let r = db
            .query("SELECT DISTINCT dataset_id FROM results WHERE dataset_id LIKE 'web%'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Text("web_01".into())]]);
        let r = db
            .query("SELECT COUNT(*) FROM results WHERE method IN ('naive') AND mae BETWEEN 1 AND 3")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        let r = db
            .query("SELECT COUNT(*) FROM results WHERE method NOT IN ('naive')")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn like_matcher_semantics() {
        assert!(like_match("web%", "web_01"));
        assert!(like_match("%01", "web_01"));
        assert!(like_match("w_b%", "web_01"));
        assert!(like_match("WEB%", "web_01"), "LIKE is case-insensitive");
        assert!(!like_match("web", "web_01"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
    }

    /// The dynamic-programming matcher the greedy one replaced.
    fn like_reference(pattern: &str, text: &str) -> bool {
        let p: Vec<char> = pattern.to_ascii_lowercase().chars().collect();
        let t: Vec<char> = text.to_ascii_lowercase().chars().collect();
        let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
        dp[0][0] = true;
        for i in 1..=p.len() {
            if p[i - 1] == '%' {
                dp[i][0] = dp[i - 1][0];
            }
            for j in 1..=t.len() {
                dp[i][j] = match p[i - 1] {
                    '%' => dp[i - 1][j] || dp[i][j - 1],
                    '_' => dp[i - 1][j - 1],
                    c => dp[i - 1][j - 1] && c == t[j - 1],
                };
            }
        }
        dp[p.len()][t.len()]
    }

    #[test]
    fn like_matcher_agrees_with_the_reference_on_every_short_input() {
        // Every pattern and text up to four characters over small
        // alphabets, a multi-byte character and both letter cases included.
        fn all(alphabet: &[char], max: usize) -> Vec<String> {
            let mut out = vec![String::new()];
            let mut frontier = out.clone();
            for _ in 0..max {
                frontier = frontier
                    .iter()
                    .flat_map(|s| alphabet.iter().map(move |c| format!("{s}{c}")))
                    .collect();
                out.extend(frontier.iter().cloned());
            }
            out
        }
        let texts = all(&['a', 'B', 'é'], 4);
        for p in all(&['%', '_', 'A', 'b', 'é'], 4) {
            for t in &texts {
                assert_eq!(like_match(&p, t), like_reference(&p, t), "{p:?} LIKE {t:?}");
            }
        }
    }

    #[test]
    fn arithmetic_in_projections() {
        let db = results_db();
        let r = db
            .query("SELECT mae * 2 + 1 AS double_mae FROM results WHERE mae = 1.0")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(3.0));
        let r = db.query("SELECT horizon / 0 FROM results LIMIT 1").unwrap();
        assert!(r.rows[0][0].is_null(), "division by zero yields NULL");
    }

    #[test]
    fn ambiguous_and_unknown_columns_error() {
        let db = results_db();
        // Both tables lack column 'nope'.
        assert!(matches!(
            db.query("SELECT nope FROM results"),
            Err(DbError::UnknownColumn { .. })
        ));
        // Unqualified column that exists in the base table only is fine.
        assert!(db
            .query("SELECT method FROM results r JOIN datasets d ON r.dataset_id = d.id")
            .is_ok());
    }

    #[test]
    fn order_by_alias_and_expression() {
        let db = results_db();
        let r = db
            .query("SELECT method, mae AS m FROM results WHERE horizon = 24 ORDER BY m DESC")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("naive".into()));
        let r = db
            .query("SELECT method FROM results WHERE horizon = 24 ORDER BY mae * -1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("naive".into()));
    }

    #[test]
    fn count_distinct_like_queries_by_group() {
        let db = results_db();
        let r = db
            .query(
                "SELECT dataset_id, COUNT(*) AS n FROM results GROUP BY dataset_id \
                 ORDER BY n DESC, dataset_id",
            )
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Text("web_01".into()), Value::Int(4)]);
        assert_eq!(r.rows[1], vec![Value::Text("eco_01".into()), Value::Int(2)]);
    }

    #[test]
    fn empty_results_are_not_errors() {
        let db = results_db();
        let r = db.query("SELECT * FROM results WHERE mae > 100").unwrap();
        assert!(r.is_empty());
        let r = db
            .query("SELECT method, AVG(mae) FROM results WHERE mae > 100 GROUP BY method")
            .unwrap();
        assert!(r.is_empty());
        // Aggregate over empty set without GROUP BY: one row, NULL/0.
        let r = db.query("SELECT COUNT(*), AVG(mae) FROM results WHERE mae > 100").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn select_star_with_group_by_is_unsupported() {
        let db = results_db();
        assert!(matches!(
            db.query("SELECT * FROM results GROUP BY method"),
            Err(DbError::Unsupported { .. })
        ));
    }

    #[test]
    fn typed_group_keys_merge_cross_type_numerics() {
        // Int 2 and Float 2.0 are one group under order_key equality — the
        // same policy ORDER BY uses, unlike the old stringified keys.
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k REAL, v INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (2, 1), (2.0, 10), (3, 5)").unwrap();
        let r = db.query("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Int(2));
    }

    #[test]
    fn planned_matches_scan_on_indexed_point_query() {
        let mut db = results_db();
        db.create_index("ix_m", "results", &["method", "horizon"]).unwrap();
        let sql = "SELECT mae FROM results WHERE method = 'theta' AND horizon = 24";
        let planned = db.query(sql).unwrap();
        let scanned = db.query_scan(sql).unwrap();
        assert_eq!(planned, scanned);
        let explain = db.explain(sql).unwrap();
        assert!(explain.contains("index-seek ix_m"), "{explain}");
    }
}
