//! The compiled executor: each planned `SELECT` is compiled once, then run
//! over row ids without copying rows.
//!
//! [`compile`] resolves every column reference to a `(table, column)` slot
//! and every aggregate call to an accumulator slot, so evaluation never
//! looks a name up. [`Program::run`] advances one row id per joined table
//! through the plan's access path, pushed-down filters and joins: the
//! current tuple is a slice of borrowed table rows, and expressions borrow
//! `&Value`s from table storage ([`CExpr::value_at`]). A tuple that passes
//! `WHERE` is either projected (the only place row values are copied) or
//! folded straight into its group's COUNT/SUM/AVG/MIN/MAX accumulators.
//! The DISTINCT/ORDER BY/LIMIT tail is the oracle's ([`finish`]).
//!
//! Two contracts keep results bit-identical to the scan oracle:
//!
//! * **Emission order.** The driver yields row ids ascending (or in index
//!   order when the plan elides the sort, and that order *is* the output
//!   order), and each join expands a tuple against its right-table
//!   candidates in ascending row-id order. Tuples therefore reach `WHERE`
//!   in the order the oracle's materialized nested loops produce them, so
//!   groups appear, bare columns take the first row, and SUM/AVG add their
//!   values in the oracle's order.
//! * **Evaluation cannot fail.** A statement with an expression that could
//!   raise at run time — arithmetic, negation or SUM/AVG on a possibly
//!   non-numeric operand, LIKE on a possibly non-text one, an aggregate
//!   outside group context, a column name that is ambiguous or unknown in
//!   its scope — is not compiled; it runs on the scan oracle, and its explain
//!   says so. Inserts coerce every value to its column's type, so the
//!   column types decide this once per query. Pruning by index or pushdown
//!   then only skips evaluations that could not have failed.

use crate::ast::{Aggregate, BinOp, Expr, SelectItem, SelectStmt};
use crate::database::{Database, QueryResult, Table};
use crate::error::DbError;
use crate::executor::{arith, finish, like_match, output_alias, projections, Layout};
use crate::index::{Index, IndexKey};
use crate::plan::{split_and, Access, JoinStep, ProbePart, SelectPlan};
use crate::schema::ColumnType;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The non-NULL value types an expression can produce, as a bit set.
type Kind = u8;
const NUM: Kind = 1;
const TEXT: Kind = 2;
const BOOL: Kind = 4;

fn kind_of(v: &Value) -> Kind {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => NUM,
        Value::Text(_) => TEXT,
        Value::Bool(_) => BOOL,
    }
}

/// What a table column can hold: inserts coerce to the column type.
fn column_kind(ty: ColumnType) -> Kind {
    match ty {
        ColumnType::Int | ColumnType::Float => NUM,
        ColumnType::Text => TEXT,
        ColumnType::Bool => BOOL,
    }
}

static NULL: Value = Value::Null;

/// A compiled expression.
#[derive(Debug)]
pub(crate) enum CExpr {
    /// Column `.1` of joined table `.0`.
    Col(usize, usize),
    Lit(Value),
    /// The finished value of aggregate slot `.0` (group context only).
    Agg(usize),
    Neg(Box<CExpr>),
    Not(Box<CExpr>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Like(Box<CExpr>, String, bool),
    In(Box<CExpr>, Vec<CExpr>, bool),
    Between(Box<CExpr>, Box<CExpr>, Box<CExpr>, bool),
    IsNull(Box<CExpr>, bool),
}

impl CExpr {
    /// The value over one tuple — `row[t]` is joined table `t`'s row — or,
    /// in group context, over the group's first tuple and its finished
    /// aggregates `aggs`. A table past the end of `row` reads as NULL: an
    /// empty group has no first tuple.
    fn value_at<'a>(&'a self, row: &[&'a [Value]], aggs: &'a [Value]) -> Cow<'a, Value> {
        match self {
            CExpr::Col(t, c) => Cow::Borrowed(row.get(*t).map_or(&NULL, |r| &r[*c])),
            CExpr::Lit(v) => Cow::Borrowed(v),
            CExpr::Agg(i) => Cow::Borrowed(&aggs[*i]),
            CExpr::Neg(e) => Cow::Owned(match e.value_at(row, aggs).as_ref() {
                Value::Int(i) => Value::Int(-*i),
                Value::Float(f) => Value::Float(-*f),
                _ => Value::Null,
            }),
            CExpr::Not(e) => {
                Cow::Owned(e.value_at(row, aggs).truthy().map_or(Value::Null, |b| Value::Bool(!b)))
            }
            CExpr::Bin(op, l, r) => {
                let l = l.value_at(row, aggs);
                let r = match op {
                    BinOp::And if l.truthy() == Some(false) => {
                        return Cow::Owned(Value::Bool(false))
                    }
                    BinOp::Or if l.truthy() == Some(true) => return Cow::Owned(Value::Bool(true)),
                    _ => r.value_at(row, aggs),
                };
                Cow::Owned(match op {
                    BinOp::And | BinOp::Or => match (l.truthy(), r.truthy()) {
                        (Some(a), Some(b)) => {
                            Value::Bool(if *op == BinOp::And { a && b } else { a || b })
                        }
                        _ => Value::Null,
                    },
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        arith(*op, &l, &r).unwrap_or(Value::Null)
                    }
                    cmp => match l.compare(&r) {
                        None => Value::Null,
                        Some(ord) => Value::Bool(match cmp {
                            BinOp::Eq => ord == Ordering::Equal,
                            BinOp::Ne => ord != Ordering::Equal,
                            BinOp::Lt => ord == Ordering::Less,
                            BinOp::Le => ord != Ordering::Greater,
                            BinOp::Gt => ord == Ordering::Greater,
                            _ => ord != Ordering::Less,
                        }),
                    },
                })
            }
            CExpr::Like(e, pattern, negated) => Cow::Owned(match e.value_at(row, aggs).as_ref() {
                Value::Text(s) => Value::Bool(like_match(pattern, s) != *negated),
                _ => Value::Null,
            }),
            CExpr::In(e, list, negated) => {
                let v = e.value_at(row, aggs);
                if v.is_null() {
                    return Cow::Owned(Value::Null);
                }
                let any = list.iter().any(|i| v.sql_eq(&i.value_at(row, aggs)) == Some(true));
                Cow::Owned(Value::Bool(any != *negated))
            }
            CExpr::Between(e, lo, hi, negated) => {
                let v = e.value_at(row, aggs);
                let (lo, hi) = (lo.value_at(row, aggs), hi.value_at(row, aggs));
                Cow::Owned(match (v.compare(&lo), v.compare(&hi)) {
                    (Some(a), Some(b)) => {
                        Value::Bool((a != Ordering::Less && b != Ordering::Greater) != *negated)
                    }
                    _ => Value::Null,
                })
            }
            CExpr::IsNull(e, negated) => {
                Cow::Owned(Value::Bool(e.value_at(row, aggs).is_null() != *negated))
            }
        }
    }

    /// True when the predicate holds (is truthy) for the tuple `row`.
    fn holds(&self, row: &[&[Value]]) -> bool {
        self.value_at(row, &[]).truthy() == Some(true)
    }
}

/// One aggregate call: `arg` is `None` for `COUNT(*)`.
#[derive(Debug)]
struct AggSpec {
    func: Aggregate,
    arg: Option<CExpr>,
}

/// One group's running state for one aggregate slot.
#[derive(Debug, Default)]
struct Acc<'a> {
    /// Rows (for `*`) or non-NULL values folded in.
    n: i64,
    sum: f64,
    best: Option<Cow<'a, Value>>,
}

impl Acc<'_> {
    /// The aggregate's value; the oracle counts rows for any `f(*)`.
    fn finish(&mut self, spec: &AggSpec) -> Value {
        if spec.arg.is_none() || spec.func == Aggregate::Count {
            return Value::Int(self.n);
        }
        match spec.func {
            _ if self.n == 0 => Value::Null,
            Aggregate::Sum => Value::Float(self.sum),
            Aggregate::Avg => Value::Float(self.sum / self.n as f64),
            _ => self.best.take().map_or(Value::Null, Cow::into_owned),
        }
    }
}

/// An `ORDER BY` key: an output column, or an expression.
#[derive(Debug)]
enum SortKey {
    Output(usize),
    Expr(CExpr),
}

/// The aggregate-mode half of a program.
#[derive(Debug)]
struct Grouping {
    keys: Vec<CExpr>,
    aggs: Vec<AggSpec>,
    having: Option<CExpr>,
}

/// A `SELECT` compiled against its tables.
#[derive(Debug)]
pub(crate) struct Program {
    /// `WHERE` conjuncts, in [`split_and`] order.
    filters: Vec<CExpr>,
    /// One `ON` predicate per join.
    ons: Vec<CExpr>,
    columns: Vec<String>,
    outputs: Vec<CExpr>,
    order: Vec<SortKey>,
    grouping: Option<Grouping>,
}

/// Compiles `stmt` over `layout`, or names why it must run on the scan
/// oracle: some evaluation could raise an error, or the statement shape is
/// one the oracle rejects.
pub(crate) fn compile(stmt: &SelectStmt, layout: &Layout<'_>) -> Result<Program, &'static str> {
    let grouped = stmt.is_aggregate();
    let (columns, exprs) = projections(stmt, layout);
    if grouped && stmt.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        return Err("SELECT * with aggregates");
    }
    if !grouped && stmt.having.is_some() {
        return Err("HAVING without aggregates");
    }
    let mut c = Compiler { aggs: Vec::new() };
    let ons = stmt
        .joins
        .iter()
        .enumerate()
        .map(|(j, join)| c.expr(&join.on, &layout.prefix(j + 2), false))
        .collect::<Result<_, _>>()?;
    let mut conjuncts = Vec::new();
    if let Some(w) = &stmt.where_clause {
        split_and(w, &mut conjuncts);
    }
    let filters = conjuncts.iter().map(|e| c.expr(e, layout, false)).collect::<Result<_, _>>()?;
    let keys = stmt.group_by.iter().map(|e| c.expr(e, layout, false)).collect::<Result<_, _>>()?;
    let outputs = exprs.iter().map(|e| c.expr(e, layout, grouped)).collect::<Result<_, _>>()?;
    let order = stmt
        .order_by
        .iter()
        .map(|(e, _)| match output_alias(e, &columns) {
            Some(i) => Ok(SortKey::Output(i)),
            None => c.expr(e, layout, grouped).map(SortKey::Expr),
        })
        .collect::<Result<_, _>>()?;
    let having = stmt.having.as_ref().map(|h| c.expr(h, layout, true)).transpose()?;
    let grouping = grouped.then(|| Grouping {
        keys,
        aggs: c.aggs.into_iter().map(|(func, _, arg)| AggSpec { func, arg }).collect(),
        having,
    });
    Ok(Program { filters, ons, columns, outputs, order, grouping })
}

struct Compiler<'s> {
    /// Aggregate slots, deduplicated on the call's syntax.
    aggs: Vec<(Aggregate, Option<&'s Expr>, Option<CExpr>)>,
}

impl<'s> Compiler<'s> {
    /// Compiles `e` against `scope` in row context, or in group context
    /// when `grouped` (aggregates allowed, bare columns read the group's
    /// first tuple).
    fn expr(
        &mut self,
        e: &'s Expr,
        scope: &Layout<'_>,
        grouped: bool,
    ) -> Result<CExpr, &'static str> {
        self.typed(e, scope, grouped).map(|(x, _)| x)
    }

    fn typed(
        &mut self,
        e: &'s Expr,
        scope: &Layout<'_>,
        grouped: bool,
    ) -> Result<(CExpr, Kind), &'static str> {
        let mut sub = |s: &'s Expr| self.typed(s, scope, grouped);
        Ok(match e {
            Expr::Literal(v) => (CExpr::Lit(v.clone()), kind_of(v)),
            Expr::Column { table, name } => {
                let (t, c) = scope
                    .slot(table.as_deref(), name)
                    .map_err(|_| "a column name that is ambiguous or unknown in its scope")?;
                (CExpr::Col(t, c), column_kind(scope.tables[t].1.schema.columns()[c].ty))
            }
            Expr::Neg(x) => match sub(x)? {
                (x, k) if k & !NUM == 0 => (CExpr::Neg(Box::new(x)), NUM),
                _ => return Err("negation of a non-numeric operand"),
            },
            Expr::Not(x) => (CExpr::Not(Box::new(sub(x)?.0)), BOOL),
            Expr::Binary { op, left, right } => {
                let ((l, lk), (r, rk)) = (sub(left)?, sub(right)?);
                let kind = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div if (lk | rk) & !NUM != 0 => {
                        return Err("arithmetic on a non-numeric operand")
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => NUM,
                    _ => BOOL,
                };
                (CExpr::Bin(*op, Box::new(l), Box::new(r)), kind)
            }
            Expr::Like { expr, pattern, negated } => match sub(expr)? {
                (x, k) if k & !TEXT == 0 => {
                    (CExpr::Like(Box::new(x), pattern.clone(), *negated), BOOL)
                }
                _ => return Err("LIKE on a non-text operand"),
            },
            Expr::InList { expr, list, negated } => {
                let x = sub(expr)?.0;
                let list = list.iter().map(|i| sub(i).map(|(x, _)| x)).collect::<Result<_, _>>()?;
                (CExpr::In(Box::new(x), list, *negated), BOOL)
            }
            Expr::Between { expr, low, high, negated } => {
                let (x, lo, hi) = (sub(expr)?.0, sub(low)?.0, sub(high)?.0);
                (CExpr::Between(Box::new(x), Box::new(lo), Box::new(hi), *negated), BOOL)
            }
            Expr::IsNull { expr, negated } => {
                (CExpr::IsNull(Box::new(sub(expr)?.0), *negated), BOOL)
            }
            Expr::AggregateCall { func, arg } => {
                if !grouped {
                    return Err("an aggregate outside group context");
                }
                let arg = arg.as_deref();
                let compiled = arg.map(|a| self.typed(a, scope, false)).transpose()?;
                let kind = compiled.as_ref().map_or(NUM, |(_, k)| *k);
                if compiled.is_some()
                    && matches!(func, Aggregate::Sum | Aggregate::Avg)
                    && kind & !NUM != 0
                {
                    return Err("SUM or AVG over a non-numeric operand");
                }
                let slot = match self.aggs.iter().position(|(f, a, _)| f == func && *a == arg) {
                    Some(slot) => slot,
                    None => {
                        self.aggs.push((*func, arg, compiled.map(|(x, _)| x)));
                        self.aggs.len() - 1
                    }
                };
                let kind = if matches!(func, Aggregate::Min | Aggregate::Max) { kind } else { NUM };
                (CExpr::Agg(slot), kind)
            }
        })
    }
}

/// Per-query execution counters, flushed to obs once per query.
#[derive(Debug, Default)]
pub(crate) struct ExecStats {
    /// Index seeks and probes performed.
    pub(crate) seeks: u64,
    /// Rows examined: scanned, fetched through an index, or probed.
    pub(crate) scanned: u64,
    /// Rows skipped by an index, or dropped by a pushed-down filter or a
    /// join predicate, before reaching `WHERE`.
    pub(crate) pruned: u64,
}

/// One join as the walk runs it.
#[derive(Clone, Copy)]
struct Step<'a> {
    right: &'a Table,
    on: &'a CExpr,
    probe: Option<(&'a Index, &'a [ProbePart])>,
}

/// The tuple walk: the driver's rows, the pushed-down filters, then each
/// join depth-first, handing every tuple that passes `WHERE` to a sink
/// that answers whether to keep going.
struct Walk<'a> {
    steps: Vec<Step<'a>>,
    pushed: Vec<&'a CExpr>,
    residual: Vec<&'a CExpr>,
    /// The current tuple: one borrowed row per table bound so far.
    cur: Vec<&'a [Value]>,
    /// Per-join probe key and candidate ids, reused across probes.
    keys: Vec<IndexKey>,
    ids: Vec<Vec<usize>>,
    stats: ExecStats,
}

type Sink<'s, 'a> = &'s mut dyn FnMut(&[&'a [Value]]) -> bool;

impl<'a> Walk<'a> {
    /// Binds the driver row and runs the rest of the walk; false stops it.
    fn driver_row(&mut self, row: &'a [Value], sink: Sink<'_, 'a>) -> bool {
        self.stats.scanned += 1;
        self.cur[0] = row;
        if !self.pushed.iter().all(|c| c.holds(&self.cur[..1])) {
            self.stats.pruned += 1;
            return true;
        }
        self.join(1, sink)
    }

    /// Expands the tuple bound up to table `level - 1` against table
    /// `level`'s candidates, in ascending row-id order.
    fn join(&mut self, level: usize, sink: Sink<'_, 'a>) -> bool {
        let Some(&step) = self.steps.get(level - 1) else {
            if !self.residual.iter().all(|c| c.holds(&self.cur)) {
                return true;
            }
            return sink(&self.cur);
        };
        match step.probe {
            None => {
                for row in &step.right.rows {
                    if !self.candidate(level, row, step.on, sink) {
                        return false;
                    }
                }
            }
            Some((ix, parts)) => {
                let key = &mut self.keys[level - 1];
                for (i, part) in parts.iter().enumerate() {
                    key.assign(
                        i,
                        match part {
                            ProbePart::LeftCol(t, c) => &self.cur[*t][*c],
                            ProbePart::Const(v) => v,
                        },
                    );
                }
                self.stats.seeks += 1;
                ix.probe_into(key, &mut self.ids[level - 1]);
                self.stats.pruned += (step.right.rows.len() - self.ids[level - 1].len()) as u64;
                for k in 0..self.ids[level - 1].len() {
                    let row = &step.right.rows[self.ids[level - 1][k]];
                    if !self.candidate(level, row, step.on, sink) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn candidate(
        &mut self,
        level: usize,
        row: &'a [Value],
        on: &CExpr,
        sink: Sink<'_, 'a>,
    ) -> bool {
        self.stats.scanned += 1;
        self.cur[level] = row;
        if on.holds(&self.cur[..=level]) {
            self.join(level + 1, sink)
        } else {
            self.stats.pruned += 1;
            true
        }
    }
}

impl Program {
    /// Runs the program along `plan` over `layout`'s tables.
    pub(crate) fn run<'a>(
        &'a self,
        db: &'a Database,
        stmt: &SelectStmt,
        layout: &Layout<'a>,
        plan: &'a SelectPlan,
    ) -> Result<(QueryResult, ExecStats), DbError> {
        let index = |name: &str| {
            db.index(name).ok_or_else(|| DbError::Eval {
                message: format!("plan references missing index '{name}'"),
            })
        };
        let mut steps = Vec::with_capacity(plan.joins.len());
        let rights = layout.tables[1..].iter().map(|(_, t)| *t);
        for ((step, on), right) in plan.joins.iter().zip(&self.ons).zip(rights) {
            let probe = match step {
                JoinStep::Nested => None,
                JoinStep::Probe { index: name, parts } => Some((index(name)?, parts.as_slice())),
            };
            steps.push(Step { right, on, probe });
        }
        let (pushed, residual): (Vec<usize>, Vec<usize>) =
            (0..self.filters.len()).partition(|i| plan.pushdown.contains(i));
        let pick = |ids: Vec<usize>| ids.into_iter().map(|i| &self.filters[i]).collect();
        let mut walk = Walk {
            pushed: pick(pushed),
            residual: pick(residual),
            cur: vec![&[][..]; layout.tables.len()],
            keys: vec![IndexKey::new(); steps.len()],
            ids: vec![Vec::new(); steps.len()],
            steps,
            stats: ExecStats::default(),
        };

        let base = layout.tables[0].1;
        let seek = match &plan.access {
            Access::Scan => None,
            Access::Seek { index: name, eq, lo, hi, desc } => {
                let ix = index(name)?;
                walk.stats.seeks += 1;
                let mut ids = Vec::new();
                if eq.len() == ix.width() {
                    ix.probe_into(&IndexKey::from_values(eq.clone()), &mut ids);
                } else {
                    let mut start = eq.clone();
                    if let Some((v, _)) = lo {
                        start.push(v.clone());
                    }
                    ix.collect_range(
                        &IndexKey::from_values(start),
                        eq.len(),
                        lo.as_ref().map(|(v, i)| (v, *i)),
                        hi.as_ref().map(|(v, i)| (v, *i)),
                        *desc,
                        &mut ids,
                    );
                    if !plan.sort_elided {
                        // Key order isn't needed downstream: restore row-id
                        // order, the oracle's emission order.
                        ids.sort_unstable();
                    }
                }
                walk.stats.pruned += (base.rows.len() - ids.len()) as u64;
                Some(ids)
            }
        };
        let mut drive = |sink: Sink<'_, 'a>| match &seek {
            None => {
                for row in &base.rows {
                    if !walk.driver_row(row, sink) {
                        break;
                    }
                }
            }
            Some(ids) => {
                for &id in ids {
                    if !walk.driver_row(&base.rows[id], sink) {
                        break;
                    }
                }
            }
        };

        let (rows, order_keys) = match &self.grouping {
            None => self.project(stmt, plan.sort_elided, &mut drive),
            Some(g) => self.aggregate(g, layout.tables.len(), &mut drive),
        };
        let result = finish(stmt, self.columns.clone(), rows, order_keys, plan.sort_elided);
        Ok((result, walk.stats))
    }

    /// Row mode: projects each passing tuple, stopping early when `LIMIT`
    /// needs no ordering pass.
    fn project<'a>(
        &'a self,
        stmt: &SelectStmt,
        sort_elided: bool,
        drive: &mut dyn FnMut(Sink<'_, 'a>),
    ) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let limit = match stmt.limit {
            Some(l) if !stmt.distinct && (sort_elided || stmt.order_by.is_empty()) => Some(l),
            _ => None,
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut order_keys: Vec<Vec<Value>> = Vec::new();
        if limit == Some(0) {
            return (rows, order_keys);
        }
        drive(&mut |cur| {
            let out: Vec<Value> =
                self.outputs.iter().map(|e| e.value_at(cur, &[]).into_owned()).collect();
            // An elided sort never reads the keys.
            if !sort_elided {
                order_keys.push(self.sort_keys(&out, cur, &[]));
            }
            rows.push(out);
            limit.is_none_or(|l| rows.len() < l)
        });
        (rows, order_keys)
    }

    /// Aggregate mode: folds each passing tuple into its group, then
    /// evaluates `HAVING`, the projections and the sort keys per group in
    /// first-appearance order.
    fn aggregate<'a>(
        &'a self,
        g: &'a Grouping,
        width: usize,
        drive: &mut dyn FnMut(Sink<'_, 'a>),
    ) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let n_aggs = g.aggs.len();
        let mut groups: BTreeMap<IndexKey, usize> = BTreeMap::new();
        let mut key = IndexKey::new();
        // Without GROUP BY the whole input is one group, even when empty.
        let mut count = usize::from(g.keys.is_empty());
        let mut accs: Vec<Acc<'a>> = Vec::new();
        accs.resize_with(count * n_aggs, Acc::default);
        // Each group's first tuple, `width` rows per group.
        let mut firsts: Vec<&'a [Value]> = Vec::new();
        drive(&mut |cur| {
            let group = if g.keys.is_empty() {
                0
            } else {
                for (i, e) in g.keys.iter().enumerate() {
                    key.assign(i, &e.value_at(cur, &[]));
                }
                match groups.get(&key) {
                    Some(&group) => group,
                    None => {
                        groups.insert(key.clone(), count);
                        count += 1;
                        accs.resize_with(count * n_aggs, Acc::default);
                        count - 1
                    }
                }
            };
            if firsts.len() == group * width {
                firsts.extend_from_slice(cur);
            }
            g.accumulate(&mut accs[group * n_aggs..][..n_aggs], cur);
            true
        });

        let mut rows = Vec::new();
        let mut order_keys = Vec::new();
        for group in 0..count {
            let aggs: Vec<Value> = accs[group * n_aggs..][..n_aggs]
                .iter_mut()
                .zip(&g.aggs)
                .map(|(a, s)| a.finish(s))
                .collect();
            let first = firsts.get(group * width..(group + 1) * width).unwrap_or(&[]);
            if g.having.as_ref().is_some_and(|h| h.value_at(first, &aggs).truthy() != Some(true)) {
                continue;
            }
            let out: Vec<Value> =
                self.outputs.iter().map(|e| e.value_at(first, &aggs).into_owned()).collect();
            order_keys.push(self.sort_keys(&out, first, &aggs));
            rows.push(out);
        }
        (rows, order_keys)
    }

    fn sort_keys(&self, out: &[Value], row: &[&[Value]], aggs: &[Value]) -> Vec<Value> {
        self.order
            .iter()
            .map(|k| match k {
                SortKey::Output(i) => out[*i].clone(),
                SortKey::Expr(e) => e.value_at(row, aggs).into_owned(),
            })
            .collect()
    }
}

impl Grouping {
    /// Folds one tuple into its group's accumulators, in emission order,
    /// so SUM and AVG add exactly the oracle's sequence of values.
    // lint: hot(runs once per joined tuple of every grouped query; the fold must not allocate per row)
    fn accumulate<'a>(&'a self, accs: &mut [Acc<'a>], row: &[&'a [Value]]) {
        for (acc, spec) in accs.iter_mut().zip(&self.aggs) {
            let Some(arg) = &spec.arg else {
                acc.n += 1;
                continue;
            };
            let v = arg.value_at(row, &[]);
            if v.is_null() {
                continue;
            }
            acc.n += 1;
            match spec.func {
                Aggregate::Count => {}
                Aggregate::Sum | Aggregate::Avg => acc.sum += v.as_f64().unwrap_or(f64::NAN),
                Aggregate::Min | Aggregate::Max => {
                    let replace = match (&acc.best, spec.func) {
                        (None, _) => true,
                        (Some(best), Aggregate::Min) => v.compare(best) == Some(Ordering::Less),
                        (Some(best), _) => v.compare(best) == Some(Ordering::Greater),
                    };
                    if replace {
                        acc.best = Some(v);
                    }
                }
            }
        }
    }
}
