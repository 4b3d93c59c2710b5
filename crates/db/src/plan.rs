//! Cost-based `SELECT` planning.
//!
//! The planner picks, per query, an access path for the driving table
//! (sequential scan, index seek, or ordered index walk), a strategy for
//! each join (index probe vs nested loop), and whether the final sort can
//! be elided because the chosen index already delivers `ORDER BY` order.
//! Decisions come from a selectivity cost model over [`crate::stats`].
//!
//! Planning also compiles the statement ([`crate::compiled`]). A statement
//! that has no compiled form, because some evaluation could raise an
//! error, gets the scan oracle's plan instead, and its explain names why.
//!
//! Two contracts:
//!
//! * **Bit-identical results.** Index access only *prunes*: the executor
//!   re-applies the full `WHERE` per row and the full `ON` per probe, and
//!   non-elided plans restore row-id order before downstream stages, so
//!   every plan reproduces the naive scan path's output exactly.
//! * **Byte-deterministic explain.** Statistics derive from table contents
//!   only, candidates are enumerated in index-name order with strict-`<`
//!   cost replacement, and the explain renderer is pure — the same query
//!   over the same data yields the same plan text, regardless of
//!   index-creation order.

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt};
use crate::compiled::{self, Program};
use crate::database::Database;
use crate::error::DbError;
use crate::executor::Layout;
use crate::index::Index;
use crate::stats::{self, TableStats};
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Cost of touching one row on a sequential scan.
const ROW_COST: f64 = 1.0;
/// Cost of fetching one row through an index (pointer chase + key check).
const INDEX_ROW_COST: f64 = 1.05;
/// Selectivity guess for a non-sargable residual conjunct.
const RESIDUAL_SEL: f64 = 0.75;

fn sort_cost(n: f64) -> f64 {
    n * (n + 2.0).log2() * 0.25
}

/// Cost of re-sorting seek results back into row-id order (cheap integer
/// sort, no key comparisons).
fn id_sort_cost(n: f64) -> f64 {
    n * (n + 2.0).log2() * 0.05
}

/// How the driving table's rows are produced.
#[derive(Debug, Clone)]
pub(crate) enum Access {
    /// Sequential scan in row-id order.
    Scan,
    /// Index seek/walk: equality prefix `eq`, optional range bounds on the
    /// next key column, walked descending when `desc`.
    Seek {
        /// Index name.
        index: String,
        /// Equality prefix values, one per leading key column.
        eq: Vec<Value>,
        /// Lower bound on the column after the prefix (value, inclusive).
        lo: Option<(Value, bool)>,
        /// Upper bound on the column after the prefix (value, inclusive).
        hi: Option<(Value, bool)>,
        /// Walk the keys in descending order.
        desc: bool,
    },
}

/// One probe-key component for an index-nested-loop join.
#[derive(Debug, Clone)]
pub(crate) enum ProbePart {
    /// Take column `.1` of already-joined table `.0`.
    LeftCol(usize, usize),
    /// A constant from the `ON` clause.
    Const(Value),
}

/// Strategy for one `JOIN`.
#[derive(Debug, Clone)]
pub(crate) enum JoinStep {
    /// Nested loop over the right table's rows.
    Nested,
    /// Probe the named right-table index with a key built from `parts`.
    Probe {
        /// Index on the joined table.
        index: String,
        /// Key components in index-column order.
        parts: Vec<ProbePart>,
    },
}

/// A complete plan for one `SELECT`.
#[derive(Debug)]
pub(crate) struct SelectPlan {
    /// Driving-table access path.
    pub(crate) access: Access,
    /// Driver-only `WHERE` conjuncts, as indexes into the [`split_and`]
    /// list, applied before joining (empty when the query has no joins —
    /// the final `WHERE` pass covers them).
    pub(crate) pushdown: Vec<usize>,
    /// One step per `JOIN`, in statement order.
    pub(crate) joins: Vec<JoinStep>,
    /// The access path already delivers `ORDER BY` order: skip the sort.
    pub(crate) sort_elided: bool,
    /// Deterministic plan description.
    pub(crate) explain: String,
    /// The compiled statement; `None` runs it on the scan oracle.
    pub(crate) program: Option<Program>,
}

/// Flattens top-level `AND`s into a conjunct list.
pub(crate) fn split_and<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            split_and(left, out);
            split_and(right, out);
        }
        other => out.push(other),
    }
}

/// The set of tables a conjunct references; `None` when any column fails
/// to resolve (unknown or ambiguous — the planner refuses to reason about
/// it).
fn conjunct_tables(expr: &Expr, tables: &Layout<'_>) -> Option<BTreeSet<usize>> {
    let mut ok = true;
    let mut set = BTreeSet::new();
    expr.visit_columns(&mut |t, n| match tables.slot(t, n) {
        Ok((table, _)) => {
            set.insert(table);
        }
        Err(_) => ok = false,
    });
    ok.then_some(set)
}

/// A literal operand, folding unary minus over numeric literals.
fn lit_of(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Neg(inner) => match inner.as_ref() {
            Expr::Literal(Value::Int(i)) => Some(Value::Int(-i)),
            Expr::Literal(Value::Float(f)) => Some(Value::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// A plain column operand resolved to `(table, position)`.
fn col_of(expr: &Expr, tables: &Layout<'_>) -> Option<(usize, usize)> {
    match expr {
        Expr::Column { table, name } => tables.slot(table.as_deref(), name).ok(),
        _ => None,
    }
}

/// Sargable predicates extracted from the driver-only conjuncts, keyed by
/// driver column position, in conjunct order.
#[derive(Default)]
struct Sargs {
    eqs: Vec<(usize, Value)>,
    los: Vec<(usize, Value, bool)>,
    his: Vec<(usize, Value, bool)>,
    /// Conjuncts that contributed at least one entry above.
    sarg_conjuncts: usize,
}

impl Sargs {
    fn extract(conjuncts: &[&Expr], tables: &Layout<'_>) -> Sargs {
        let mut s = Sargs::default();
        for c in conjuncts {
            let before = (s.eqs.len(), s.los.len(), s.his.len());
            match c {
                Expr::Binary { op, left, right }
                    if matches!(
                        op,
                        BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                    ) =>
                {
                    let hit = match (col_of(left, tables), lit_of(right)) {
                        (Some((0, pos)), Some(v)) => Some((pos, *op, v)),
                        _ => match (col_of(right, tables), lit_of(left)) {
                            // Flip the comparison when the literal is on
                            // the left: `5 < col` means `col > 5`.
                            (Some((0, pos)), Some(v)) => {
                                let flipped = match op {
                                    BinOp::Lt => BinOp::Gt,
                                    BinOp::Le => BinOp::Ge,
                                    BinOp::Gt => BinOp::Lt,
                                    BinOp::Ge => BinOp::Le,
                                    other => *other,
                                };
                                Some((pos, flipped, v))
                            }
                            _ => None,
                        },
                    };
                    if let Some((pos, op, v)) = hit {
                        match op {
                            BinOp::Eq => s.eqs.push((pos, v)),
                            BinOp::Lt => s.his.push((pos, v, false)),
                            BinOp::Le => s.his.push((pos, v, true)),
                            BinOp::Gt => s.los.push((pos, v, false)),
                            BinOp::Ge => s.los.push((pos, v, true)),
                            _ => {}
                        }
                    }
                }
                Expr::Between { expr, low, high, negated: false } => {
                    if let (Some((0, pos)), Some(lo), Some(hi)) =
                        (col_of(expr, tables), lit_of(low), lit_of(high))
                    {
                        s.los.push((pos, lo, true));
                        s.his.push((pos, hi, true));
                    }
                }
                _ => {}
            }
            if (s.eqs.len(), s.los.len(), s.his.len()) != before {
                s.sarg_conjuncts += 1;
            }
        }
        s
    }
}

/// `ORDER BY` as a driver-column sequence, when elision is even possible:
/// uniform direction, every key a plain driver column (after resolving
/// output-alias shadowing the way `order_value` does), no `DISTINCT`, and
/// in aggregate mode a `GROUP BY` list equal to the `ORDER BY` list.
fn wanted_order(
    stmt: &SelectStmt,
    tables: &Layout<'_>,
    aggregate_mode: bool,
) -> Option<(Vec<usize>, bool)> {
    if stmt.order_by.is_empty() || stmt.distinct {
        return None;
    }
    let desc = stmt.order_by[0].1;
    if stmt.order_by.iter().any(|(_, d)| *d != desc) {
        return None;
    }
    // Output columns: name plus, for plain-column projections, the column
    // they resolve to. `order_value` prefers an output alias over a table
    // column for unqualified ORDER BY names, so elision must follow suit.
    let mut out: Vec<(String, Option<(usize, usize)>)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (i, (_, tab)) in tables.tables.iter().enumerate() {
                    for (pos, name) in tab.schema.names().into_iter().enumerate() {
                        out.push((name, Some((i, pos))));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                out.push((name, col_of(expr, tables)));
            }
        }
    }
    let mut cols = Vec::new();
    for (expr, _) in &stmt.order_by {
        let Expr::Column { table, name } = expr else { return None };
        let target = if table.is_none() {
            match out.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
                // Alias-shadowed: usable only when the projection is itself
                // a plain column (the sort key is that column's value).
                Some((_, plain)) => (*plain)?,
                None => col_of(expr, tables)?,
            }
        } else {
            col_of(expr, tables)?
        };
        if target.0 != 0 {
            return None;
        }
        cols.push(target.1);
    }
    if aggregate_mode {
        if stmt.group_by.len() != cols.len() {
            return None;
        }
        for (g, &c) in stmt.group_by.iter().zip(&cols) {
            if col_of(g, tables) != Some((0, c)) {
                return None;
            }
        }
    }
    Some((cols, desc))
}

/// What `match_index` consumed from the sargable predicates.
struct IndexMatch {
    eq: Vec<Value>,
    lo: Option<(Value, bool)>,
    hi: Option<(Value, bool)>,
    /// Product of the consumed predicates' selectivities.
    selectivity: f64,
}

/// Greedily consumes equality predicates along the index's leading
/// columns, then range bounds on the next column.
fn match_index(ix: &Index, sargs: &Sargs, st: &TableStats) -> IndexMatch {
    let mut eq = Vec::new();
    let mut sel = 1.0;
    for &pos in ix.positions() {
        match sargs.eqs.iter().find(|(p, _)| *p == pos) {
            Some((_, v)) => {
                eq.push(v.clone());
                sel *= st.eq_selectivity(pos);
            }
            None => break,
        }
    }
    let mut lo = None;
    let mut hi = None;
    if eq.len() < ix.width() {
        let pos = ix.positions()[eq.len()];
        lo = sargs.los.iter().find(|(p, _, _)| *p == pos).map(|(_, v, i)| (v.clone(), *i));
        hi = sargs.his.iter().find(|(p, _, _)| *p == pos).map(|(_, v, i)| (v.clone(), *i));
        if lo.is_some() || hi.is_some() {
            sel *= st.range_selectivity(
                pos,
                lo.as_ref().map(|(v, _)| v),
                hi.as_ref().map(|(v, _)| v),
            );
        }
    }
    IndexMatch { eq, lo, hi, selectivity: sel }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// SQL-ish deterministic expression printer for explain output.
pub(crate) fn render_expr(expr: &Expr) -> String {
    match expr {
        Expr::Column { table, name } => match table {
            Some(t) => format!("{t}.{name}"),
            None => name.clone(),
        },
        Expr::Literal(v) => render_value(v),
        Expr::Binary { op, left, right } => {
            let op = match op {
                BinOp::Eq => "=",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {op} {})", render_expr(left), render_expr(right))
        }
        Expr::Neg(e) => format!("-{}", render_expr(e)),
        Expr::Not(e) => format!("NOT {}", render_expr(e)),
        Expr::AggregateCall { func, arg } => match arg {
            Some(a) => format!("{}({})", func.name(), render_expr(a)),
            None => format!("{}(*)", func.name()),
        },
        Expr::Like { expr, pattern, negated } => format!(
            "{}{} LIKE '{}'",
            render_expr(expr),
            if *negated { " NOT" } else { "" },
            pattern.replace('\'', "''"),
        ),
        Expr::InList { expr, list, negated } => {
            let items: Vec<String> = list.iter().map(render_expr).collect();
            format!(
                "{}{} IN ({})",
                render_expr(expr),
                if *negated { " NOT" } else { "" },
                items.join(", "),
            )
        }
        Expr::Between { expr, low, high, negated } => format!(
            "{}{} BETWEEN {} AND {}",
            render_expr(expr),
            if *negated { " NOT" } else { "" },
            render_expr(low),
            render_expr(high),
        ),
        Expr::IsNull { expr, negated } => format!(
            "{} IS{} NULL",
            render_expr(expr),
            if *negated { " NOT" } else { "" },
        ),
    }
}

/// Plans and compiles a verified `SELECT`. Never fails for resolution
/// reasons — on any trouble it degrades to the scan oracle's plan and lets
/// the oracle report the error.
pub(crate) fn plan_select(db: &Database, stmt: &SelectStmt) -> Result<SelectPlan, DbError> {
    let mut sp = easytime_obs::span("db.plan");
    let plan = build_plan(db, stmt);
    if sp.is_recording() {
        sp.attr("table", stmt.from.effective_name());
        sp.attr(
            "access",
            match &plan.access {
                Access::Scan => "seq-scan",
                Access::Seek { .. } => "index-seek",
            },
        );
        sp.attr_u64("joins", plan.joins.len() as u64);
        sp.attr_u64("sort_elided", u64::from(plan.sort_elided));
    }
    Ok(plan)
}

/// The plan of a statement that runs on the scan oracle: a full scan and
/// nested-loop joins, with the reason it has no compiled form.
fn oracle_plan(stmt: &SelectStmt, why: &str) -> SelectPlan {
    let mut explain = format!("select from {}\n", stmt.from.effective_name());
    let _ = writeln!(explain, "  access {}: seq-scan", stmt.from.effective_name());
    for j in &stmt.joins {
        let _ = writeln!(explain, "  join {}: nested-loop", j.table.effective_name());
    }
    let _ = writeln!(explain, "  executor: scan oracle ({why})");
    SelectPlan {
        access: Access::Scan,
        pushdown: Vec::new(),
        joins: vec![JoinStep::Nested; stmt.joins.len()],
        sort_elided: false,
        explain,
        program: None,
    }
}

fn build_plan(db: &Database, stmt: &SelectStmt) -> SelectPlan {
    let Ok(tables) = Layout::of(db, stmt) else {
        return oracle_plan(stmt, "an unknown table");
    };
    let program = match compiled::compile(stmt, &tables) {
        Ok(p) => p,
        Err(why) => return oracle_plan(stmt, why),
    };
    let driver = tables.tables[0].1;
    let driver_eff = tables.tables[0].0.to_ascii_lowercase();
    let st = stats::gather(db, &driver.name);
    let n = st.rows as f64;

    // Conjunct classification.
    let mut conjuncts = Vec::new();
    if let Some(w) = &stmt.where_clause {
        split_and(w, &mut conjuncts);
    }
    let driver_idx: Vec<usize> = (0..conjuncts.len())
        .filter(|&i| {
            conjunct_tables(conjuncts[i], &tables).is_some_and(|s| s.len() == 1 && s.contains(&0))
        })
        .collect();
    let driver_only: Vec<&Expr> = driver_idx.iter().map(|&i| conjuncts[i]).collect();
    let sargs = Sargs::extract(&driver_only, &tables);

    let aggregate_mode = stmt.is_aggregate();
    let wanted = wanted_order(stmt, &tables, aggregate_mode);

    // Overall output-row estimate (for sort and streaming costs): every
    // sargable conjunct applies its modeled selectivity, every residual
    // driver conjunct a fixed factor.
    let mut sel_all = 1.0f64;
    for (pos, _) in &sargs.eqs {
        sel_all *= st.eq_selectivity(*pos);
    }
    let bounded: BTreeSet<usize> = sargs
        .los
        .iter()
        .map(|(p, _, _)| *p)
        .chain(sargs.his.iter().map(|(p, _, _)| *p))
        .collect();
    for pos in &bounded {
        sel_all *= st.range_selectivity(
            *pos,
            sargs.los.iter().find(|(p, _, _)| p == pos).map(|(_, v, _)| v),
            sargs.his.iter().find(|(p, _, _)| p == pos).map(|(_, v, _)| v),
        );
    }
    let residual = driver_only.len().saturating_sub(sargs.sarg_conjuncts);
    sel_all *= RESIDUAL_SEL.powi(residual as i32);
    let est_out = (n * sel_all).max(1.0);

    // Streaming: an order-delivering access under LIMIT stops early.
    let streamable = stmt.limit.is_some() && !aggregate_mode && !stmt.distinct;

    // --- candidate enumeration: scan first, then indexes in name order ---
    struct Candidate {
        cost: f64,
        access: Access,
        elided: bool,
        est: f64,
    }
    let scan_cost =
        n * ROW_COST + if wanted.is_some() { sort_cost(est_out) } else { 0.0 };
    let mut best = Candidate { cost: scan_cost, access: Access::Scan, elided: false, est: n };
    for ix in db.indexes_for(&driver.name) {
        let m = match_index(ix, &sargs, &st);
        let e = m.eq.len();
        let ranged = m.lo.is_some() || m.hi.is_some();
        // Does the walk deliver the wanted order? Exactly when the index's
        // key tail past the equality prefix *is* the ORDER BY column list:
        // the equality prefix pins its columns, so key order == tail order,
        // and a fully determined key keeps row-id tie order intact.
        let ordered = wanted.as_ref().is_some_and(|(cols, _)| {
            e < ix.width() && ix.positions()[e..] == cols[..]
        });
        if e == 0 && !ranged && !ordered {
            continue; // nothing to seek, nothing to order by
        }
        let est = (n * m.selectivity).max(1.0);
        let walk = if ordered && streamable {
            // Pull until LIMIT is satisfied: the walked share of the
            // matching rows that yields `limit` output rows.
            let l = stmt.limit.unwrap_or(0) as f64;
            (l * est / est_out).clamp(l.min(est), est)
        } else {
            est
        };
        let mut cost = (n + 2.0).log2() + walk * INDEX_ROW_COST;
        if !ordered {
            // Seek results are re-sorted into row-id order (determinism),
            // and the final ORDER BY sort still runs.
            cost += id_sort_cost(est);
            if wanted.is_some() {
                cost += sort_cost(est_out);
            }
        }
        if cost < best.cost {
            let desc = ordered && wanted.as_ref().is_some_and(|(_, d)| *d);
            best = Candidate {
                cost,
                access: Access::Seek {
                    index: ix.name().to_string(),
                    eq: m.eq,
                    lo: m.lo,
                    hi: m.hi,
                    desc,
                },
                elided: ordered,
                est,
            };
        }
    }

    // --- joins: probe when an index covers ON equalities, else nested ---
    let mut joins = Vec::new();
    let mut join_lines = Vec::new();
    let mut left_est = best.est;
    for (j, join) in stmt.joins.iter().enumerate() {
        let right_idx = j + 1;
        let right = tables.tables[right_idx].1;
        let n_r = right.rows.len() as f64;
        let mut on_parts = Vec::new();
        let mut on_conjuncts = Vec::new();
        split_and(&join.on, &mut on_conjuncts);
        for c in &on_conjuncts {
            if let Expr::Binary { op: BinOp::Eq, left, right: rexpr } = c {
                for (a, b) in [(left, rexpr), (rexpr, left)] {
                    let Some((t, pos)) = col_of(a, &tables) else { continue };
                    if t != right_idx {
                        continue;
                    }
                    let part = if let Some(v) = lit_of(b) {
                        Some(ProbePart::Const(v))
                    } else {
                        col_of(b, &tables)
                            .filter(|&(bt, _)| bt <= j)
                            .map(|(bt, pos)| ProbePart::LeftCol(bt, pos))
                    };
                    if let Some(p) = part {
                        on_parts.push((pos, p, render_expr(b)));
                        break;
                    }
                }
            }
        }
        // Best probe index: longest covered prefix, name order breaking ties.
        let r_st = stats::gather(db, &right.name);
        let mut probe: Option<(String, Vec<ProbePart>, Vec<String>, f64)> = None;
        for ix in db.indexes_for(&right.name) {
            let mut parts = Vec::new();
            let mut labels = Vec::new();
            let mut sel = 1.0;
            for &pos in ix.positions() {
                match on_parts.iter().find(|(p, _, _)| *p == pos) {
                    Some((_, part, label)) => {
                        parts.push(part.clone());
                        labels.push(format!(
                            "{} = {label}",
                            ix.columns()[parts.len() - 1]
                        ));
                        sel *= r_st.eq_selectivity(pos);
                    }
                    None => break,
                }
            }
            if !parts.is_empty()
                && probe.as_ref().is_none_or(|(_, best_parts, _, _)| {
                    parts.len() > best_parts.len()
                })
            {
                probe = Some((ix.name().to_string(), parts, labels, sel));
            }
        }
        match probe {
            Some((name, parts, labels, sel)) => {
                let match_est = (n_r * sel).max(1.0);
                let nested_cost = left_est * n_r;
                let probe_cost = left_est * ((n_r + 2.0).log2() + match_est * INDEX_ROW_COST);
                if probe_cost < nested_cost {
                    join_lines.push(format!(
                        "  join {}: index-probe {name} ({})",
                        join.table.effective_name(),
                        labels.join(", "),
                    ));
                    joins.push(JoinStep::Probe { index: name, parts });
                    left_est *= match_est;
                } else {
                    join_lines
                        .push(format!("  join {}: nested-loop", join.table.effective_name()));
                    joins.push(JoinStep::Nested);
                    left_est *= (n_r * 0.2).max(1.0);
                }
            }
            None => {
                join_lines.push(format!("  join {}: nested-loop", join.table.effective_name()));
                joins.push(JoinStep::Nested);
                left_est *= (n_r * 0.2).max(1.0);
            }
        }
    }

    // Pushdown only matters ahead of joins; single-table queries filter in
    // the main WHERE pass anyway.
    let pushdown = if stmt.joins.is_empty() { Vec::new() } else { driver_idx };

    // --- explain ---
    let mut explain = format!("select from {driver_eff}\n");
    match &best.access {
        Access::Scan => {
            let _ = writeln!(
                explain,
                "  access {driver_eff}: seq-scan rows~{n:.1} cost~{:.1}",
                best.cost
            );
        }
        Access::Seek { index, eq, lo, hi, desc } => {
            let ix = db.index(index.as_str());
            let mut conds = Vec::new();
            if let Some(ix) = ix {
                for (i, v) in eq.iter().enumerate() {
                    conds.push(format!("{} = {}", ix.columns()[i], render_value(v)));
                }
                if eq.len() < ix.width() {
                    let col = &ix.columns()[eq.len()];
                    if let Some((v, incl)) = lo {
                        conds.push(format!(
                            "{col} {} {}",
                            if *incl { ">=" } else { ">" },
                            render_value(v)
                        ));
                    }
                    if let Some((v, incl)) = hi {
                        conds.push(format!(
                            "{col} {} {}",
                            if *incl { "<=" } else { "<" },
                            render_value(v)
                        ));
                    }
                }
            }
            let kind = if conds.is_empty() { "index-scan" } else { "index-seek" };
            let _ = write!(explain, "  access {driver_eff}: {kind} {index}");
            if !conds.is_empty() {
                let _ = write!(explain, " ({})", conds.join(", "));
            }
            if *desc {
                let _ = write!(explain, " desc");
            }
            let _ = writeln!(explain, " rows~{:.1} cost~{:.1}", best.est, best.cost);
        }
    }
    if !pushdown.is_empty() {
        let rendered: Vec<String> = pushdown.iter().map(|&i| render_expr(conjuncts[i])).collect();
        let _ = writeln!(explain, "  filter {driver_eff}: {}", rendered.join(" AND "));
    }
    for line in &join_lines {
        let _ = writeln!(explain, "{line}");
    }
    if let Some(w) = &stmt.where_clause {
        let _ = writeln!(explain, "  where: {}", render_expr(w));
    }
    if !stmt.group_by.is_empty() {
        let rendered: Vec<String> = stmt.group_by.iter().map(render_expr).collect();
        let _ = writeln!(explain, "  group by: {}", rendered.join(", "));
    }
    if let Some(h) = &stmt.having {
        let _ = writeln!(explain, "  having: {}", render_expr(h));
    }
    if !stmt.order_by.is_empty() {
        let keys: Vec<String> = stmt
            .order_by
            .iter()
            .map(|(e, d)| format!("{} {}", render_expr(e), if *d { "desc" } else { "asc" }))
            .collect();
        let _ = writeln!(
            explain,
            "  order by: {} {}",
            keys.join(", "),
            if best.elided { "[sort elided: index order]" } else { "[sort]" }
        );
    }
    if let Some(l) = stmt.limit {
        let _ = writeln!(explain, "  limit: {l}");
    }

    SelectPlan {
        access: best.access,
        pushdown,
        joins,
        sort_elided: best.elided,
        explain,
        program: Some(program),
    }
}

#[cfg(test)]
mod tests {
    use crate::database::Database;

    #[test]
    fn a_range_on_an_extreme_key_estimates_that_keys_rows() {
        // The Q&A knowledge base's shape: 3,000 results over two horizons.
        let mut db = Database::new();
        db.execute("CREATE TABLE results (method TEXT, horizon INTEGER, mae REAL)").unwrap();
        for i in 0..3000 {
            let sql = format!(
                "INSERT INTO results VALUES ('m{}', {}, {}.5)",
                i % 25,
                [24, 96][i % 2],
                i % 7
            );
            db.execute(&sql).unwrap();
        }
        db.create_index("ix_results_horizon", "results", &["horizon"]).unwrap();
        for range in ["horizon >= 96", "horizon <= 24"] {
            let explain = db.explain(&format!("SELECT mae FROM results WHERE {range}")).unwrap();
            assert!(explain.contains("index-seek ix_results_horizon"), "{explain}");
            assert!(explain.contains("rows~1500.0"), "{range}: {explain}");
        }
    }
}
