//! SQL abstract syntax tree.

use crate::schema::ColumnType;
use crate::value::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT …`.
    Select(SelectStmt),
    /// `INSERT INTO … VALUES …`.
    Insert(InsertStmt),
    /// `CREATE TABLE …`.
    CreateTable(CreateTableStmt),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct SelectStmt {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projections.
    pub items: Vec<SelectItem>,
    /// Base table and optional alias.
    pub from: TableRef,
    /// Inner joins in order.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` expressions with descending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// True when the statement runs in aggregate mode: it has a `GROUP BY`,
    /// or a projection or `HAVING` contains an aggregate.
    pub(crate) fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.having.as_ref().is_some_and(Expr::contains_aggregate)
            || self.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            })
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// An expression with an optional `AS` alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column alias.
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct TableRef {
    /// Table name (lowercased).
    pub name: String,
    /// Alias (lowercased), when given.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is addressed by in the query.
    pub(crate) fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One `JOIN … ON …` clause (inner joins only).
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct Join {
    /// Joined table.
    pub table: TableRef,
    /// Join predicate.
    pub on: Expr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub enum BinOp {
    /// `=`.
    Eq,
    /// `!=` / `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `AND`.
    And,
    /// `OR`.
    Or,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(expr)` or `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl Aggregate {
    /// Parses an aggregate function name.
    pub fn parse(name: &str) -> Option<Aggregate> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(Aggregate::Count),
            "SUM" => Some(Aggregate::Sum),
            "AVG" => Some(Aggregate::Avg),
            "MIN" => Some(Aggregate::Min),
            "MAX" => Some(Aggregate::Max),
            _ => None,
        }
    }

    /// Canonical uppercase name.
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Count => "COUNT",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
        }
    }
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub enum Expr {
    /// Column reference, optionally qualified (`table.column`).
    Column {
        /// Table qualifier, lowercased.
        table: Option<String>,
        /// Column name, lowercased.
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Aggregate call; `arg` is `None` for `COUNT(*)`.
    AggregateCall {
        /// Which aggregate.
        func: Aggregate,
        /// Argument expression (`None` = `*`).
        arg: Option<Box<Expr>>,
    },
    /// `expr LIKE 'pattern'` (`%` and `_` wildcards).
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern literal.
        pattern: String,
        /// Negated (`NOT LIKE`).
        negated: bool,
    },
    /// `expr IN (v1, v2, …)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Negated (`NOT IN`).
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negated (`NOT BETWEEN`).
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// True when the expression (recursively) contains an aggregate call.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::AggregateCall { .. } => true,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Neg(e) | Expr::Not(e) => e.contains_aggregate(),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate()
                    || low.contains_aggregate()
                    || high.contains_aggregate()
            }
            Expr::Column { .. } | Expr::Literal(_) => false,
        }
    }

    /// Visits every column reference in the expression.
    pub(crate) fn visit_columns(&self, f: &mut impl FnMut(Option<&str>, &str)) {
        match self {
            Expr::Column { table, name } => f(table.as_deref(), name),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Neg(e) | Expr::Not(e) => e.visit_columns(f),
            Expr::AggregateCall { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_columns(f);
                }
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
        }
    }

    /// Default output column name for an unaliased projection.
    pub(crate) fn default_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::AggregateCall { func, arg } => match arg {
                Some(a) => format!("{}({})", func.name().to_ascii_lowercase(), a.default_name()),
                None => format!("{}(*)", func.name().to_ascii_lowercase()),
            },
            _ => "expr".to_string(),
        }
    }
}

/// An `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct InsertStmt {
    /// Target table (lowercased).
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Row tuples of literal values.
    pub rows: Vec<Vec<Value>>,
}

/// A `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct CreateTableStmt {
    /// Table name (lowercased).
    pub name: String,
    /// Column definitions.
    pub columns: Vec<(String, ColumnType)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_parsing() {
        assert_eq!(Aggregate::parse("count"), Some(Aggregate::Count));
        assert_eq!(Aggregate::parse("AVG"), Some(Aggregate::Avg));
        assert_eq!(Aggregate::parse("median"), None);
        assert_eq!(Aggregate::Sum.name(), "SUM");
    }

    #[test]
    fn contains_aggregate_recurses() {
        let plain = Expr::Column { table: None, name: "x".into() };
        assert!(!plain.contains_aggregate());
        let agg = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::AggregateCall { func: Aggregate::Sum, arg: None }),
            right: Box::new(Expr::Literal(Value::Int(1))),
        };
        assert!(agg.contains_aggregate());
        let inlist = Expr::InList {
            expr: Box::new(plain.clone()),
            list: vec![Expr::AggregateCall { func: Aggregate::Max, arg: None }],
            negated: false,
        };
        assert!(inlist.contains_aggregate());
    }

    #[test]
    fn visit_columns_finds_qualified_references() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Column { table: Some("t".into()), name: "a".into() }),
            right: Box::new(Expr::Like {
                expr: Box::new(Expr::Column { table: None, name: "b".into() }),
                pattern: "x%".into(),
                negated: false,
            }),
        };
        let mut seen = Vec::new();
        e.visit_columns(&mut |t, c| seen.push((t.map(str::to_string), c.to_string())));
        assert_eq!(
            seen,
            vec![(Some("t".to_string()), "a".to_string()), (None, "b".to_string())]
        );
    }

    #[test]
    fn default_names() {
        let col = Expr::Column { table: Some("t".into()), name: "mae".into() };
        assert_eq!(col.default_name(), "mae");
        let agg = Expr::AggregateCall {
            func: Aggregate::Avg,
            arg: Some(Box::new(col)),
        };
        assert_eq!(agg.default_name(), "avg(mae)");
        let star = Expr::AggregateCall { func: Aggregate::Count, arg: None };
        assert_eq!(star.default_name(), "count(*)");
    }

    #[test]
    fn table_ref_effective_name() {
        let plain = TableRef { name: "results".into(), alias: None };
        assert_eq!(plain.effective_name(), "results");
        let aliased = TableRef { name: "results".into(), alias: Some("r".into()) };
        assert_eq!(aliased.effective_name(), "r");
    }
}
