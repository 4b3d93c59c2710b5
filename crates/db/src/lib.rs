//! Embedded SQL engine backing the EasyTime benchmark knowledge base.
//!
//! The Q&A workflow (paper §II-D, Figure 3) generates SQL from natural
//! language, *verifies* it, executes it against "the comprehensive knowledge
//! base", and renders the results. That requires an actual SQL surface; this
//! crate provides one, written from scratch on the approved dependency set:
//!
//! * [`lexer`] / [`parser`] — SQL tokenization and a recursive-descent
//!   parser producing a typed [`ast`].
//! * [`executor`] — evaluation of `SELECT` (projection, `WHERE`, inner
//!   `JOIN`, `GROUP BY` + aggregates, `HAVING`, `ORDER BY`, `LIMIT`,
//!   `DISTINCT`), `INSERT`, and `CREATE TABLE`. Two paths share name
//!   resolution and the DISTINCT/ORDER BY/LIMIT tail: a naive scan oracle,
//!   and the compiled statement run along its plan.
//! * [`index`] — typed secondary B-tree indexes (single- and multi-column,
//!   ordered by `Value::order_key`) maintained on every insert.
//! * `plan` / `stats` / `compiled` (internal) — the cost-based planner:
//!   per-table statistics, selectivity-costed access-path and join-strategy
//!   choice, sort elision onto index order, and a deterministic plan
//!   explain surfaced via [`Database::explain`]; and the compiled executor,
//!   which evaluates over row-id tuples on borrowed values and folds
//!   GROUP BY into per-group accumulators.
//! * [`verify`] — the *verification step* of Figure 3: statements are
//!   parsed and schema-checked against the catalog before execution, and
//!   the Q&A path additionally restricts statements to read-only `SELECT`.
//! * [`knowledge`] — the benchmark-knowledge schema (datasets, methods,
//!   results) shared by the recommender and the Q&A module.
//!
//! The dialect is deliberately small but genuine: every query the NL2SQL
//! module can generate round-trips through this parser and executor.

#![forbid(unsafe_code)]

pub mod ast;
mod compiled;
pub mod database;
pub mod error;
pub mod executor;
pub mod index;
pub mod knowledge;
pub mod lexer;
pub mod parser;
mod plan;
pub mod schema;
mod stats;
pub mod value;
pub mod verify;

pub use database::{Database, QueryResult};
pub use error::DbError;
pub use schema::{Column, ColumnType, Schema};
pub use value::Value;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DbError>;
