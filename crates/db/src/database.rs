//! The in-memory database: tables, catalog, and the execution entry point.

use crate::ast::Statement;
use crate::error::DbError;
use crate::executor;
use crate::index::Index;
use crate::parser::parse;
use crate::plan;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A table: schema plus row storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name (lowercased).
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Row storage.
    pub rows: Vec<Vec<Value>>,
}

/// Result of a query: named columns and value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the result as a fixed-width ASCII table (the "benchmark
    /// result data table" of Figure 5, label 5).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.extend(std::iter::repeat_n('-', w + 2));
            }
            out.push_str("+\n");
        };
        let row_line = |out: &mut String, cells: &[String]| {
            for (c, w) in cells.iter().zip(&widths) {
                out.push_str("| ");
                out.push_str(c);
                out.extend(std::iter::repeat_n(' ', w - c.len() + 1));
            }
            out.push_str("|\n");
        };
        sep(&mut out);
        row_line(&mut out, &self.columns);
        sep(&mut out);
        for row in &cells {
            row_line(&mut out, row);
        }
        sep(&mut out);
        out
    }
}

/// An in-memory SQL database.
///
/// Clones share storage copy-on-write: every table and index sits behind an
/// `Arc` and is written through `Arc::make_mut`, so a clone costs
/// O(tables + indexes), and a write copies one table or index only while
/// another clone still holds it. A clone is still a value: it never sees
/// another clone's writes.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    /// Secondary indexes by (lowercased) index name. A `BTreeMap` so the
    /// planner's candidate enumeration order — and therefore every plan and
    /// explain — is independent of index-creation order.
    indexes: BTreeMap<String, Arc<Index>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table programmatically.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<(), DbError> {
        let name = name.into().to_ascii_lowercase();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable { name });
        }
        self.tables.insert(name.clone(), Arc::new(Table { name, schema, rows: Vec::new() }));
        Ok(())
    }

    /// Inserts one row programmatically (validated against the schema) and
    /// maintains every secondary index on the table.
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        let key = table.to_ascii_lowercase();
        let shared = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| DbError::UnknownTable { name: table.to_string() })?;
        // Coerce before `make_mut`, so a rejected row never copies a
        // shared table.
        let coerced = shared.schema.coerce_row(row)?;
        let t = Arc::make_mut(shared);
        let row_id = t.rows.len();
        t.rows.push(coerced);
        if let Some(row_ref) = t.rows.last() {
            for ix in self.indexes.values_mut() {
                if ix.table() == key.as_str() {
                    Arc::make_mut(ix).insert_row(row_id, row_ref);
                }
            }
        }
        Ok(())
    }

    /// Creates a (possibly multi-column) secondary index named `name` over
    /// `columns` of `table`, backfilling existing rows. Plans — and thus
    /// results and explains — do not depend on the order indexes were
    /// created in.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        table: &str,
        columns: &[&str],
    ) -> Result<(), DbError> {
        let name = name.into().to_ascii_lowercase();
        if self.indexes.contains_key(&name) {
            return Err(DbError::DuplicateIndex { name });
        }
        if columns.is_empty() {
            return Err(DbError::Unsupported { feature: "index with no key columns".into() });
        }
        let t = self.table(table)?;
        let mut positions = Vec::with_capacity(columns.len());
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            let lc = c.to_ascii_lowercase();
            let pos = t.schema.index_of(&lc).ok_or_else(|| DbError::UnknownColumn {
                name: format!("{}.{lc}", t.name),
            })?;
            positions.push(pos);
            cols.push(lc);
        }
        let mut ix = Index::new(name.clone(), t.name.clone(), cols, positions);
        for (row_id, row) in t.rows.iter().enumerate() {
            ix.insert_row(row_id, row);
        }
        self.indexes.insert(name, Arc::new(ix));
        Ok(())
    }

    /// Looks a secondary index up by (case-insensitive) name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.get(&name.to_ascii_lowercase()).map(Arc::as_ref)
    }

    /// All indexes over `table` (real, lowercased name), in index-name
    /// order — the planner's deterministic candidate order.
    pub(crate) fn indexes_for(&self, table: &str) -> impl Iterator<Item = &Index> {
        let table = table.to_ascii_lowercase();
        self.indexes.values().map(Arc::as_ref).filter(move |ix| ix.table() == table)
    }

    /// Looks a table up.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(Arc::as_ref)
            .ok_or_else(|| DbError::UnknownTable { name: name.to_string() })
    }

    /// Parses and executes any statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        let stmt = {
            let _sp = easytime_obs::span("db.parse");
            parse(sql)?
        };
        self.execute_statement(stmt)
    }

    /// Executes a parsed statement.
    pub(crate) fn execute_statement(&mut self, stmt: Statement) -> Result<QueryResult, DbError> {
        match stmt {
            Statement::Select(s) => {
                let plan = plan::plan_select(self, &s)?;
                executor::execute_planned(self, &s, &plan)
            }
            Statement::Insert(i) => {
                let rows = {
                    let t = self.table(&i.table)?;
                    match &i.columns {
                        None => i.rows,
                        Some(cols) => {
                            // Reorder the provided columns into schema order,
                            // filling omitted columns with NULL.
                            let mut indices = Vec::with_capacity(cols.len());
                            for c in cols {
                                let idx = t.schema.index_of(c).ok_or_else(|| {
                                    DbError::UnknownColumn { name: c.clone() }
                                })?;
                                indices.push(idx);
                            }
                            i.rows
                                .into_iter()
                                .map(|row| {
                                    if row.len() != indices.len() {
                                        return Err(DbError::ArityMismatch {
                                            expected: indices.len(),
                                            found: row.len(),
                                        });
                                    }
                                    let mut full = vec![Value::Null; t.schema.len()];
                                    for (v, &idx) in row.into_iter().zip(&indices) {
                                        full[idx] = v;
                                    }
                                    Ok(full)
                                })
                                .collect::<Result<Vec<_>, DbError>>()?
                        }
                    }
                };
                let mut inserted = 0i64;
                for row in rows {
                    // Per-row coercion keeps the partial-insert-on-error
                    // semantics of the old inline loop, and routes through
                    // `insert_row` so indexes stay in sync.
                    self.insert_row(&i.table, row)?;
                    inserted += 1;
                }
                Ok(QueryResult {
                    columns: vec!["inserted".to_string()],
                    rows: vec![vec![Value::Int(inserted)]],
                })
            }
            Statement::CreateTable(c) => {
                let schema = Schema::new(
                    c.columns
                        .into_iter()
                        .map(|(n, ty)| crate::schema::Column::new(n, ty))
                        .collect(),
                );
                self.create_table(c.name, schema)?;
                Ok(QueryResult { columns: vec!["created".to_string()], rows: vec![] })
            }
        }
    }

    /// Read-only query entry point: verifies the statement first (Figure 3's
    /// verification step), rejects anything but `SELECT`, and executes the
    /// cost-based plan.
    pub fn query(&self, sql: &str) -> Result<QueryResult, DbError> {
        self.query_with_plan(sql).map(|(result, _)| result)
    }

    /// Like [`Database::query`], also returning the plan explain — the
    /// deterministic description of the chosen access path, join strategy,
    /// and sort treatment.
    pub fn query_with_plan(&self, sql: &str) -> Result<(QueryResult, String), DbError> {
        let _qsp = easytime_obs::span("db.query");
        let stmt = {
            let _sp = easytime_obs::span("db.verify");
            crate::verify::verify_select(self, sql)?
        };
        let plan = plan::plan_select(self, &stmt)?;
        let result = executor::execute_planned(self, &stmt, &plan)?;
        Ok((result, plan.explain))
    }

    /// Executes a `SELECT` with the naive full-scan pipeline, bypassing the
    /// planner. This is the planner's correctness oracle: for every query,
    /// [`Database::query`] must return bit-identical results.
    pub fn query_scan(&self, sql: &str) -> Result<QueryResult, DbError> {
        let _qsp = easytime_obs::span("db.query");
        let stmt = {
            let _sp = easytime_obs::span("db.verify");
            crate::verify::verify_select(self, sql)?
        };
        executor::execute_select(self, &stmt)
    }

    /// Returns the plan explain for a `SELECT` without executing it.
    pub fn explain(&self, sql: &str) -> Result<String, DbError> {
        let stmt = crate::verify::verify_select(self, sql)?;
        Ok(plan::plan_select(self, &stmt)?.explain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE m (name TEXT, score REAL)").unwrap();
        db.execute("INSERT INTO m VALUES ('a', 1.5), ('b', 2.5)").unwrap();
        db
    }

    #[test]
    fn create_insert_select_round_trip() {
        let mut d = db();
        let r = d.execute("SELECT name, score FROM m ORDER BY score DESC").unwrap();
        assert_eq!(r.columns, vec!["name", "score"]);
        assert_eq!(r.rows[0][0], Value::Text("b".into()));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut d = db();
        assert!(matches!(
            d.execute("CREATE TABLE m (x INTEGER)"),
            Err(DbError::DuplicateTable { .. })
        ));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut d = Database::new();
        d.create_table(
            "t",
            Schema::new(vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Text),
                Column::new("c", ColumnType::Float),
            ]),
        )
        .unwrap();
        d.execute("INSERT INTO t (c, a) VALUES (2.5, 7)").unwrap();
        let r = d.execute("SELECT a, b, c FROM t").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(7), Value::Null, Value::Float(2.5)]);
        assert!(matches!(
            d.execute("INSERT INTO t (missing) VALUES (1)"),
            Err(DbError::UnknownColumn { .. })
        ));
        assert!(matches!(
            d.execute("INSERT INTO t (a, b) VALUES (1)"),
            Err(DbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn query_rejects_writes() {
        let d = db();
        assert!(matches!(
            d.query("INSERT INTO m VALUES ('c', 3.0)"),
            Err(DbError::VerificationFailed { .. })
        ));
        assert!(d.query("SELECT * FROM m").is_ok());
    }

    #[test]
    fn render_produces_aligned_table() {
        let d = db();
        let r = d.query("SELECT name, score FROM m ORDER BY name").unwrap();
        let rendered = r.render();
        assert!(rendered.contains("| name"));
        assert!(rendered.contains("| 1.5"));
        let widths: Vec<usize> = rendered.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn unknown_table_error() {
        let mut d = db();
        assert!(matches!(
            d.execute("SELECT * FROM nope"),
            Err(DbError::UnknownTable { .. })
        ));
        assert!(matches!(
            d.execute("INSERT INTO nope VALUES (1)"),
            Err(DbError::UnknownTable { .. })
        ));
    }

    #[test]
    fn programmatic_insert_validates() {
        let mut d = db();
        d.insert_row("m", vec![Value::Text("c".into()), Value::Int(3)]).unwrap();
        let r = d.query("SELECT score FROM m WHERE name = 'c'").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(3.0));
        assert!(d.insert_row("m", vec![Value::Int(1), Value::Int(2)]).is_err());
    }
}
