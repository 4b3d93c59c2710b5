//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::error::DbError;
use crate::lexer::{tokenize, Token};
use crate::schema::ColumnType;
use crate::value::Value;

/// The deepest expression a statement may hold: the height of its syntax
/// tree, each parenthesised group counting as one more level. Parsing
/// recurses once per level, and so do verification, planning, compilation
/// and evaluation; without a cap, a few thousand nested parentheses or a
/// long `NOT` or unary-minus chain overflow the stack and abort the
/// process. A statement at the cap still verifies, plans and runs on a
/// 2 MiB thread stack with half the stack to spare, in an unoptimised build
/// too: there, nested parentheses, the costliest shape at about 16 KiB a
/// level, overflow such a stack at 128 levels.
pub(crate) const MAX_EXPR_DEPTH: usize = 64;

/// Parses one SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement, DbError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, open: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(";");
    if !p.at_end() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open around the current token: parentheses, `NOT`,
    /// unary minus and aggregate arguments.
    open: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: &str) -> DbError {
        DbError::Parse {
            message: message.to_string(),
            near: self.peek().map(Token::text).unwrap_or_default(),
        }
    }

    /// Consumes an identifier token equal (case-insensitively) to `kw`.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), DbError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{sym}'")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Reserved words that terminate identifier positions.
    fn is_reserved(s: &str) -> bool {
        const RESERVED: &[&str] = &[
            "select", "from", "where", "group", "by", "having", "order", "limit", "join",
            "inner", "on", "as", "and", "or", "not", "like", "in", "between", "is", "null",
            "asc", "desc", "distinct", "insert", "into", "values", "create", "table", "true",
            "false",
        ];
        RESERVED.contains(&s.to_ascii_lowercase().as_str())
    }

    fn identifier(&mut self) -> Result<String, DbError> {
        match self.peek() {
            Some(Token::Ident(s)) if !Self::is_reserved(s) => {
                let out = s.to_ascii_lowercase();
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    fn statement(&mut self) -> Result<Statement, DbError> {
        if self.peek_keyword("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.peek_keyword("insert") {
            Ok(Statement::Insert(self.insert()?))
        } else if self.peek_keyword("create") {
            Ok(Statement::CreateTable(self.create_table()?))
        } else {
            Err(self.error("expected SELECT, INSERT, or CREATE TABLE"))
        }
    }

    fn select(&mut self) -> Result<SelectStmt, DbError> {
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");

        let mut items = Vec::new();
        loop {
            if self.eat_symbol("*") {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("as") {
                    Some(self.identifier()?)
                } else {
                    match self.peek() {
                        Some(Token::Ident(s))
                            if !Self::is_reserved(s) =>
                        {
                            Some(self.identifier()?)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(",") {
                break;
            }
        }

        self.expect_keyword("from")?;
        let from = self.table_ref()?;

        let mut joins = Vec::new();
        loop {
            let inner = self.eat_keyword("inner");
            if self.eat_keyword("join") {
                let table = self.table_ref()?;
                self.expect_keyword("on")?;
                let on = self.expr()?;
                joins.push(Join { table, on });
            } else if inner {
                return Err(self.error("expected JOIN after INNER"));
            } else {
                break;
            }
        }

        let where_clause = if self.eat_keyword("where") { Some(self.expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("having") { Some(self.expr()?) } else { None };

        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_keyword("desc") {
                    true
                } else {
                    self.eat_keyword("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("limit") {
            match self.advance() {
                Some(Token::Number(n)) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                _ => return Err(self.error("LIMIT expects a non-negative integer")),
            }
        } else {
            None
        };

        Ok(SelectStmt { distinct, items, from, joins, where_clause, group_by, having, order_by, limit })
    }

    fn table_ref(&mut self) -> Result<TableRef, DbError> {
        let name = self.identifier()?;
        let alias = if self.eat_keyword("as") {
            Some(self.identifier()?)
        } else {
            match self.peek() {
                Some(Token::Ident(s)) if !Self::is_reserved(s) => Some(self.identifier()?),
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    fn insert(&mut self) -> Result<InsertStmt, DbError> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.identifier()?;
        let columns = if self.eat_symbol("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.identifier()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(InsertStmt { table, columns, rows })
    }

    fn create_table(&mut self) -> Result<CreateTableStmt, DbError> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let name = self.identifier()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.identifier()?;
            let ty_name = match self.advance() {
                Some(Token::Ident(s)) => s,
                _ => return Err(self.error("expected column type")),
            };
            let ty = ColumnType::parse(&ty_name)
                .ok_or_else(|| self.error(&format!("unknown column type '{ty_name}'")))?;
            columns.push((col, ty));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(CreateTableStmt { name, columns })
    }

    fn literal(&mut self) -> Result<Value, DbError> {
        let negative = self.eat_symbol("-");
        match self.advance() {
            Some(Token::Number(n)) => {
                let v = if negative { -n } else { n };
                if v.fract() == 0.0 && v.abs() < 9.2e18 {
                    Ok(Value::Int(v as i64))
                } else {
                    Ok(Value::Float(v))
                }
            }
            Some(Token::Str(s)) if !negative => Ok(Value::Text(s)),
            Some(Token::Ident(s)) if !negative && s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Some(Token::Ident(s)) if !negative && s.eq_ignore_ascii_case("true") => {
                Ok(Value::Bool(true))
            }
            Some(Token::Ident(s)) if !negative && s.eq_ignore_ascii_case("false") => {
                Ok(Value::Bool(false))
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected literal value"))
            }
        }
    }

    // ----- expression grammar, lowest precedence first -----
    //
    // Every rule returns its expression with its depth (see
    // `MAX_EXPR_DEPTH`). Depths grow only in `deeper`, so no tree taller
    // than the cap is ever built; `nested` bounds the recursion on the way
    // down, before the inner tree exists.

    fn expr(&mut self) -> Result<Expr, DbError> {
        Ok(self.or_expr()?.0)
    }

    fn too_deep(&self) -> DbError {
        self.error(&format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"))
    }

    /// The depth of a node over children at most `below` deep.
    fn deeper(&self, below: usize) -> Result<usize, DbError> {
        if below >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok(below + 1)
    }

    /// Runs `rule` one nesting level further in. With `open` levels around
    /// it, the tree it returns ends at least `open + 2` deep, so a level
    /// that could only exceed the cap is refused before recursing.
    fn nested(
        &mut self,
        rule: fn(&mut Parser) -> Result<(Expr, usize), DbError>,
    ) -> Result<(Expr, usize), DbError> {
        if self.open + 1 >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let parsed = rule(self);
        self.open -= 1;
        parsed
    }

    fn or_expr(&mut self) -> Result<(Expr, usize), DbError> {
        let (mut left, mut depth) = self.and_expr()?;
        while self.eat_keyword("or") {
            let (right, d) = self.and_expr()?;
            depth = self.deeper(depth.max(d))?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok((left, depth))
    }

    fn and_expr(&mut self) -> Result<(Expr, usize), DbError> {
        let (mut left, mut depth) = self.not_expr()?;
        while self.eat_keyword("and") {
            let (right, d) = self.not_expr()?;
            depth = self.deeper(depth.max(d))?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok((left, depth))
    }

    fn not_expr(&mut self) -> Result<(Expr, usize), DbError> {
        if self.eat_keyword("not") {
            let (inner, d) = self.nested(Parser::not_expr)?;
            Ok((Expr::Not(Box::new(inner)), self.deeper(d)?))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<(Expr, usize), DbError> {
        let (left, dl) = self.additive()?;

        // IS [NOT] NULL
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok((Expr::IsNull { expr: Box::new(left), negated }, self.deeper(dl)?));
        }

        // [NOT] LIKE / IN / BETWEEN
        let negated = self.eat_keyword("not");
        if self.eat_keyword("like") {
            match self.advance() {
                Some(Token::Str(pattern)) => {
                    let depth = self.deeper(dl)?;
                    return Ok((Expr::Like { expr: Box::new(left), pattern, negated }, depth));
                }
                _ => return Err(self.error("LIKE expects a string pattern")),
            }
        }
        if self.eat_keyword("in") {
            self.expect_symbol("(")?;
            let mut list = Vec::new();
            let mut below = dl;
            loop {
                let (item, d) = self.additive()?;
                list.push(item);
                below = below.max(d);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            let depth = self.deeper(below)?;
            return Ok((Expr::InList { expr: Box::new(left), list, negated }, depth));
        }
        if self.eat_keyword("between") {
            let (low, dlow) = self.additive()?;
            self.expect_keyword("and")?;
            let (high, dhigh) = self.additive()?;
            let depth = self.deeper(dl.max(dlow).max(dhigh))?;
            return Ok((
                Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                },
                depth,
            ));
        }
        if negated {
            return Err(self.error("expected LIKE, IN, or BETWEEN after NOT"));
        }

        let op = if self.eat_symbol("=") {
            Some(BinOp::Eq)
        } else if self.eat_symbol("!=") {
            Some(BinOp::Ne)
        } else if self.eat_symbol("<=") {
            Some(BinOp::Le)
        } else if self.eat_symbol("<") {
            Some(BinOp::Lt)
        } else if self.eat_symbol(">=") {
            Some(BinOp::Ge)
        } else if self.eat_symbol(">") {
            Some(BinOp::Gt)
        } else {
            None
        };
        if let Some(op) = op {
            let (right, dr) = self.additive()?;
            let depth = self.deeper(dl.max(dr))?;
            return Ok((Expr::Binary { op, left: Box::new(left), right: Box::new(right) }, depth));
        }
        Ok((left, dl))
    }

    fn additive(&mut self) -> Result<(Expr, usize), DbError> {
        let (mut left, mut depth) = self.multiplicative()?;
        loop {
            let op = if self.eat_symbol("+") {
                BinOp::Add
            } else if self.eat_symbol("-") {
                BinOp::Sub
            } else {
                break;
            };
            let (right, d) = self.multiplicative()?;
            depth = self.deeper(depth.max(d))?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok((left, depth))
    }

    fn multiplicative(&mut self) -> Result<(Expr, usize), DbError> {
        let (mut left, mut depth) = self.unary()?;
        loop {
            let op = if self.eat_symbol("*") {
                BinOp::Mul
            } else if self.eat_symbol("/") {
                BinOp::Div
            } else {
                break;
            };
            let (right, d) = self.unary()?;
            depth = self.deeper(depth.max(d))?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok((left, depth))
    }

    fn unary(&mut self) -> Result<(Expr, usize), DbError> {
        if self.eat_symbol("-") {
            let (inner, d) = self.nested(Parser::unary)?;
            Ok((Expr::Neg(Box::new(inner)), self.deeper(d)?))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<(Expr, usize), DbError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                if n.fract() == 0.0 && n.abs() < 9.2e18 {
                    Ok((Expr::Literal(Value::Int(n as i64)), 1))
                } else {
                    Ok((Expr::Literal(Value::Float(n)), 1))
                }
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok((Expr::Literal(Value::Text(s)), 1))
            }
            Some(Token::Symbol("(")) => {
                self.pos += 1;
                let (e, d) = self.nested(Parser::or_expr)?;
                self.expect_symbol(")")?;
                Ok((e, self.deeper(d)?))
            }
            Some(Token::Ident(ident)) => {
                if ident.eq_ignore_ascii_case("null") {
                    self.pos += 1;
                    return Ok((Expr::Literal(Value::Null), 1));
                }
                if ident.eq_ignore_ascii_case("true") {
                    self.pos += 1;
                    return Ok((Expr::Literal(Value::Bool(true)), 1));
                }
                if ident.eq_ignore_ascii_case("false") {
                    self.pos += 1;
                    return Ok((Expr::Literal(Value::Bool(false)), 1));
                }
                // Aggregate call?
                if let Some(func) = Aggregate::parse(&ident) {
                    if matches!(self.tokens.get(self.pos + 1), Some(Token::Symbol("("))) {
                        self.pos += 2; // name and '('
                        let (arg, depth) = if self.eat_symbol("*") {
                            (None, 1)
                        } else {
                            let (a, d) = self.nested(Parser::or_expr)?;
                            (Some(Box::new(a)), self.deeper(d)?)
                        };
                        self.expect_symbol(")")?;
                        return Ok((Expr::AggregateCall { func, arg }, depth));
                    }
                }
                if Self::is_reserved(&ident) {
                    return Err(self.error("unexpected keyword in expression"));
                }
                self.pos += 1;
                // Qualified column?
                if self.eat_symbol(".") {
                    let col = self.identifier()?;
                    Ok((Expr::Column { table: Some(ident.to_ascii_lowercase()), name: col }, 1))
                } else {
                    Ok((Expr::Column { table: None, name: ident.to_ascii_lowercase() }, 1))
                }
            }
            _ => Err(self.error("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_select() {
        let s = select("SELECT a, b FROM t");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.name, "t");
        assert!(!s.distinct);
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn parses_full_query_shape() {
        let s = select(
            "SELECT method, AVG(mae) AS mean_mae FROM results \
             WHERE horizon >= 48 AND strategy = 'rolling' \
             GROUP BY method HAVING COUNT(*) > 3 \
             ORDER BY mean_mae ASC, method DESC LIMIT 8;",
        );
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.as_ref().unwrap().contains_aggregate());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].1);
        assert!(s.order_by[1].1);
        assert_eq!(s.limit, Some(8));
        match &s.items[1] {
            SelectItem::Expr { alias, expr } => {
                assert_eq!(alias.as_deref(), Some("mean_mae"));
                assert!(expr.contains_aggregate());
            }
            _ => panic!("expected aliased aggregate"),
        }
    }

    #[test]
    fn parses_joins_with_aliases() {
        let s = select(
            "SELECT r.method, d.domain FROM results r \
             JOIN datasets AS d ON r.dataset_id = d.id WHERE d.trend > 0.6",
        );
        assert_eq!(s.from.effective_name(), "r");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.effective_name(), "d");
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Column { table, name }, .. } => {
                assert_eq!(table.as_deref(), Some("r"));
                assert_eq!(name, "method");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_inner_join_keyword() {
        let s = select("SELECT * FROM a INNER JOIN b ON a.x = b.y");
        assert_eq!(s.joins.len(), 1);
        assert!(matches!(s.items[0], SelectItem::Wildcard));
    }

    #[test]
    fn parses_predicates() {
        let s = select(
            "SELECT * FROM t WHERE a LIKE 'web%' AND b IN (1, 2, 3) \
             AND c BETWEEN 0 AND 1 AND d IS NOT NULL AND NOT e = 5",
        );
        let w = s.where_clause.unwrap();
        let mut likes = 0;
        let mut ins = 0;
        let mut betweens = 0;
        let mut is_nulls = 0;
        let mut nots = 0;
        fn walk(
            e: &Expr,
            likes: &mut i32,
            ins: &mut i32,
            betweens: &mut i32,
            is_nulls: &mut i32,
            nots: &mut i32,
        ) {
            match e {
                Expr::Like { .. } => *likes += 1,
                Expr::InList { list, .. } => {
                    *ins += 1;
                    assert_eq!(list.len(), 3);
                }
                Expr::Between { .. } => *betweens += 1,
                Expr::IsNull { negated, .. } => {
                    *is_nulls += 1;
                    assert!(*negated);
                }
                Expr::Not(inner) => {
                    *nots += 1;
                    walk(inner, likes, ins, betweens, is_nulls, nots);
                }
                Expr::Binary { left, right, .. } => {
                    walk(left, likes, ins, betweens, is_nulls, nots);
                    walk(right, likes, ins, betweens, is_nulls, nots);
                }
                _ => {}
            }
        }
        walk(&w, &mut likes, &mut ins, &mut betweens, &mut is_nulls, &mut nots);
        assert_eq!((likes, ins, betweens, is_nulls, nots), (1, 1, 1, 1, 1));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = select("SELECT a + b * 2 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_insert_and_create() {
        let stmt = parse(
            "INSERT INTO methods (name, family) VALUES ('theta', 'statistical'), ('naive', 'statistical')",
        )
        .unwrap();
        match stmt {
            Statement::Insert(i) => {
                assert_eq!(i.table, "methods");
                assert_eq!(i.columns.as_ref().unwrap().len(), 2);
                assert_eq!(i.rows.len(), 2);
                assert_eq!(i.rows[0][0], Value::Text("theta".into()));
            }
            other => panic!("unexpected {other:?}"),
        }

        let stmt = parse("CREATE TABLE t (id INTEGER, score REAL, name TEXT, ok BOOLEAN)").unwrap();
        match stmt {
            Statement::CreateTable(c) => {
                assert_eq!(c.name, "t");
                assert_eq!(c.columns.len(), 4);
                assert_eq!(c.columns[1], ("score".to_string(), ColumnType::Float));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_literals_support_negatives_null_bool() {
        let stmt = parse("INSERT INTO t VALUES (-3, -2.5, NULL, true)").unwrap();
        match stmt {
            Statement::Insert(i) => {
                assert_eq!(
                    i.rows[0],
                    vec![Value::Int(-3), Value::Float(-2.5), Value::Null, Value::Bool(true)]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse("SELEC a FROM t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t; garbage").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse("SELECT a FROM t INNER b").is_err());
    }

    /// Runs `f` on a thread with a 2 MiB stack, the default for spawned
    /// threads, whatever `RUST_MIN_STACK` says.
    fn on_2mib_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("thread spawns")
            .join()
            .expect("no stack overflow")
    }

    /// Statements `depth` levels deep in each recursive shape: nested
    /// parentheses in a projection, a WHERE and an aggregate argument, and
    /// chains of `NOT`, unary minus and `+`.
    fn nested_statements(depth: usize) -> Vec<String> {
        let parens = |n: usize, inner: &str| format!("{}{inner}{}", "(".repeat(n), ")".repeat(n));
        vec![
            format!("SELECT {} FROM m", parens(depth - 1, "score")),
            format!("SELECT name FROM m WHERE {}", parens(depth - 2, "score > 1")),
            format!("SELECT SUM({}) FROM m", parens(depth - 2, "score")),
            format!("SELECT name FROM m WHERE {}score > 1", "NOT ".repeat(depth - 2)),
            format!("SELECT {}score FROM m", "- ".repeat(depth - 1)),
            format!("SELECT score{} FROM m", " + 1".repeat(depth - 1)),
        ]
    }

    fn small_db() -> crate::Database {
        let mut db = crate::Database::new();
        db.execute("CREATE TABLE m (name TEXT, score REAL)").unwrap();
        db.execute("INSERT INTO m VALUES ('a', 1.5), ('b', 2.5), ('c', -0.5)").unwrap();
        db.create_index("ix_m_score", "m", &["score"]).unwrap();
        db
    }

    fn is_depth_error(e: &DbError) -> bool {
        matches!(e, DbError::Parse { message, .. } if message.contains("nested deeper than"))
    }

    #[test]
    fn statements_at_the_depth_cap_verify_plan_and_run_on_a_2mib_stack() {
        on_2mib_stack(|| {
            let db = small_db();
            for sql in nested_statements(MAX_EXPR_DEPTH) {
                let planned = db.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                assert_eq!(planned, db.query_scan(&sql).unwrap(), "{sql}");
                assert!(!planned.rows.is_empty(), "{sql}");
                db.explain(&sql).unwrap();
            }
            for sql in nested_statements(MAX_EXPR_DEPTH + 1) {
                let err = db.query(&sql).unwrap_err();
                assert!(is_depth_error(&err), "{sql}: {err}");
            }
        });
    }

    #[test]
    fn hostile_nesting_is_a_typed_parse_error_on_a_2mib_stack() {
        on_2mib_stack(|| {
            let db = small_db();
            for sql in nested_statements(100_000) {
                let err = parse(&sql).unwrap_err();
                assert!(is_depth_error(&err), "{err}");
                assert!(is_depth_error(&db.query(&sql).unwrap_err()));
            }
            let aggregates = format!("SELECT {}1{} FROM m", "SUM(".repeat(100_000), ")".repeat(100_000));
            assert!(is_depth_error(&parse(&aggregates).unwrap_err()));
        });
    }

    #[test]
    fn count_star_and_distinct() {
        let s = select("SELECT DISTINCT domain, COUNT(*) FROM datasets GROUP BY domain");
        assert!(s.distinct);
        match &s.items[1] {
            SelectItem::Expr { expr: Expr::AggregateCall { func, arg }, .. } => {
                assert_eq!(*func, Aggregate::Count);
                assert!(arg.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
