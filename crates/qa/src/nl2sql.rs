//! NL2SQL: semantic parsing of benchmark questions and SQL generation.
//!
//! Substitutes the paper's LLM with a deterministic two-stage compiler:
//! a lexicon/pattern parser fills the typed [`Intent`], and a generator
//! emits SQL against the knowledge schema. Every emitted statement is
//! still routed through the SQL verifier before execution, mirroring the
//! paper's two-step retrieval design.

use crate::error::QaError;
use crate::intent::{CharacteristicFilter, ExplicitSlots, HorizonClass, Intent, IntentKind};

/// Entity lexicon extracted from the knowledge base at session start:
/// the registered method names and corpus domains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lexicon {
    /// Canonical method names (`naive`, `theta`, `dlinear_32`, …).
    pub methods: Vec<String>,
    /// Domain names (`traffic`, `web`, …).
    pub domains: Vec<String>,
}

/// Normalizes a question into matchable tokens: lowercase, punctuation
/// stripped (hyphens become spaces so "top-8" and "long-term" split).
fn normalize(question: &str) -> Vec<String> {
    question
        .to_ascii_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c
            } else {
                ' '
            }
        })
        .collect::<String>()
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

fn word_number(w: &str) -> Option<usize> {
    match w {
        "one" => Some(1),
        "two" => Some(2),
        "three" => Some(3),
        "four" => Some(4),
        "five" => Some(5),
        "six" => Some(6),
        "seven" => Some(7),
        "eight" => Some(8),
        "nine" => Some(9),
        "ten" => Some(10),
        _ => w.parse().ok().filter(|&n| n > 0 && n <= 1000),
    }
}

fn contains_phrase(tokens: &[String], phrase: &[&str]) -> bool {
    if phrase.is_empty() || tokens.len() < phrase.len() {
        return false;
    }
    tokens.windows(phrase.len()).any(|w| w.iter().zip(phrase).all(|(t, p)| t == p))
}

/// Finds method-name mentions. Method names are matched on their
/// normalized token form, so "Holt Winters" matches `holt_winters` and
/// "DLinear" matches `dlinear_32` (prefix before the parameter suffix).
/// Longer names claim their tokens first, so "seasonal naive" does not
/// also register a spurious "naive" mention. Returns the mentions in
/// question order and the mask of tokens they claimed.
fn find_methods(tokens: &[String], lexicon: &Lexicon) -> (Vec<String>, Vec<bool>) {
    // (method, its match tokens), longest phrase first.
    let mut candidates: Vec<(String, Vec<String>)> = lexicon
        .methods
        .iter()
        .filter_map(|method| {
            let parts: Vec<String> = normalize(&method.replace('_', " "))
                .into_iter()
                .filter(|p| p.parse::<usize>().is_err() && !p.contains(char::is_numeric))
                .collect();
            (!parts.is_empty()).then(|| (method.clone(), parts))
        })
        .collect();
    candidates.sort_by_key(|(_, parts)| std::cmp::Reverse(parts.len()));

    let mut consumed = vec![false; tokens.len()];
    let mut found: Vec<(usize, String)> = Vec::new();
    for (method, parts) in candidates {
        let plen = parts.len();
        if tokens.len() < plen {
            continue;
        }
        for start in 0..=(tokens.len() - plen) {
            let window = &tokens[start..start + plen];
            let free = !consumed[start..start + plen].iter().any(|&c| c);
            if free && window.iter().zip(&parts).all(|(t, p)| t == p) {
                for c in consumed.iter_mut().skip(start).take(plen) {
                    *c = true;
                }
                found.push((start, method.clone()));
                break;
            }
        }
    }
    // Report mentions in question order.
    found.sort_by_key(|(pos, _)| *pos);
    (found.into_iter().map(|(_, m)| m).collect(), consumed)
}

/// Parses a question into an intent plus the explicit-slot mask.
pub fn parse_question(
    question: &str,
    lexicon: &Lexicon,
) -> Result<(Intent, ExplicitSlots), QaError> {
    let tokens = normalize(question);
    if tokens.is_empty() {
        return Err(QaError::UnparsableQuestion {
            question: question.to_string(),
            hint: "empty question".into(),
        });
    }
    let mut intent = Intent::default();
    let mut explicit = ExplicitSlots::default();

    // --- metric ---
    let metric_lexicon: [(&[&str], &str); 9] = [
        (&["mean", "absolute", "error"], "mae"),
        (&["mae"], "mae"),
        (&["mean", "squared", "error"], "mse"),
        (&["mse"], "mse"),
        (&["rmse"], "rmse"),
        (&["smape"], "smape"),
        (&["mape"], "smape"),
        (&["mase"], "mase"),
        (&["r2"], "r2"),
    ];
    for (phrase, metric) in metric_lexicon {
        if contains_phrase(&tokens, phrase) {
            intent.metric = metric.to_string();
            explicit.metric = true;
            break;
        }
    }

    // --- top-n ---
    for (i, t) in tokens.iter().enumerate() {
        // "top 8", "best five", "worst 3".
        if (t == "top" || t == "best" || t == "worst") && i + 1 < tokens.len() {
            if let Some(n) = word_number(&tokens[i + 1]) {
                intent.top_n = n;
                explicit.top_n = true;
            }
        }
        // "3 fastest methods", "the 5 best performers", "8 methods".
        if !explicit.top_n && i + 1 < tokens.len() {
            if let Some(n) = word_number(t) {
                if matches!(
                    tokens[i + 1].as_str(),
                    "fastest" | "quickest" | "best" | "worst" | "top" | "method" | "methods"
                ) {
                    intent.top_n = n;
                    explicit.top_n = true;
                }
            }
        }
    }
    // A singular "method" with an interrogative/superlative → exactly one
    // answer ("the best machine learning method", "which method …").
    if !explicit.top_n
        && tokens.iter().any(|t| t == "method")
        && tokens.iter().any(|t| matches!(t.as_str(), "best" | "which" | "what" | "fastest"))
    {
        intent.top_n = 1;
        explicit.top_n = true;
    }

    // --- horizon ---
    if contains_phrase(&tokens, &["long", "term"]) || contains_phrase(&tokens, &["long", "horizon"])
    {
        intent.horizon = Some(HorizonClass::Long);
        explicit.horizon = true;
    } else if contains_phrase(&tokens, &["short", "term"])
        || contains_phrase(&tokens, &["short", "horizon"])
    {
        intent.horizon = Some(HorizonClass::Short);
        explicit.horizon = true;
    } else {
        for (i, t) in tokens.iter().enumerate() {
            if t == "horizon" {
                // "horizon 48" or "horizon of 48".
                for j in [i + 1, i + 2] {
                    if let Some(n) = tokens.get(j).and_then(|w| word_number(w)) {
                        intent.horizon = Some(HorizonClass::Exact(n));
                        explicit.horizon = true;
                        break;
                    }
                }
            }
            if (t == "steps" || t == "step") && i >= 1 {
                if let Some(n) = word_number(&tokens[i - 1]) {
                    intent.horizon = Some(HorizonClass::Exact(n));
                    explicit.horizon = true;
                }
            }
        }
    }

    // --- domain ---
    for domain in &lexicon.domains {
        if tokens.iter().any(|t| t == domain) {
            intent.domain = Some(domain.clone());
            explicit.domain = true;
            break;
        }
    }

    // --- characteristics ---
    // Method names claim their tokens first, so the "seasonal" of
    // `seasonal_naive` or the "trend" of `linear_trend` sets no filter.
    let (mentioned, claimed) = find_methods(&tokens, lexicon);
    let mut chars = Vec::new();
    let has = |stems: &[&str]| tokens.iter().any(|t| stems.iter().any(|s| t.starts_with(s)));
    let has_free = |stems: &[&str]| {
        tokens.iter().zip(&claimed).any(|(t, &c)| !c && stems.iter().any(|s| t.starts_with(s)))
    };
    if has_free(&["trend"]) {
        chars.push(CharacteristicFilter { column: "trend".into(), strong: true });
    }
    if has_free(&["seasonal"]) {
        chars.push(CharacteristicFilter { column: "seasonality".into(), strong: true });
    }
    if contains_phrase(&tokens, &["non", "stationary"]) || has_free(&["nonstationary"]) {
        chars.push(CharacteristicFilter { column: "stationarity".into(), strong: false });
    } else if has_free(&["stationar"]) {
        chars.push(CharacteristicFilter { column: "stationarity".into(), strong: true });
    }
    if has_free(&["shift"]) {
        chars.push(CharacteristicFilter { column: "shifting".into(), strong: true });
    }
    if has_free(&["transition", "regime"]) {
        chars.push(CharacteristicFilter { column: "transition".into(), strong: true });
    }
    if has_free(&["correlat"]) {
        chars.push(CharacteristicFilter { column: "correlation".into(), strong: true });
    }
    if !chars.is_empty() {
        intent.characteristics = chars;
        explicit.characteristics = true;
    }

    // --- variate ---
    if tokens.iter().any(|t| t == "multivariate") {
        intent.multivariate = Some(true);
        explicit.multivariate = true;
    } else if tokens.iter().any(|t| t == "univariate") {
        intent.multivariate = Some(false);
        explicit.multivariate = true;
    }

    // --- strategy ---
    if tokens.iter().any(|t| t == "rolling") {
        intent.strategy = Some("rolling".into());
        explicit.strategy = true;
    } else if contains_phrase(&tokens, &["fixed", "window"]) || tokens.iter().any(|t| t == "fixed")
    {
        intent.strategy = Some("fixed".into());
        explicit.strategy = true;
    }

    // --- family ---
    if tokens.iter().any(|t| t == "statistical") {
        intent.family = Some("statistical".into());
        explicit.family = true;
    } else if contains_phrase(&tokens, &["machine", "learning"]) {
        intent.family = Some("machine_learning".into());
        explicit.family = true;
    } else if contains_phrase(&tokens, &["deep", "learning"]) || has(&["neural"]) {
        intent.family = Some("deep_learning".into());
        explicit.family = true;
    }

    // --- intent kind ---
    let counting = tokens.iter().any(|t| t == "many" || t == "count");
    if counting && has(&["dataset", "series"]) {
        intent.kind = IntentKind::CountDatasets;
        explicit.kind = true;
    } else if counting && has(&["method", "model"]) {
        intent.kind = IntentKind::CountMethods;
        explicit.kind = true;
    } else if has(&["domain"]) && (has(&["which", "what", "list"]) || counting) {
        intent.kind = IntentKind::ListDomains;
        explicit.kind = true;
    } else if tokens.iter().any(|t| t == "fastest" || t == "quickest")
        || contains_phrase(&tokens, &["by", "runtime"])
    {
        intent.kind = IntentKind::FastestMethods;
        explicit.kind = true;
    } else if mentioned.len() >= 2
        && (has(&["compare", "versus", "vs", "better", "or"])
            || contains_phrase(&tokens, &["difference", "between"]))
    {
        intent.kind =
            IntentKind::CompareMethods { a: mentioned[0].clone(), b: mentioned[1].clone() };
        explicit.kind = true;
    } else if mentioned.len() == 1
        && (contains_phrase(&tokens, &["what", "is"])
            || contains_phrase(&tokens, &["tell", "me", "about"])
            || has(&["describe"]))
    {
        intent.kind = IntentKind::MethodInfo { name: mentioned[0].clone() };
        explicit.kind = true;
    } else if mentioned.len() == 1
        && (contains_phrase(&tokens, &["where", "does"])
            || has(&["profile", "breakdown"])
            || contains_phrase(&tokens, &["across", "domains"])
            || contains_phrase(&tokens, &["by", "domain"])
            || contains_phrase(&tokens, &["per", "domain"]))
    {
        intent.kind = IntentKind::MethodProfile { name: mentioned[0].clone() };
        explicit.kind = true;
    } else if has(&["worst", "struggle", "weakest"]) {
        intent.kind = IntentKind::WorstMethods;
        explicit.kind = true;
    } else if has(&["top", "best", "recommend", "rank", "method", "perform", "accura", "win"]) {
        intent.kind = IntentKind::TopMethods;
        explicit.kind = true;
    }

    if !explicit.any() {
        return Err(QaError::UnparsableQuestion {
            question: question.to_string(),
            hint: "try asking about top methods, comparisons, counts, domains, or runtimes; \
                   mention a metric (MAE/RMSE/sMAPE/…), a horizon, a domain, or dataset \
                   characteristics"
                .into(),
        });
    }
    Ok((intent, explicit))
}

/// Escapes a string literal for SQL embedding.
fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Strong/weak characteristic thresholds (match
/// `Characteristics::STRONG` in the data layer).
const STRONG_THRESHOLD: f64 = 0.6;
const WEAK_THRESHOLD: f64 = 0.4;

/// Builds the WHERE conjuncts shared by result-ranking intents.
fn result_filters(intent: &Intent) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(h) = &intent.horizon {
        out.push(h.predicate("r.horizon"));
    }
    if let Some(d) = &intent.domain {
        out.push(format!("d.domain = {}", sql_str(d)));
    }
    for c in &intent.characteristics {
        if c.strong {
            out.push(format!("d.{} >= {STRONG_THRESHOLD}", c.column));
        } else {
            out.push(format!("d.{} < {WEAK_THRESHOLD}", c.column));
        }
    }
    if let Some(mv) = intent.multivariate {
        out.push(format!("d.multivariate = {mv}"));
    }
    if let Some(s) = &intent.strategy {
        out.push(format!("r.strategy = {}", sql_str(s)));
    }
    if let Some(f) = &intent.family {
        out.push(format!("m.family = {}", sql_str(f)));
    }
    out
}

/// Compiles an intent to SQL against the knowledge schema.
pub fn generate_sql(intent: &Intent) -> String {
    let needs_family_join = intent.family.is_some();
    let joins = if needs_family_join {
        "JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name"
    } else {
        "JOIN datasets d ON r.dataset_id = d.id"
    };
    let where_clause = |filters: Vec<String>| {
        if filters.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", filters.join(" AND "))
        }
    };

    match &intent.kind {
        IntentKind::TopMethods => {
            let direction = if intent.metric == "r2" { "DESC" } else { "ASC" };
            format!(
                "SELECT r.method, AVG(r.{metric}) AS mean_{metric}, COUNT(*) AS runs \
                 FROM results r {joins}{w} GROUP BY r.method \
                 ORDER BY mean_{metric} {direction} LIMIT {n}",
                metric = intent.metric,
                w = where_clause(result_filters(intent)),
                n = intent.top_n,
            )
        }
        IntentKind::CompareMethods { a, b } => {
            let mut filters = result_filters(intent);
            filters.push(format!("r.method IN ({}, {})", sql_str(a), sql_str(b)));
            format!(
                "SELECT r.method, AVG(r.{metric}) AS mean_{metric}, COUNT(*) AS runs \
                 FROM results r {joins}{w} GROUP BY r.method ORDER BY mean_{metric} ASC",
                metric = intent.metric,
                w = where_clause(filters),
            )
        }
        IntentKind::CountDatasets => {
            // Dataset-only filters: strip the result-table conjuncts.
            let mut filters = Vec::new();
            if let Some(d) = &intent.domain {
                filters.push(format!("d.domain = {}", sql_str(d)));
            }
            for c in &intent.characteristics {
                if c.strong {
                    filters.push(format!("d.{} >= {STRONG_THRESHOLD}", c.column));
                } else {
                    filters.push(format!("d.{} < {WEAK_THRESHOLD}", c.column));
                }
            }
            if let Some(mv) = intent.multivariate {
                filters.push(format!("d.multivariate = {mv}"));
            }
            format!(
                "SELECT COUNT(*) AS datasets FROM datasets d{}",
                where_clause(filters)
            )
        }
        IntentKind::CountMethods => match &intent.family {
            Some(f) => format!(
                "SELECT COUNT(*) AS methods FROM methods m WHERE m.family = {}",
                sql_str(f)
            ),
            None => "SELECT COUNT(*) AS methods FROM methods m".to_string(),
        },
        IntentKind::ListDomains => "SELECT d.domain, COUNT(*) AS datasets FROM datasets d \
                                    GROUP BY d.domain ORDER BY datasets DESC"
            .to_string(),
        IntentKind::MethodInfo { name } => format!(
            "SELECT m.name, m.family, m.description FROM methods m WHERE m.name = {}",
            sql_str(name)
        ),
        IntentKind::FastestMethods => format!(
            "SELECT r.method, AVG(r.runtime_ms) AS mean_runtime_ms, COUNT(*) AS runs \
             FROM results r {joins}{w} GROUP BY r.method ORDER BY mean_runtime_ms ASC LIMIT {n}",
            w = where_clause(result_filters(intent)),
            n = intent.top_n,
        ),
        IntentKind::WorstMethods => {
            // Mirror image of TopMethods: the worst end of the ranking.
            let direction = if intent.metric == "r2" { "ASC" } else { "DESC" };
            format!(
                "SELECT r.method, AVG(r.{metric}) AS mean_{metric}, COUNT(*) AS runs \
                 FROM results r {joins}{w} GROUP BY r.method \
                 ORDER BY mean_{metric} {direction} LIMIT {n}",
                metric = intent.metric,
                w = where_clause(result_filters(intent)),
                n = intent.top_n,
            )
        }
        IntentKind::MethodProfile { name } => {
            let mut filters = result_filters(intent);
            filters.push(format!("r.method = {}", sql_str(name)));
            format!(
                "SELECT d.domain, AVG(r.{metric}) AS mean_{metric}, COUNT(*) AS runs \
                 FROM results r {joins}{w} GROUP BY d.domain ORDER BY mean_{metric} ASC",
                metric = intent.metric,
                w = where_clause(filters),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexicon() -> Lexicon {
        Lexicon {
            methods: vec![
                "naive".into(),
                "seasonal_naive".into(),
                "theta".into(),
                "holt_winters".into(),
                "dlinear_32".into(),
                "arima_auto".into(),
            ],
            domains: vec!["traffic".into(), "web".into(), "economic".into()],
        }
    }

    #[test]
    fn parses_the_paper_question_verbatim() {
        // Figure 5, label 1.
        let (intent, _) = parse_question(
            "What are the top-8 methods (ordered by MAE) for long-term forecasting \
             on all multivariate datasets with trends?",
            &lexicon(),
        )
        .unwrap();
        assert_eq!(intent.kind, IntentKind::TopMethods);
        assert_eq!(intent.metric, "mae");
        assert_eq!(intent.top_n, 8);
        assert_eq!(intent.horizon, Some(HorizonClass::Long));
        assert_eq!(intent.multivariate, Some(true));
        assert_eq!(intent.characteristics.len(), 1);
        assert_eq!(intent.characteristics[0].column, "trend");

        let sql = generate_sql(&intent);
        assert!(sql.contains("AVG(r.mae)"));
        assert!(sql.contains("r.horizon >= 96"));
        assert!(sql.contains("d.multivariate = true"));
        assert!(sql.contains("d.trend >= 0.6"));
        assert!(sql.contains("LIMIT 8"));
    }

    #[test]
    fn parses_the_abstract_question() {
        // "Which method is best for long term forecasting on time series
        // with strong seasonality?"
        let (intent, _) = parse_question(
            "Which method is best for long term forecasting on time series with strong seasonality?",
            &lexicon(),
        )
        .unwrap();
        assert_eq!(intent.kind, IntentKind::TopMethods);
        assert_eq!(intent.top_n, 1);
        assert_eq!(intent.horizon, Some(HorizonClass::Long));
        assert_eq!(intent.characteristics[0].column, "seasonality");
    }

    #[test]
    fn parses_comparisons() {
        let (intent, _) = parse_question(
            "Is theta better than seasonal naive on economic data by sMAPE?",
            &lexicon(),
        )
        .unwrap();
        match &intent.kind {
            IntentKind::CompareMethods { a, b } => {
                let pair = [a.as_str(), b.as_str()];
                assert!(pair.contains(&"theta"));
                assert!(pair.contains(&"seasonal_naive"));
            }
            other => panic!("expected comparison, got {other:?}"),
        }
        assert_eq!(intent.metric, "smape");
        assert_eq!(intent.domain.as_deref(), Some("economic"));
        let sql = generate_sql(&intent);
        assert!(sql.contains("r.method IN ("));
        assert!(sql.contains("d.domain = 'economic'"));
    }

    #[test]
    fn parses_counts_lists_and_info() {
        let lex = lexicon();
        let (c, _) =
            parse_question("How many multivariate datasets are in the benchmark?", &lex).unwrap();
        assert_eq!(c.kind, IntentKind::CountDatasets);
        assert!(generate_sql(&c).contains("COUNT(*) AS datasets"));

        let (m, _) = parse_question("How many statistical methods are there?", &lex).unwrap();
        assert_eq!(m.kind, IntentKind::CountMethods);
        assert!(generate_sql(&m).contains("m.family = 'statistical'"));

        let (d, _) = parse_question("Which domains does the benchmark cover?", &lex).unwrap();
        assert_eq!(d.kind, IntentKind::ListDomains);

        let (i, _) = parse_question("Tell me about holt winters", &lex).unwrap();
        assert_eq!(i.kind, IntentKind::MethodInfo { name: "holt_winters".into() });
        assert!(generate_sql(&i).contains("m.name = 'holt_winters'"));
    }

    #[test]
    fn parses_runtime_and_strategy_and_horizon_variants() {
        let lex = lexicon();
        let (f, _) =
            parse_question("What are the three fastest methods under rolling evaluation?", &lex)
                .unwrap();
        assert_eq!(f.kind, IntentKind::FastestMethods);
        assert_eq!(f.strategy.as_deref(), Some("rolling"));
        let sql = generate_sql(&f);
        assert!(sql.contains("runtime_ms"));
        assert!(sql.contains("r.strategy = 'rolling'"));

        let (h, _) = parse_question("Best methods at horizon 48 by RMSE", &lex).unwrap();
        assert_eq!(h.horizon, Some(HorizonClass::Exact(48)));
        assert_eq!(h.metric, "rmse");

        let (s, _) = parse_question("best short-term methods for traffic", &lex).unwrap();
        assert_eq!(s.horizon, Some(HorizonClass::Short));
        assert_eq!(s.domain.as_deref(), Some("traffic"));
    }

    #[test]
    fn parses_word_numbers_and_top_variants() {
        let lex = lexicon();
        let (a, _) = parse_question("show the top five methods", &lex).unwrap();
        assert_eq!(a.top_n, 5);
        let (b, _) = parse_question("top 3 methods by mase", &lex).unwrap();
        assert_eq!(b.top_n, 3);
        assert_eq!(b.metric, "mase");
    }

    #[test]
    fn nonstationary_is_a_weak_filter() {
        let (intent, _) =
            parse_question("best methods on non-stationary series", &lexicon()).unwrap();
        let c = &intent.characteristics[0];
        assert_eq!(c.column, "stationarity");
        assert!(!c.strong);
        assert!(generate_sql(&intent).contains("d.stationarity < 0.4"));
    }

    #[test]
    fn gibberish_is_rejected_with_hint() {
        match parse_question("purple elephants dancing", &lexicon()) {
            Err(QaError::UnparsableQuestion { hint, .. }) => {
                assert!(hint.contains("top methods"));
            }
            other => panic!("expected unparsable, got {other:?}"),
        }
        assert!(parse_question("", &lexicon()).is_err());
    }

    #[test]
    fn sql_escapes_string_literals() {
        let intent = Intent {
            kind: IntentKind::MethodInfo { name: "o'brien".into() },
            ..Intent::default()
        };
        assert!(generate_sql(&intent).contains("'o''brien'"));
    }

    #[test]
    fn parses_worst_methods() {
        let (intent, _) =
            parse_question("Which 3 methods struggle most on web data by smape?", &lexicon())
                .unwrap();
        assert_eq!(intent.kind, IntentKind::WorstMethods);
        let sql = generate_sql(&intent);
        assert!(sql.contains("ORDER BY mean_smape DESC"), "{sql}");
        assert!(sql.contains("d.domain = 'web'"));
    }

    #[test]
    fn parses_method_profile() {
        let (intent, _) =
            parse_question("Where does theta perform best across domains?", &lexicon()).unwrap();
        assert_eq!(intent.kind, IntentKind::MethodProfile { name: "theta".into() });
        let sql = generate_sql(&intent);
        assert!(sql.contains("GROUP BY d.domain"), "{sql}");
        assert!(sql.contains("r.method = 'theta'"));

        let (p2, _) = parse_question("show the per domain breakdown for dlinear", &lexicon())
            .unwrap();
        assert_eq!(p2.kind, IntentKind::MethodProfile { name: "dlinear_32".into() });
    }

    #[test]
    fn r2_orders_descending() {
        let (intent, _) =
            parse_question("top 5 methods by r2 on web datasets", &lexicon()).unwrap();
        assert_eq!(intent.metric, "r2");
        let sql = generate_sql(&intent);
        assert!(sql.contains("ORDER BY mean_r2 DESC"));
    }
}
