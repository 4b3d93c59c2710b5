//! Property-style tests for the Q&A module, driven by the workspace's own
//! deterministic RNG. The headline property mirrors the paper's
//! verification guarantee: **every SQL statement the NL2SQL generator can
//! emit passes schema verification and executes** against the knowledge
//! schema.

use easytime_db::knowledge::create_knowledge_schema;
use easytime_db::Database;
use easytime_qa::intent::{CharacteristicFilter, HorizonClass, Intent, IntentKind};
use easytime_qa::nl2sql::{generate_sql, parse_question, Lexicon};
use easytime_rng::StdRng;

const CASES: u64 = 64;
const MASTER_SEED: u64 = 0x9A5E_ED01;

fn cases() -> impl Iterator<Item = StdRng> {
    (0..CASES).map(|i| StdRng::seed_from_u64(MASTER_SEED).derive(i))
}

fn knowledge_db() -> Database {
    let mut db = Database::new();
    create_knowledge_schema(&mut db).unwrap();
    db
}

fn word(rng: &mut StdRng, alphabet: &[u8], lo: usize, hi: usize) -> String {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char).collect()
}

fn ident(rng: &mut StdRng) -> String {
    word(rng, b"abcdefghijklmnopqrstuvwxyz_", 1, 13)
}

fn name_with_quote(rng: &mut StdRng) -> String {
    word(rng, b"abcdefghijklmnopqrstuvwxyz_'", 1, 13)
}

fn any_kind(rng: &mut StdRng) -> IntentKind {
    match rng.gen_range(0..9) {
        0 => IntentKind::TopMethods,
        1 => IntentKind::CompareMethods { a: ident(rng), b: ident(rng) },
        2 => IntentKind::CountDatasets,
        3 => IntentKind::CountMethods,
        4 => IntentKind::ListDomains,
        5 => IntentKind::MethodInfo { name: name_with_quote(rng) },
        6 => IntentKind::FastestMethods,
        7 => IntentKind::WorstMethods,
        _ => IntentKind::MethodProfile { name: name_with_quote(rng) },
    }
}

fn any_horizon(rng: &mut StdRng) -> Option<HorizonClass> {
    match rng.gen_range(0..4) {
        0 => None,
        1 => Some(HorizonClass::Short),
        2 => Some(HorizonClass::Long),
        _ => Some(HorizonClass::Exact(rng.gen_range(1..512))),
    }
}

fn any_characteristics(rng: &mut StdRng) -> Vec<CharacteristicFilter> {
    const COLS: [&str; 6] =
        ["seasonality", "trend", "transition", "shifting", "stationarity", "correlation"];
    (0..rng.gen_range(0..3))
        .map(|_| CharacteristicFilter {
            column: COLS[rng.gen_range(0..COLS.len())].into(),
            strong: rng.gen_bool(0.5),
        })
        .collect()
}

fn any_intent(rng: &mut StdRng) -> Intent {
    const METRICS: [&str; 6] = ["mae", "mse", "rmse", "smape", "mase", "r2"];
    const STRATEGIES: [&str; 2] = ["fixed", "rolling"];
    const FAMILIES: [&str; 3] = ["statistical", "machine_learning", "deep_learning"];
    Intent {
        kind: any_kind(rng),
        metric: METRICS[rng.gen_range(0..METRICS.len())].into(),
        top_n: rng.gen_range(1..20),
        horizon: any_horizon(rng),
        domain: rng
            .gen_bool(0.5)
            .then(|| word(rng, b"abcdefghijklmnopqrstuvwxyz", 3, 11)),
        characteristics: any_characteristics(rng),
        multivariate: rng.gen_bool(0.5).then(|| rng.gen_bool(0.5)),
        strategy: rng.gen_bool(0.5).then(|| STRATEGIES[rng.gen_range(0..2)].to_string()),
        family: rng.gen_bool(0.5).then(|| FAMILIES[rng.gen_range(0..3)].to_string()),
    }
}

/// The paper's two-step guarantee, as a machine-checked property: whatever
/// intent the parser produces, the generated SQL verifies and executes
/// against the knowledge schema.
#[test]
fn every_generated_sql_verifies_and_executes() {
    for mut rng in cases() {
        let intent = any_intent(&mut rng);
        let db = knowledge_db();
        let sql = generate_sql(&intent);
        let result = db.query(&sql);
        assert!(result.is_ok(), "generated SQL failed: {sql}\nerror: {:?}", result.err());
    }
}

/// Parsing never panics on arbitrary input; it either produces an intent
/// or a clean error.
#[test]
fn parser_is_total_on_arbitrary_text() {
    for mut rng in cases() {
        let len = rng.gen_range(0..80);
        let question: String =
            (0..len).map(|_| (b' ' + rng.gen_range(0..95) as u8) as char).collect();
        let lexicon = Lexicon {
            methods: vec!["naive".into(), "theta".into(), "seasonal_naive".into()],
            domains: vec!["web".into(), "traffic".into()],
        };
        let _ = parse_question(&question, &lexicon);
    }
}

/// Questions that do parse always yield SQL that verifies against the
/// schema — the end-to-end totality of the Figure-3 path.
#[test]
fn parsed_questions_yield_executable_sql() {
    const METRICS: [&str; 4] = ["mae", "rmse", "smape", "mase"];
    const DOMAINS: [&str; 3] = ["web", "traffic", "nature"];
    for mut rng in cases() {
        let n = rng.gen_range(1..12);
        let metric = METRICS[rng.gen_range(0..METRICS.len())];
        let domain = DOMAINS[rng.gen_range(0..DOMAINS.len())];
        let long = rng.gen_bool(0.5);
        let lexicon = Lexicon {
            methods: vec!["naive".into(), "theta".into()],
            domains: vec!["web".into(), "traffic".into(), "nature".into()],
        };
        let horizon = if long { "long-term" } else { "short-term" };
        let question =
            format!("top {n} methods by {metric} for {horizon} forecasting on {domain} data");
        let (intent, _) = parse_question(&question, &lexicon).unwrap();
        assert_eq!(intent.top_n, n);
        assert_eq!(intent.metric.as_str(), metric);
        assert_eq!(intent.domain.as_deref(), Some(domain));
        let db = knowledge_db();
        assert!(db.query(&generate_sql(&intent)).is_ok());
    }
}

/// Method names never set characteristic filters. In "compare seasonal
/// naive and drift by smape on web data" the tokens of `seasonal_naive`
/// (and likewise `seasonal_avg`, `linear_trend`) belong to the method, so
/// no seasonality or trend filter appears; the same stems outside a method
/// name ("seasonal data", "strong trend") still filter.
#[test]
fn method_names_set_no_characteristic_filter() {
    const METHODS: [(&str, &str); 5] = [
        ("seasonal naive", "seasonal_naive"),
        ("seasonal avg", "seasonal_avg"),
        ("linear trend", "linear_trend"),
        ("drift", "drift"),
        ("theta", "theta"),
    ];
    const METRICS: [&str; 4] = ["mae", "rmse", "smape", "mase"];
    const DATA: [(&str, Option<&str>); 3] =
        [("web", None), ("seasonal", Some("seasonality")), ("strong trend", Some("trend"))];
    let lexicon = Lexicon {
        methods: METHODS.iter().map(|(_, m)| m.to_string()).chain(["naive".into()]).collect(),
        domains: vec!["web".into(), "traffic".into()],
    };
    for mut rng in cases() {
        let a = rng.gen_range(0..METHODS.len());
        let b = (a + rng.gen_range(1..METHODS.len())) % METHODS.len();
        let metric = METRICS[rng.gen_range(0..METRICS.len())];
        let (data, filter) = DATA[rng.gen_range(0..DATA.len())];
        let question =
            format!("compare {} and {} by {metric} on {data} data", METHODS[a].0, METHODS[b].0);
        let (intent, _) = parse_question(&question, &lexicon).unwrap();
        assert_eq!(
            intent.kind,
            IntentKind::CompareMethods { a: METHODS[a].1.into(), b: METHODS[b].1.into() },
            "{question}"
        );
        let want: Vec<CharacteristicFilter> = filter
            .map(|column| CharacteristicFilter { column: column.into(), strong: true })
            .into_iter()
            .collect();
        assert_eq!(intent.characteristics, want, "{question}");
    }
}
