//! Reporting layer: run logs, leaderboards, and table rendering.
//!
//! Stands in for TFB's reporting layer ("a logging system for tracking
//! experimental information and … visualization of time series inputs and
//! forecasting results", §II-A) and the result panels of the web frontend
//! (Figure 4, labels 9–10). [`RunLog`] accumulates [`EvalRecord`]s;
//! [`Leaderboard`] aggregates them into per-method rankings; both render as
//! fixed-width ASCII tables suitable for terminals and logs.

use crate::pipeline::EvalRecord;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Thread-safe accumulator of evaluation records.
#[derive(Debug, Default)]
pub struct RunLog {
    records: Mutex<Vec<EvalRecord>>,
}

impl RunLog {
    /// Creates an empty log.
    pub fn new() -> RunLog {
        RunLog::default()
    }

    /// Lock guard; a poisoned lock is recovered rather than propagated —
    /// records are append-only values, so no invariant can be torn.
    fn guard(&self) -> MutexGuard<'_, Vec<EvalRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record.
    pub fn push(&self, record: EvalRecord) {
        self.guard().push(record);
    }

    /// Appends many records.
    pub fn extend(&self, records: impl IntoIterator<Item = EvalRecord>) {
        self.guard().extend(records);
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<EvalRecord> {
        self.guard().clone()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.guard().is_empty()
    }

    /// Number of failed records.
    pub fn failures(&self) -> usize {
        self.guard().iter().filter(|r| !r.is_ok()).count()
    }

    /// Number of failed records of one [`FailureKind`] — typed filtering,
    /// no error-string matching (test diagnostics).
    #[cfg(test)]
    pub(crate) fn failures_of(&self, kind: crate::pipeline::FailureKind) -> usize {
        self.guard().iter().filter(|r| r.failure_kind() == Some(kind)).count()
    }

    /// Builds the leaderboard for one metric.
    pub fn leaderboard(&self, metric: &str, lower_is_better: bool) -> Leaderboard {
        Leaderboard::from_records(&self.guard(), metric, lower_is_better)
    }

    /// Renders the raw records as an ASCII table (one row per record).
    pub fn render_table(&self, metrics: &[&str]) -> String {
        let records = self.guard();
        let mut header: Vec<String> =
            vec!["dataset".into(), "method".into(), "strategy".into(), "h".into()];
        header.extend(metrics.iter().map(|m| m.to_string()));
        header.push("status".into());

        let rows: Vec<Vec<String>> = records
            .iter()
            .map(|r| {
                let mut row = vec![
                    r.dataset_id.clone(),
                    r.method.clone(),
                    r.strategy.clone(),
                    r.horizon.to_string(),
                ];
                for m in metrics {
                    row.push(format_score(r.score(m)));
                }
                row.push(r.error.as_ref().map_or_else(|| "ok".into(), |e| truncate(&e.detail, 28)));
                row
            })
            .collect();
        render_ascii(&header, &rows)
    }
}

/// Aggregated per-method standings for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Metric the board ranks by.
    pub metric: String,
    /// `(method, mean score, mean rank, wins, datasets evaluated)`,
    /// best method first.
    pub rows: Vec<LeaderboardRow>,
}

/// One method's aggregate standing.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// Canonical method name.
    pub method: String,
    /// Mean metric value over datasets where the method succeeded.
    pub mean_score: f64,
    /// Mean rank across datasets (1 = best on that dataset).
    pub mean_rank: f64,
    /// Number of datasets where this method ranked first.
    pub wins: usize,
    /// Number of datasets with a finite score.
    pub datasets: usize,
}

impl Leaderboard {
    /// Builds a leaderboard from raw records for `metric`.
    pub fn from_records(records: &[EvalRecord], metric: &str, lower_is_better: bool) -> Leaderboard {
        // Group scores by dataset, then rank methods within each dataset.
        let mut by_dataset: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
        for r in records {
            let v = r.score(metric);
            // Typed failure filter: any categorized failure excludes the
            // record, without inspecting error prose.
            if r.failure_kind().is_none() && v.is_finite() {
                by_dataset.entry(&r.dataset_id).or_default().push((&r.method, v));
            }
        }

        #[derive(Default)]
        struct Acc {
            score_sum: f64,
            rank_sum: f64,
            wins: usize,
            n: usize,
        }
        let mut accs: BTreeMap<&str, Acc> = BTreeMap::new();
        for entries in by_dataset.values() {
            let mut sorted: Vec<&(&str, f64)> = entries.iter().collect();
            sorted.sort_by(|a, b| {
                let ord = a.1.total_cmp(&b.1);
                if lower_is_better {
                    ord
                } else {
                    ord.reverse()
                }
            });
            for (rank, (method, score)) in sorted.iter().enumerate() {
                let acc = accs.entry(method).or_default();
                acc.score_sum += score;
                acc.rank_sum += (rank + 1) as f64;
                acc.n += 1;
                if rank == 0 {
                    acc.wins += 1;
                }
            }
        }

        let mut rows: Vec<LeaderboardRow> = accs
            .into_iter()
            .map(|(method, a)| LeaderboardRow {
                method: method.to_string(),
                mean_score: a.score_sum / a.n as f64,
                mean_rank: a.rank_sum / a.n as f64,
                wins: a.wins,
                datasets: a.n,
            })
            .collect();
        rows.sort_by(|a, b| {
            a.mean_rank.total_cmp(&b.mean_rank)
        });
        Leaderboard { metric: metric.to_string(), rows }
    }

    /// The best-ranked method, if any records existed.
    pub fn winner(&self) -> Option<&LeaderboardRow> {
        self.rows.first()
    }

    /// Renders the board as an ASCII table.
    pub fn render(&self) -> String {
        let header = vec![
            "rank".to_string(),
            "method".to_string(),
            format!("mean_{}", self.metric),
            "mean_rank".to_string(),
            "wins".to_string(),
            "datasets".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                vec![
                    (i + 1).to_string(),
                    r.method.clone(),
                    format_score(r.mean_score),
                    format!("{:.2}", r.mean_rank),
                    r.wins.to_string(),
                    r.datasets.to_string(),
                ]
            })
            .collect();
        render_ascii(&header, &rows)
    }
}

/// Formats a score compactly, keeping tables aligned.
fn format_score(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v.abs() >= 1e5 || (v != 0.0 && v.abs() < 1e-3) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
    }
}

/// Renders a fixed-width ASCII table.
fn render_ascii(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
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
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            out.push_str("| ");
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', w - cell.len() + 1));
        }
        out.push_str("|\n");
    };
    sep(&mut out);
    render_row(&mut out, header);
    sep(&mut out);
    for row in rows {
        render_row(&mut out, row);
    }
    sep(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FailureKind;

    fn record(dataset: &str, method: &str, mae: f64) -> EvalRecord {
        let mut scores = BTreeMap::new();
        scores.insert("mae".to_string(), mae);
        EvalRecord {
            dataset_id: dataset.into(),
            method: method.into(),
            family: "statistical".into(),
            strategy: "fixed".into(),
            horizon: 12,
            scores,
            windows: 1,
            runtime_ms: 1.0,
            error: None,
        }
    }

    #[test]
    fn log_accumulates_and_counts_failures() {
        let log = RunLog::new();
        assert!(log.is_empty());
        log.push(record("a", "naive", 1.0));
        let mut failed = record("a", "arima_111", f64::NAN);
        failed.error = Some(crate::pipeline::EvalFailure {
            kind: FailureKind::DataTooShort,
            detail: "too short".into(),
        });
        log.push(failed);
        assert_eq!(log.len(), 2);
        assert_eq!(log.failures(), 1);
        assert_eq!(log.failures_of(FailureKind::DataTooShort), 1);
        assert_eq!(log.failures_of(FailureKind::ModelDiverged), 0);
    }

    #[test]
    fn leaderboard_ranks_by_mean_rank() {
        let records = vec![
            record("d1", "a", 1.0),
            record("d1", "b", 2.0),
            record("d2", "a", 1.0),
            record("d2", "b", 0.5),
            record("d3", "a", 1.0),
            record("d3", "b", 3.0),
        ];
        let board = Leaderboard::from_records(&records, "mae", true);
        assert_eq!(board.rows.len(), 2);
        let winner = board.winner().unwrap();
        assert_eq!(winner.method, "a");
        assert_eq!(winner.wins, 2);
        assert_eq!(winner.datasets, 3);
        assert!((winner.mean_rank - 4.0 / 3.0).abs() < 1e-12);
        let b = &board.rows[1];
        assert_eq!(b.wins, 1);
        assert!((b.mean_score - 5.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn leaderboard_respects_direction() {
        let mut r1 = record("d", "low", 0.1);
        r1.scores.insert("r2".into(), 0.2);
        let mut r2 = record("d", "high", 0.9);
        r2.scores.insert("r2".into(), 0.9);
        let board = Leaderboard::from_records(&[r1, r2], "r2", false);
        assert_eq!(board.winner().unwrap().method, "high");
    }

    #[test]
    fn failed_and_nan_records_are_excluded() {
        let mut bad = record("d1", "broken", f64::NAN);
        bad.error = Some(crate::pipeline::EvalFailure {
            kind: FailureKind::Other,
            detail: "boom".into(),
        });
        let records = vec![record("d1", "ok", 1.0), bad];
        let board = Leaderboard::from_records(&records, "mae", true);
        assert_eq!(board.rows.len(), 1);
        assert_eq!(board.rows[0].method, "ok");
    }

    #[test]
    fn tables_render_with_alignment() {
        let log = RunLog::new();
        log.push(record("dataset_with_long_name", "naive", 1.2345));
        let table = log.render_table(&["mae", "rmse"]);
        assert!(table.contains("dataset_with_long_name"));
        assert!(table.contains("| mae"));
        assert!(table.contains("1.2345"));
        assert!(table.contains("ok"));
        // Missing metric renders as '-'.
        assert!(table.contains(" - "));
        // Every line has equal width.
        let widths: Vec<usize> = table.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "ragged table:\n{table}");

        let board = Leaderboard::from_records(&log.records(), "mae", true);
        let rendered = board.render();
        assert!(rendered.contains("mean_mae"));
        assert!(rendered.contains("naive"));
    }

    #[test]
    fn score_formatting_is_compact() {
        assert_eq!(format_score(f64::NAN), "-");
        assert_eq!(format_score(1.5), "1.5000");
        assert_eq!(format_score(123456.0), "1.235e5");
        assert_eq!(format_score(0.0001), "1.000e-4");
        assert_eq!(format_score(0.0), "0.0000");
    }
}
