//! Dataset wrapper types and meta-information.
//!
//! A [`Dataset`] bundles series data with the meta-information TFB's
//! *benchmark knowledge* keeps about every dataset: domain, size, frequency,
//! and the six measured characteristics. These records are what the
//! knowledge database, the recommender's training corpus, and the Q&A module
//! all consume.

use crate::characteristics::{self, Characteristics};
use crate::series::{Frequency, MultiSeries, TimeSeries};

/// The ten application domains of the TFB corpus (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Road and network traffic volumes.
    Traffic,
    /// Electricity consumption.
    Electricity,
    /// Energy production (solar, wind).
    Energy,
    /// Environmental measurements (air quality, emissions).
    Environment,
    /// Natural phenomena (temperature, river flow).
    Nature,
    /// Macro-economic indicators.
    Economic,
    /// Stock-market prices.
    Stock,
    /// Banking activity.
    Banking,
    /// Health and epidemiological counts.
    Health,
    /// Web traffic and cloud metrics.
    Web,
}

impl Domain {
    /// All ten domains in canonical order.
    pub const ALL: [Domain; 10] = [
        Domain::Traffic,
        Domain::Electricity,
        Domain::Energy,
        Domain::Environment,
        Domain::Nature,
        Domain::Economic,
        Domain::Stock,
        Domain::Banking,
        Domain::Health,
        Domain::Web,
    ];

    /// Canonical lowercase name (used in the knowledge database).
    pub fn name(self) -> &'static str {
        match self {
            Domain::Traffic => "traffic",
            Domain::Electricity => "electricity",
            Domain::Energy => "energy",
            Domain::Environment => "environment",
            Domain::Nature => "nature",
            Domain::Economic => "economic",
            Domain::Stock => "stock",
            Domain::Banking => "banking",
            Domain::Health => "health",
            Domain::Web => "web",
        }
    }

    /// Parses a domain from its canonical name.
    pub fn parse(s: &str) -> Option<Domain> {
        Domain::ALL.iter().copied().find(|d| d.name() == s.trim().to_ascii_lowercase())
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Meta-information stored for every dataset in the benchmark knowledge.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Unique dataset id, e.g. `"traffic_0007"`.
    pub id: String,
    /// Application domain.
    pub domain: Domain,
    /// Number of time steps.
    pub length: usize,
    /// Sampling frequency.
    pub frequency: Frequency,
    /// Number of channels (1 for univariate).
    pub channels: usize,
    /// Measured characteristics.
    pub characteristics: Characteristics,
}

impl DatasetMeta {
    /// True when the dataset has more than one channel.
    pub fn is_multivariate(&self) -> bool {
        self.channels > 1
    }
}

/// Series payload of a dataset.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub enum SeriesData {
    /// A single-channel series.
    Univariate(TimeSeries),
    /// An aligned multi-channel series.
    Multivariate(MultiSeries),
}

/// A benchmark dataset: series data plus meta-information.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Meta-information record.
    pub meta: DatasetMeta,
    /// The series payload.
    pub data: SeriesData,
}

impl Dataset {
    /// Borrow the payload as univariate, if it is one (test assertions).
    #[cfg(test)]
    pub(crate) fn as_univariate(&self) -> Option<&TimeSeries> {
        match &self.data {
            SeriesData::Univariate(ts) => Some(ts),
            SeriesData::Multivariate(_) => None,
        }
    }

    /// Wraps a univariate series, measuring its characteristics.
    pub fn from_univariate(id: impl Into<String>, domain: Domain, series: TimeSeries) -> Dataset {
        let ch = characteristics::extract(&series);
        let meta = DatasetMeta {
            id: id.into(),
            domain,
            length: series.len(),
            frequency: series.frequency(),
            channels: 1,
            characteristics: ch,
        };
        Dataset { meta, data: SeriesData::Univariate(series) }
    }

    /// Wraps a multivariate series, measuring its characteristics.
    pub fn from_multivariate(id: impl Into<String>, domain: Domain, series: MultiSeries) -> Dataset {
        let ch = characteristics::extract_multi(&series);
        let meta = DatasetMeta {
            id: id.into(),
            domain,
            length: series.len(),
            frequency: series.frequency(),
            channels: series.num_channels(),
            characteristics: ch,
        };
        Dataset { meta, data: SeriesData::Multivariate(series) }
    }

    /// Borrow the payload as multivariate, if it is one.
    pub fn as_multivariate(&self) -> Option<&MultiSeries> {
        match &self.data {
            SeriesData::Multivariate(ms) => Some(ms),
            SeriesData::Univariate(_) => None,
        }
    }

    /// Returns the primary univariate view: the series itself, or the first
    /// channel of a multivariate dataset.
    #[expect(
        clippy::expect_used,
        reason = "MultiSeries construction rejects zero-channel data, so channel 0 always exists"
    )]
    pub fn primary_series(&self) -> TimeSeries {
        match &self.data {
            SeriesData::Univariate(ts) => ts.clone(),
            SeriesData::Multivariate(ms) => {
                ms.to_univariate(0).expect("MultiSeries always has a channel 0")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn domain_names_round_trip() {
        for d in Domain::ALL {
            assert_eq!(Domain::parse(d.name()), Some(d));
        }
        assert_eq!(Domain::parse("Traffic "), Some(Domain::Traffic));
        assert_eq!(Domain::parse("space"), None);
        assert_eq!(Domain::Electricity.to_string(), "electricity");
    }

    #[test]
    fn univariate_dataset_measures_characteristics() {
        let xs: Vec<f64> =
            (0..120).map(|t| 3.0 * (2.0 * PI * t as f64 / 12.0).sin() + 10.0).collect();
        let ts = TimeSeries::new("s", xs, Frequency::Monthly).unwrap();
        let ds = Dataset::from_univariate("m_001", Domain::Economic, ts);
        assert_eq!(ds.meta.channels, 1);
        assert!(!ds.meta.is_multivariate());
        assert_eq!(ds.meta.length, 120);
        assert!(ds.meta.characteristics.seasonality > 0.8);
        assert!(ds.as_univariate().is_some());
        assert!(ds.as_multivariate().is_none());
        assert_eq!(ds.primary_series().len(), 120);
    }

    #[test]
    fn multivariate_dataset_measures_correlation() {
        let a: Vec<f64> = (0..100).map(|t| (t as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x).collect();
        let ms = MultiSeries::new(
            "grid",
            vec!["x".into(), "y".into()],
            vec![a, b],
            Frequency::Hourly,
        )
        .unwrap();
        let ds = Dataset::from_multivariate("e_01", Domain::Electricity, ms);
        assert!(ds.meta.is_multivariate());
        assert_eq!(ds.meta.channels, 2);
        assert!(ds.meta.characteristics.correlation > 0.9);
        assert_eq!(ds.primary_series().name(), "grid/x");
    }
}
