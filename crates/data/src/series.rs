//! Core time-series value types.
//!
//! [`TimeSeries`] is the univariate workhorse used by every forecaster;
//! [`MultiSeries`] carries aligned channels for the multivariate datasets and
//! the Correlation characteristic. Both validate their data eagerly so that
//! downstream numerical code can assume finite values.

use crate::error::DataError;

/// Sampling frequency of a series.
///
/// The frequency provides the *default seasonal period* used by seasonal
/// models and by the characteristic extractor when no period is detectable
/// from the data itself, mirroring how TFB datasets carry frequency
/// meta-information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frequency {
    /// One observation per hour (default period 24).
    Hourly,
    /// One observation per day (default period 7).
    Daily,
    /// One observation per week (default period 52).
    Weekly,
    /// One observation per month (default period 12).
    Monthly,
    /// One observation per quarter (default period 4).
    Quarterly,
    /// One observation per year (no default period).
    Yearly,
    /// Unknown cadence (no default period).
    Unknown,
}

impl Frequency {
    /// The conventional seasonal period for this frequency, if any.
    pub fn default_period(self) -> Option<usize> {
        match self {
            Frequency::Hourly => Some(24),
            Frequency::Daily => Some(7),
            Frequency::Weekly => Some(52),
            Frequency::Monthly => Some(12),
            Frequency::Quarterly => Some(4),
            Frequency::Yearly | Frequency::Unknown => None,
        }
    }

    /// Canonical lowercase name, stable across releases (used in the
    /// benchmark-knowledge database and config files).
    pub fn name(self) -> &'static str {
        match self {
            Frequency::Hourly => "hourly",
            Frequency::Daily => "daily",
            Frequency::Weekly => "weekly",
            Frequency::Monthly => "monthly",
            Frequency::Quarterly => "quarterly",
            Frequency::Yearly => "yearly",
            Frequency::Unknown => "unknown",
        }
    }

    /// Parses a [`Frequency`] from its canonical name.
    pub fn parse(s: &str) -> Option<Frequency> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hourly" | "h" => Some(Frequency::Hourly),
            "daily" | "d" => Some(Frequency::Daily),
            "weekly" | "w" => Some(Frequency::Weekly),
            "monthly" | "m" => Some(Frequency::Monthly),
            "quarterly" | "q" => Some(Frequency::Quarterly),
            "yearly" | "y" | "annual" => Some(Frequency::Yearly),
            "unknown" => Some(Frequency::Unknown),
            _ => None,
        }
    }
}

/// A named univariate time series with finite `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
    frequency: Frequency,
}

impl TimeSeries {
    /// Returns a copy renamed to `name` (test fixtures).
    #[cfg(test)]
    pub(crate) fn renamed(&self, name: impl Into<String>) -> TimeSeries {
        TimeSeries { name: name.into(), values: self.values.clone(), frequency: self.frequency }
    }

    /// Creates a series after validating that it is non-empty and finite.
    pub fn new(
        name: impl Into<String>,
        values: Vec<f64>,
        frequency: Frequency,
    ) -> Result<Self, DataError> {
        let name = name.into();
        if values.is_empty() {
            return Err(DataError::EmptySeries { name });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(DataError::NonFiniteValue { name, index });
        }
        Ok(Self { name, values, frequency })
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Observations, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sampling frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false by construction, provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Last observation.
    #[expect(
        clippy::expect_used,
        reason = "the constructor rejects empty value vectors, so a TimeSeries always has a \
                  last observation"
    )]
    pub fn last(&self) -> f64 {
        *self.values.last().expect("TimeSeries is never empty")
    }

    /// Returns a new series holding `values[range]`, preserving name and
    /// frequency.
    pub fn slice(&self, start: usize, end: usize) -> Result<TimeSeries, DataError> {
        if start >= end || end > self.values.len() {
            return Err(DataError::InvalidSplit {
                reason: format!(
                    "slice {start}..{end} out of bounds for series of length {}",
                    self.values.len()
                ),
            });
        }
        Ok(TimeSeries {
            name: self.name.clone(),
            values: self.values[start..end].to_vec(),
            frequency: self.frequency,
        })
    }

    /// Returns a copy with different values but the same identity; used by
    /// scalers and differencing transforms.
    pub fn with_values(&self, values: Vec<f64>) -> Result<TimeSeries, DataError> {
        TimeSeries::new(self.name.clone(), values, self.frequency)
    }

    /// Replaces this series' observations in place, reusing the existing
    /// allocation (the rolling-evaluation hot loop recycles one carrier
    /// series per job). Validates like [`TimeSeries::new`] — and validates
    /// *before* mutating, so a failed assignment leaves the series intact.
    pub fn assign_values(&mut self, values: &[f64]) -> Result<(), DataError> {
        if values.is_empty() {
            return Err(DataError::EmptySeries { name: self.name.clone() });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(DataError::NonFiniteValue { name: self.name.clone(), index });
        }
        self.values.clear();
        self.values.extend_from_slice(values);
        Ok(())
    }

}

/// A named multivariate series: aligned channels of equal length.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeries {
    name: String,
    channel_names: Vec<String>,
    channels: Vec<Vec<f64>>,
    frequency: Frequency,
}

impl MultiSeries {
    /// Creates a multivariate series after validating alignment and
    /// finiteness.
    pub fn new(
        name: impl Into<String>,
        channel_names: Vec<String>,
        channels: Vec<Vec<f64>>,
        frequency: Frequency,
    ) -> Result<Self, DataError> {
        let name = name.into();
        if channels.is_empty() || channels[0].is_empty() {
            return Err(DataError::EmptySeries { name });
        }
        if channel_names.len() != channels.len() {
            return Err(DataError::RaggedChannels {
                expected: channels.len(),
                found: channel_names.len(),
            });
        }
        let len = channels[0].len();
        for ch in &channels {
            if ch.len() != len {
                return Err(DataError::RaggedChannels { expected: len, found: ch.len() });
            }
            if let Some(index) = ch.iter().position(|v| !v.is_finite()) {
                return Err(DataError::NonFiniteValue { name, index });
            }
        }
        Ok(Self { name, channel_names, channels, frequency })
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of aligned time steps.
    pub fn len(&self) -> usize {
        self.channels[0].len()
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Number of channels (variables).
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Channel values by index.
    pub fn channel(&self, i: usize) -> &[f64] {
        &self.channels[i]
    }

    /// Channel names, aligned with channel indices.
    pub fn channel_names(&self) -> &[String] {
        &self.channel_names
    }

    /// Sampling frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Extracts one channel as a standalone [`TimeSeries`].
    pub fn to_univariate(&self, i: usize) -> Result<TimeSeries, DataError> {
        if i >= self.channels.len() {
            return Err(DataError::UnknownDataset {
                id: format!("{}[{}]", self.name, i),
            });
        }
        TimeSeries::new(
            format!("{}/{}", self.name, self.channel_names[i]),
            self.channels[i].clone(),
            self.frequency,
        )
    }

    /// Returns a new multivariate series holding rows `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> Result<MultiSeries, DataError> {
        if start >= end || end > self.len() {
            return Err(DataError::InvalidSplit {
                reason: format!("slice {start}..{end} out of bounds for length {}", self.len()),
            });
        }
        let channels = self.channels.iter().map(|c| c[start..end].to_vec()).collect();
        MultiSeries::new(self.name.clone(), self.channel_names.clone(), channels, self.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_periods_and_names_round_trip() {
        for f in [
            Frequency::Hourly,
            Frequency::Daily,
            Frequency::Weekly,
            Frequency::Monthly,
            Frequency::Quarterly,
            Frequency::Yearly,
            Frequency::Unknown,
        ] {
            assert_eq!(Frequency::parse(f.name()), Some(f));
        }
        assert_eq!(Frequency::Hourly.default_period(), Some(24));
        assert_eq!(Frequency::Monthly.default_period(), Some(12));
        assert_eq!(Frequency::Yearly.default_period(), None);
        assert_eq!(Frequency::parse("H"), Some(Frequency::Hourly));
        assert_eq!(Frequency::parse("fortnightly"), None);
    }

    #[test]
    fn series_rejects_empty_and_non_finite() {
        assert!(matches!(
            TimeSeries::new("a", vec![], Frequency::Daily),
            Err(DataError::EmptySeries { .. })
        ));
        let err = TimeSeries::new("a", vec![1.0, f64::NAN], Frequency::Daily);
        assert!(matches!(err, Err(DataError::NonFiniteValue { index: 1, .. })));
        let err = TimeSeries::new("a", vec![f64::INFINITY], Frequency::Daily);
        assert!(matches!(err, Err(DataError::NonFiniteValue { index: 0, .. })));
    }

    #[test]
    fn series_slicing() {
        let ts = TimeSeries::new("s", vec![1.0, 2.0, 3.0, 4.0], Frequency::Daily).unwrap();
        let mid = ts.slice(1, 3).unwrap();
        assert_eq!(mid.values(), &[2.0, 3.0]);
        assert_eq!(mid.name(), "s");
        assert!(ts.slice(2, 2).is_err());
        assert!(ts.slice(0, 5).is_err());
        assert_eq!(ts.last(), 4.0);
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn multiseries_validates_alignment() {
        let ok = MultiSeries::new(
            "m",
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            Frequency::Hourly,
        );
        assert!(ok.is_ok());
        let ragged = MultiSeries::new(
            "m",
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![3.0]],
            Frequency::Hourly,
        );
        assert!(matches!(ragged, Err(DataError::RaggedChannels { expected: 2, found: 1 })));
        let misnamed = MultiSeries::new(
            "m",
            vec!["a".into()],
            vec![vec![1.0], vec![2.0]],
            Frequency::Hourly,
        );
        assert!(matches!(misnamed, Err(DataError::RaggedChannels { .. })));
    }

    #[test]
    fn multiseries_channel_extraction_and_slice() {
        let m = MultiSeries::new(
            "grid",
            vec!["load".into(), "temp".into()],
            vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]],
            Frequency::Hourly,
        )
        .unwrap();
        let u = m.to_univariate(1).unwrap();
        assert_eq!(u.name(), "grid/temp");
        assert_eq!(u.values(), &[10.0, 20.0, 30.0]);
        assert!(m.to_univariate(2).is_err());

        let s = m.slice(1, 3).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.channel(0), &[2.0, 3.0]);
        assert_eq!(m.num_channels(), 2);
    }

    #[test]
    fn with_values_preserves_identity() {
        let ts = TimeSeries::new("s", vec![1.0, 2.0], Frequency::Monthly).unwrap();
        let t2 = ts.with_values(vec![5.0, 6.0, 7.0]).unwrap();
        assert_eq!(t2.name(), "s");
        assert_eq!(t2.frequency(), Frequency::Monthly);
        assert_eq!(t2.len(), 3);
        assert!(ts.with_values(vec![f64::NAN]).is_err());
        assert_eq!(ts.renamed("other").name(), "other");
    }
}
