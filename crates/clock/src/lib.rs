//! The workspace's single sanctioned wall-clock access point.
//!
//! Determinism policy (see `DESIGN.md`): library code must not read the
//! wall clock directly — `Instant::now()` / `SystemTime::now()` scattered
//! through crates make timing side effects untrackable and reports
//! irreproducible. Lint rule R8 (`wall-clock`) rejects direct reads
//! everywhere except this crate; everything else measures elapsed time
//! through [`Stopwatch`] or a [`Clock`].
//!
//! Keeping the chokepoint in one bottom-of-the-dependency-graph crate
//! means every crate (including `easytime-eval` and `easytime-obs`, which
//! `easytime` itself depends on) can use it without cycles. The virtual
//! clock that the original module doc promised now exists: [`ManualClock`]
//! provides deterministic, test-controlled time that flows through the
//! same [`Clock`] API as real time, so span-duration tests never sleep
//! and never flake.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A time source: either the real monotonic clock or a manually advanced
/// virtual clock for deterministic tests.
///
/// `Clock` is cheap to clone (the manual variant shares its state through
/// an `Arc`), and every reading is expressed as nanoseconds since the
/// clock's own origin — callers never see absolute wall-clock values.
#[derive(Debug, Clone)]
pub enum Clock {
    /// The process monotonic clock, measured from the instant the `Clock`
    /// value was created.
    System {
        /// Origin instant; readings are nanoseconds since this point.
        origin: Instant,
    },
    /// Virtual time shared with a [`ManualClock`]; advances only when the
    /// test says so.
    Manual {
        /// Shared nanosecond counter.
        nanos: Arc<AtomicU64>,
    },
}

impl Clock {
    /// A clock backed by the real monotonic clock, with its origin at the
    /// moment of this call.
    pub fn system() -> Clock {
        Clock::System { origin: Instant::now() }
    }

    /// Nanoseconds elapsed since this clock's origin.
    ///
    /// Saturates at `u64::MAX` (≈ 584 years) rather than wrapping.
    pub fn now_nanos(&self) -> u64 {
        match self {
            Clock::System { origin } => {
                u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Clock::Manual { nanos } => nanos.load(Ordering::SeqCst),
        }
    }

    /// Starts a [`Stopwatch`] reading from this clock.
    pub(crate) fn stopwatch(&self) -> Stopwatch {
        Stopwatch { clock: self.clone(), start_ns: self.now_nanos() }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::system()
    }
}

/// A manually advanced virtual clock for deterministic tests.
///
/// Handing [`ManualClock::clock`] to code under test lets a test assert
/// exact durations without sleeping:
///
/// ```
/// use easytime_clock::ManualClock;
///
/// let manual = ManualClock::new();
/// let clock = manual.clock();
/// manual.advance_millis(250);
/// assert_eq!(clock.now_nanos(), 250_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A virtual clock starting at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// A [`Clock`] view sharing this manual clock's time.
    pub fn clock(&self) -> Clock {
        Clock::Manual { nanos: Arc::clone(&self.nanos) }
    }

    /// Advances virtual time by `nanos` nanoseconds (saturating).
    pub fn advance_nanos(&self, nanos: u64) {
        let _ = self.nanos.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
            Some(t.saturating_add(nanos))
        });
    }

    /// Advances virtual time by `millis` milliseconds (saturating).
    pub fn advance_millis(&self, millis: u64) {
        self.advance_nanos(millis.saturating_mul(1_000_000));
    }

    /// Advances virtual time by a [`Duration`] (saturating).
    pub fn advance(&self, by: Duration) {
        self.advance_nanos(u64::try_from(by.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Current virtual time in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

/// A started timer for measuring elapsed time against a [`Clock`].
///
/// ```
/// let sw = easytime_clock::Stopwatch::start();
/// let _work = (0..1000).sum::<u64>();
/// assert!(sw.elapsed_ms() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Stopwatch {
    clock: Clock,
    start_ns: u64,
}

impl Stopwatch {
    /// Starts a new timer on the real monotonic clock.
    pub fn start() -> Stopwatch {
        Clock::system().stopwatch()
    }

    /// Elapsed nanoseconds since the stopwatch started (saturating at 0
    /// if a manual clock's shared counter was set backwards).
    fn elapsed_nanos(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start_ns)
    }

    /// Time elapsed since the stopwatch started.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos())
    }

    /// Elapsed time in fractional milliseconds — the unit every EasyTime
    /// report and latency field uses.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_ms() >= 0.0);
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let manual = ManualClock::new();
        let sw = manual.clock().stopwatch();
        assert_eq!(sw.elapsed_nanos(), 0);
        manual.advance_nanos(1_500);
        assert_eq!(sw.elapsed_nanos(), 1_500);
        manual.advance_millis(2);
        assert_eq!(sw.elapsed_nanos(), 2_001_500);
        assert_eq!(sw.elapsed(), Duration::from_nanos(2_001_500));
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let manual = ManualClock::new();
        let a = manual.clock();
        let b = manual.clock();
        manual.advance(Duration::from_secs(3));
        assert_eq!(a.now_nanos(), b.now_nanos());
        assert_eq!(a.now_nanos(), 3_000_000_000);
    }

    #[test]
    fn stopwatch_on_rewound_manual_clock_saturates_at_zero() {
        let nanos = Arc::new(AtomicU64::new(5_000));
        let sw = Clock::Manual { nanos: Arc::clone(&nanos) }.stopwatch();
        nanos.store(1_000, Ordering::SeqCst);
        assert_eq!(sw.elapsed_nanos(), 0);
    }

    #[test]
    fn system_clock_advances() {
        let clock = Clock::system();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}
