//! Timing and formatting helpers for the experiment runners.

use std::time::{Duration, Instant};

/// A measurement that may have been cut off by a deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timed {
    /// Completed within the deadline.
    Done(Duration),
    /// Still running when the deadline hit (value = the deadline).
    TimedOut(Duration),
}

impl Timed {
    /// The measured (or truncated) duration.
    pub fn duration(&self) -> Duration {
        match self {
            Timed::Done(d) | Timed::TimedOut(d) => *d,
        }
    }

    pub fn is_timeout(&self) -> bool {
        matches!(self, Timed::TimedOut(_))
    }

    /// Paper-style cell: `12.34` or `>60.00` seconds.
    pub fn cell(&self) -> String {
        match self {
            Timed::Done(d) => format!("{:.2}", d.as_secs_f64()),
            Timed::TimedOut(d) => format!(">{:.0}", d.as_secs_f64()),
        }
    }

    /// Speedup row entry relative to a reference duration.
    pub fn speedup_vs(&self, reference: Duration) -> String {
        let r = self.duration().as_secs_f64() / reference.as_secs_f64().max(1e-9);
        match self {
            Timed::Done(_) => format!("{r:.1}x"),
            Timed::TimedOut(_) => format!(">{r:.0}x"),
        }
    }
}

/// Runs `step` over `items`, checking the deadline every `check_every`
/// items. Returns the elapsed time, truncated if the deadline fired.
pub fn run_with_deadline<T>(
    items: &[T],
    deadline: Duration,
    check_every: usize,
    mut step: impl FnMut(&T),
) -> Timed {
    let start = Instant::now();
    for (i, item) in items.iter().enumerate() {
        step(item);
        if i % check_every.max(1) == 0 && start.elapsed() > deadline {
            return Timed::TimedOut(start.elapsed());
        }
    }
    Timed::Done(start.elapsed())
}

/// Mebibytes with one decimal.
pub fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). Returns `None` on platforms without procfs or
/// when the field is missing — callers report "n/a" rather than fail.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

/// Basic order statistics of a sample (written for printing CDFs).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    pub samples: Vec<f64>,
}

impl Stats {
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s
    }

    pub fn percentile(&self, p: f64) -> f64 {
        let s = self.sorted();
        if s.is_empty() {
            return f64::NAN;
        }
        let idx = ((p / 100.0) * (s.len() - 1) as f64).round() as usize;
        s[idx.min(s.len() - 1)]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.sorted().last().copied().unwrap_or(f64::NAN)
    }

    /// Fraction of samples ≤ x.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().filter(|&&v| v <= x).count() as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_cells() {
        assert_eq!(Timed::Done(Duration::from_millis(1234)).cell(), "1.23");
        assert_eq!(Timed::TimedOut(Duration::from_secs(60)).cell(), ">60");
        assert!(Timed::TimedOut(Duration::from_secs(60)).is_timeout());
    }

    #[test]
    fn deadline_truncates() {
        let items: Vec<u32> = (0..1_000_000).collect();
        let t = run_with_deadline(&items, Duration::from_millis(10), 100, |_| {
            std::thread::yield_now();
        });
        assert!(t.is_timeout());
    }

    #[test]
    fn deadline_completes_fast_work() {
        let items: Vec<u32> = (0..10).collect();
        let t = run_with_deadline(&items, Duration::from_secs(5), 1, |_| {});
        assert!(!t.is_timeout());
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // On Linux procfs is always there; elsewhere None is the contract.
        match peak_rss_bytes() {
            Some(b) => assert!(b > 1024 * 1024, "peak RSS below 1 MiB: {b}"),
            None => assert!(
                !std::path::Path::new("/proc/self/status").exists(),
                "procfs present but VmHWM not parsed"
            ),
        }
    }

    #[test]
    fn stats_percentiles() {
        let mut s = Stats::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        // Nearest-rank on an even-length sample picks one of the two
        // middle elements (round-half-up → 51).
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert!((s.fraction_below(25.0) - 0.25).abs() < 1e-9);
    }
}
