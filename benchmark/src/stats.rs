//! Order statistics by nearest rank, and the process's peak memory.

/// A sample sorted once, so every statistic reads the same order.
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample(values)
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    fn rank(&self, p: f64) -> usize {
        ((p / 100.0 * self.n() as f64).ceil() as usize).clamp(1, self.n())
    }

    /// The nearest-rank median. Panics on an empty sample: every workload
    /// measures at least one operation.
    pub fn median(&self) -> f64 {
        self.0[self.rank(50.0) - 1]
    }

    /// The nearest-rank `p`-th percentile, or `None` when fewer than ten
    /// samples lie beyond it — a tail read off a handful of samples is
    /// noise, so it is not printed.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let rank = self.rank(p);
        (self.n() - rank >= 10).then(|| self.0[rank - 1])
    }

    /// Samples a workload must collect so that `percentile(p)` is printed.
    pub fn needed_for(p: f64) -> usize {
        (1..)
            .find(|&n| n - (p / 100.0 * n as f64).ceil() as usize >= 10)
            .expect("p < 100")
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}
