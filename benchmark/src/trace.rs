//! In-memory spans around the calls into each layer, written out when the
//! run ends.
//!
//! A span has a layer, a name, start and end times, the span that was
//! open when it began (its parent) and the epoch it belongs to; counters
//! read at the same boundary ride on the span. A layer's self time is the
//! sum over its spans of duration minus the part their children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub epoch: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Records spans when enabled; every call is a no-op otherwise, which is
/// how the same replay code gives the untraced wall time.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, epoch: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            epoch,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    pub fn count(&mut self, span: usize, name: &'static str, value: f64) {
        if self.enabled {
            self.spans[span].counts.push((name, value));
        }
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        self.spans[span].end_ns = self.now_ns();
    }

    /// A span that is already over (measured elsewhere, e.g. by the pool).
    pub fn closed(
        &mut self,
        layer: &'static str,
        name: &'static str,
        epoch: u64,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            epoch,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
            counts,
        });
    }

    /// Total duration of the spans of `layer` named `name`, in ms.
    pub fn total_ms(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// The sum of one counter over every span.
    pub fn total_count(&self, name: &str) -> f64 {
        self.spans.iter().map(|s| s.count(name)).sum()
    }

    /// Self time per layer in ms, over the descendants of `root`.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                // Parents are pushed before their children.
                inside[i] = inside[p];
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered[i]);
                *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// One JSON object per span, then one per layer of `self_times`.
    pub fn write(
        &self,
        path: &Path,
        self_times: &BTreeMap<&'static str, f64>,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{id},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"epoch\":{},\
                 \"start_us\":{:.3},\"end_us\":{:.3}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.layer,
                s.name,
                s.epoch,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
            for (name, v) in &s.counts {
                write!(w, ",\"{name}\":{v}")?;
            }
            writeln!(w, "}}")?;
        }
        for (layer, ms) in self_times {
            writeln!(w, "{{\"layer\":\"{layer}\",\"self_ms\":{ms:.3}}}")?;
        }
        w.flush()
    }
}
