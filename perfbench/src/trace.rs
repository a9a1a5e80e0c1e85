//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the burst or batch
//! it belongs to. Spans stay in memory and are written out when the run
//! ends. All spans come from the one load thread and nest strictly, so a
//! span's self time is its duration minus the sum of its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Bound on recorded spans (about 40 MB); later spans are dropped and
/// counted.
const MAX_SPANS: usize = 1 << 20;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

/// Handle to an open span; `None` when tracing is off for this window.
pub type SpanId = Option<u32>;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    t0: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_us(&self) -> f64 {
        crate::measure::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: false,
            t0: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off for the coming window (no effect on an
    /// untraced run).
    pub fn set_active(&mut self, active: bool) {
        self.active = self.enabled && active;
    }

    pub fn active(&self) -> bool {
        self.active
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.active {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.unwrap_or(NO_PARENT),
            req,
        });
        Some((self.spans.len() - 1) as u32)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent req` (parent `-` for a root).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.req
            )?;
        }
        out.flush()
    }
}
