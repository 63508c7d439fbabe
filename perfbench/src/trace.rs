//! In-memory spans for the traced run.
//!
//! A span records its name, start, end and parent. Nested spans follow a
//! stack ([`Tracer::enter`] / [`Tracer::exit`]); asynchronous spans that may
//! overlap their siblings (one UDP exchange in flight beside others) are
//! recorded whole with [`Tracer::record`] under the innermost open span.
//! Everything stays in memory until [`Tracer::finish`], which computes each
//! span's self time — its duration minus the part of it that its children
//! cover — and per-name totals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// An interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interned name.
    pub name: Name,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Interns `name`; intern once, outside the loop being traced.
    pub fn name(&mut self, name: &'static str) -> Name {
        let index = match self.names.iter().position(|known| *known == name) {
            Some(index) => index,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        Name(u16::try_from(index).expect("fewer than 65536 span names"))
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: Name) -> SpanId {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.parent();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        SpanId(index)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    /// Records a finished span under the innermost open span; unlike
    /// [`enter`](Tracer::enter) it may overlap its siblings.
    pub fn record(&mut self, name: Name, start: Instant, end: Instant) {
        let span = Span {
            name,
            parent: self.parent(),
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans.push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Computes self times and per-name totals. Spans still open are closed
    /// at the current instant.
    pub fn finish(mut self) -> TraceSummary {
        let now = self.ns(Instant::now());
        for &open in &self.stack {
            self.spans[open as usize].end_ns = now;
        }
        let self_ns = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, &own) in self.spans.iter().zip(&self_ns) {
            let totals = by_name.entry(self.names[span.name.0 as usize]).or_default();
            totals.count += 1;
            totals.total_ns += span.end_ns - span.start_ns;
            totals.self_ns += own;
        }
        TraceSummary {
            names: self.names,
            spans: self.spans,
            self_ns,
            by_name,
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping asynchronous children are
/// not counted twice and no self time is negative.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<u32> = (0..spans.len() as u32)
        .filter(|&index| spans[index as usize].parent != NO_PARENT)
        .collect();
    children.sort_unstable_by_key(|&index| {
        let span = &spans[index as usize];
        (span.parent, span.start_ns)
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut group = 0;
    while group < children.len() {
        let parent = spans[children[group] as usize].parent as usize;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        let mut covered = 0u64;
        let mut run: Option<(u64, u64)> = None;
        while group < children.len() && spans[children[group] as usize].parent as usize == parent {
            let child = &spans[children[group] as usize];
            let (start, end) = (child.start_ns.clamp(lo, hi), child.end_ns.clamp(lo, hi));
            run = match run {
                Some((run_start, run_end)) if start <= run_end => {
                    Some((run_start, run_end.max(end)))
                }
                Some((run_start, run_end)) => {
                    covered += run_end - run_start;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
            group += 1;
        }
        if let Some((run_start, run_end)) = run {
            covered += run_end - run_start;
        }
        own[parent] -= covered.min(own[parent]);
    }
    own
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// A finished trace.
pub struct TraceSummary {
    names: Vec<&'static str>,
    /// Every span, in the order it was opened or recorded.
    pub spans: Vec<Span>,
    /// Self time of each span, parallel to `spans`.
    pub self_ns: Vec<u64>,
    by_name: BTreeMap<&'static str, NameTotals>,
}

impl TraceSummary {
    /// Totals for `name` (zero when no such span was recorded).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per span named `name`, ns (0 when none was recorded).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let totals = self.totals(name);
        if totals.count == 0 {
            0.0
        } else {
            totals.self_ns as f64 / totals.count as f64
        }
    }

    /// The name of a span.
    pub fn name_of(&self, span: &Span) -> &'static str {
        self.names[span.name.0 as usize]
    }

    /// Writes the per-name totals and the first `max_spans` spans as
    /// tab-separated text.
    pub fn write(&self, path: &Path, max_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# name\tcount\ttotal_ns\tself_ns")?;
        for (name, totals) in &self.by_name {
            writeln!(
                out,
                "{name}\t{}\t{}\t{}",
                totals.count, totals.total_ns, totals.self_ns
            )?;
        }
        writeln!(
            out,
            "# span\tname\tparent\tstart_ns\tend_ns\tself_ns ({} of {} spans)",
            max_spans.min(self.spans.len()),
            self.spans.len()
        )?;
        for (index, (span, own)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            if index >= max_spans {
                break;
            }
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{index}\t{}\t{parent}\t{}\t{}\t{own}",
                self.name_of(span),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}
