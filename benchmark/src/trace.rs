//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a public function of the program: its
//! layer name, start and end (nanoseconds since the recorder's origin),
//! the span that caused it and the request id its siblings share. Spans
//! are kept in memory and written out once the run ends; a span's *self
//! time* is its duration minus the part of it that its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder; [`NO_SPAN`] when recording is off.
pub type SpanId = usize;

/// The id handed out by a disabled recorder.
pub const NO_SPAN: SpanId = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.plan_class`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start: u64,
    /// End; `0` while the span is still open.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any number of threads. A disabled recorder does
/// nothing, so the untraced run shares the traced run's code.
pub struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), spans: enabled.then(|| Mutex::new(Vec::new())) }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let Some(spans) = &self.spans else { return NO_SPAN };
        let start = self.now();
        let mut spans = spans.lock().expect("span list poisoned");
        spans.push(Span { name, start, end: 0, parent, request });
        spans.len() - 1
    }

    /// Closes a span now.
    pub fn end(&self, id: SpanId) {
        let Some(spans) = &self.spans else { return };
        let end = self.now();
        spans.lock().expect("span list poisoned")[id].end = end;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans (empty when disabled).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| s.lock().expect("span list poisoned").clone())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut kids = children.remove(&id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.nanos() - covered.min(s.nanos())
        })
        .collect()
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.nanos() as f64 / 1e6).collect()
}

/// Writes the spans as tab-separated lines: id, parent, request, name,
/// start, end and self time in nanoseconds.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
    for (id, (s, t)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{id}\t{parent}\t{}\t{}\t{}\t{}\t{t}", s.request, s.name, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the shared 30..40 must not count twice.
            span("b", 30, 60, Some(0)),
            // Pokes out of its parent: only 90..100 is covered.
            span("c", 90, 120, Some(0)),
            span("a.child", 15, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let id = rec.begin("x", None, 0);
        rec.end(id);
        assert_eq!(rec.time("y", None, 0, || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let rec = Recorder::new(true);
        let root = rec.begin("root", None, 9);
        rec.time("child", Some(root), 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].nanos() >= spans[1].nanos());
        assert!(self_times(&spans)[0] < spans[0].nanos());
    }
}
