//! The benchmark's own span recorder. Spans are opened only in this
//! package, around calls into each crate; the program itself is not
//! instrumented. Spans stay in memory and are written once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The operation (reconstruction, job, edit) the span belongs to.
    pub op: u64,
    /// `layer.call`, e.g. `lifting.advance`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-thread span buffer. A recorder that is not recording keeps
/// nothing, so untraced operations pay only a branch per call site.
///
/// A traced run alternates: [`Recorder::alternate`] records spans for odd
/// operations only, so traced and untraced operations interleave through
/// one pass and drift on the host hits both alike. Their medians give the
/// tracing overhead.
pub struct Recorder {
    tracing: bool,
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder with a fresh epoch, recording iff `tracing`.
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            tracing,
            enabled: tracing,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// In a traced run, records operation `op` iff it is odd; returns
    /// whether it is recorded. Never records in an untraced run.
    pub fn alternate(&mut self, op: u64) -> bool {
        assert!(self.open.is_empty(), "alternate between operations only");
        self.enabled = self.tracing && op % 2 == 1;
        self.enabled
    }

    /// Records again after [`Recorder::alternate`], if the run is traced.
    pub fn resume(&mut self) {
        self.enabled = self.tracing;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`] in LIFO order.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }
}

/// Self time per span name, in ms: each span's duration minus the time
/// its direct children cover. Children on one thread run one after
/// another, so their durations add without overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ms.entry(p).or_default() += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Renders the spans and the per-layer self times as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_ms\":{{");
    for (i, (name, ms)) in self_times(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}\"{name}\":{ms}");
    }
    s.push_str("},\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}\n{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id, sp.op, sp.name, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span { id: 1, parent: None, op: 0, name: "op", start_ns: 0, end_ns: 10_000_000 },
            Span { id: 2, parent: Some(1), op: 0, name: "a", start_ns: 0, end_ns: 4_000_000 },
            Span {
                id: 3,
                parent: Some(1),
                op: 0,
                name: "b",
                start_ns: 4_000_000,
                end_ns: 9_000_000,
            },
            Span {
                id: 4,
                parent: Some(3),
                op: 0,
                name: "c",
                start_ns: 5_000_000,
                end_ns: 6_000_000,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], 1.0);
        assert_eq!(t["a"], 4.0);
        assert_eq!(t["b"], 4.0);
        assert_eq!(t["c"], 1.0);
    }

    #[test]
    fn recorder_links_parents_and_skips_when_disabled() {
        let mut r = Recorder::new(true);
        r.enter("op", 7);
        r.time("leaf", 7, || ());
        r.exit();
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut off = Recorder::new(false);
        off.time("leaf", 0, || ());
        assert!(off.spans().is_empty());
        assert!(!off.alternate(1));
        assert!(!r.alternate(2) && r.alternate(3));
        r.time("odd", 3, || ());
        assert_eq!(r.spans().len(), 3);
    }
}
