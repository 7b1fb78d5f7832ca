//! Span recorder for the traced replay. Spans are recorded from the
//! harness's own files, around its calls into each layer's public
//! functions; they stay in memory until the replay ends and are then
//! written in Chrome trace-event format (`chrome://tracing`, Perfetto).
//!
//! A layer's row in the ledger is the *self time* of its spans: the
//! span's duration minus what its direct child spans cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index into [`Recorder::spans`].
pub type SpanId = u32;

/// Interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    /// The operation (scenario or request) this span belongs to; all
    /// spans of one operation share it.
    op: u32,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregates of a finished recording.
pub struct Totals {
    self_ns: Vec<u64>,
    count: Vec<u64>,
}

impl Totals {
    /// Total self time of the spans named `name`, in nanoseconds.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.self_ns[name.0 as usize]
    }

    /// Self time of `name` in microseconds per operation.
    pub fn us_per(&self, name: Name, ops: u64) -> f64 {
        self.self_ns(name) as f64 / 1e3 / ops.max(1) as f64
    }

    pub fn count(&self, name: Name) -> u64 {
        self.count[name.0 as usize]
    }
}

pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn name(&mut self, name: &str) -> Name {
        let at = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_owned());
                self.names.len() - 1
            });
        Name(u16::try_from(at).expect("a few dozen span names"))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: Name, op: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span. `f`'s result is passed through
    /// `black_box` so the measured call cannot be optimised away; a
    /// caller that does not need the result drops it *inside* `f`, so
    /// that nothing a layer produced is still alive while the next
    /// operation is timed.
    pub fn time<R>(
        &mut self,
        name: Name,
        op: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let result = std::hint::black_box(f());
        self.close(id);
        result
    }

    /// Self time and span count per name over everything recorded.
    pub fn totals(&self) -> Totals {
        let spans = &self.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = Totals {
            self_ns: vec![0; self.names.len()],
            count: vec![0; self.names.len()],
        };
        for (s, &c) in spans.iter().zip(&child_ns) {
            totals.self_ns[s.name.0 as usize] += (s.end_ns - s.start_ns).saturating_sub(c);
            totals.count[s.name.0 as usize] += 1;
        }
        totals
    }

    /// Forgets every span; names stay interned.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the first `limit` spans as Chrome trace events (complete
    /// events, microsecond timestamps). `args` carries each span's
    /// operation id and parent span so the tree can be rebuilt.
    pub fn write_chrome(&self, path: &Path, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_recorded\":{},\"spans_written\":{}}},\"traceEvents\":[",
            self.spans.len(),
            self.spans.len().min(limit)
        )?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}}}}}",
                self.names[s.name.0 as usize],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_service::json::{self, Value};

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new();
        let (root, a, b) = (r.name("root"), r.name("a"), r.name("b"));
        // Hand-built spans: root 0..100, a 10..40 (child of root),
        // b 15..25 (child of a).
        r.spans = vec![
            Span {
                name: root,
                op: 7,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: a,
                op: 7,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: b,
                op: 7,
                parent: Some(1),
                start_ns: 15,
                end_ns: 25,
            },
        ];
        let t = r.totals();
        assert_eq!(t.self_ns(root), 70);
        assert_eq!(t.self_ns(a), 20);
        assert_eq!(t.self_ns(b), 10);
        assert_eq!(t.self_ns(root) + t.self_ns(a) + t.self_ns(b), 100);
        assert_eq!(t.count(a), 1);
        assert_eq!(t.us_per(root, 7), 0.01);
        // A cleared recorder keeps its names and totals nothing.
        r.clear();
        assert_eq!(r.len(), 0);
        assert_eq!(r.name("a"), a);
        assert_eq!((r.totals().self_ns(a), r.totals().count(a)), (0, 0));
    }

    #[test]
    fn timed_spans_nest_and_the_chrome_file_parses() {
        let mut r = Recorder::new();
        let (outer, inner) = (r.name("outer"), r.name("inner"));
        assert_eq!(r.name("outer"), outer, "names are interned");
        let root = r.open(outer, 1, None);
        let got = r.time(inner, 1, Some(root), || 41 + 1);
        r.close(root);
        assert_eq!(got, 42);
        assert_eq!(r.len(), 2);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        r.write_chrome(&path, 1).unwrap();
        let v = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 1, "the limit caps what is written");
        assert_eq!(events[0].get("name").and_then(Value::as_str), Some("outer"));
        let other = v.get("otherData").unwrap();
        assert_eq!(other.get("spans_recorded").and_then(Value::as_u64), Some(2));
    }
}
