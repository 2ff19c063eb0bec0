//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into a layer.
//! Each span holds its name, start, end, parent and the run id; they stay in
//! memory until [`finish`] hands them back for the JSON dump. A layer's self
//! time is its span's duration minus the time covered by its child spans.
//!
//! With recording off every [`span`] is a thread-local check plus the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one traced process recorded.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
}

struct Recorder {
    origin: Instant,
    run: u64,
    stack: Vec<usize>,
    rec: Recording,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread; times are relative to `origin`.
pub fn enable(origin: Instant, run: u64) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            run,
            stack: Vec::new(),
            rec: Recording::default(),
        })
    });
}

/// Stop recording and return what was recorded (`None` if never enabled).
pub fn finish() -> Option<Recording> {
    REC.with(|r| r.borrow_mut().take().map(|rec| rec.rec))
}

fn begin(name: &'static str) -> Option<usize> {
    REC.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let id = rec.rec.spans.len();
        rec.rec.spans.push(Span {
            name,
            start_ns: rec.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.stack.last().copied(),
            run: rec.run,
        });
        rec.stack.push(id);
        Some(id)
    })
}

fn end(id: Option<usize>, rename: Option<&'static str>) {
    let Some(id) = id else { return };
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let now = rec.origin.elapsed().as_nanos() as u64;
            rec.stack.pop();
            let span = &mut rec.rec.spans[id];
            span.end_ns = now;
            if let Some(name) = rename {
                span.name = name;
            }
        }
    });
}

/// Time `f` as a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(name);
    let out = f();
    end(id, None);
    out
}

/// Time `f` as a span whose name is chosen from its result (for calls whose
/// layer path is only known afterwards, such as a delta's propagation path).
pub fn span_named<T>(f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
    let id = begin("pending");
    let out = f();
    end(id, Some(name(&out)));
    out
}

/// Add `n` to the counter `name` (no-op with recording off).
pub fn count(name: &'static str, n: f64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.rec.counts.entry(name).or_insert(0.0) += n;
        }
    });
}

/// Whether this thread is recording.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().is_some())
}

impl Recording {
    /// Self time per span name, in milliseconds: each span's duration minus
    /// the durations of its direct children, summed over spans of one name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.duration_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total duration per span name, in milliseconds.
    pub fn total_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            ));
        }
        out.push(']');
        out
    }
}
