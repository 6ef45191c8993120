//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the harness around calls into each layer's public
//! entry points and kept in memory; [`Trace::write_json`] writes them out
//! once the run ends. Every record carries its parent's id and the id of
//! the pass it belongs to, so one pass's spans can be pulled out and its
//! layers' self times computed: a record's self time is its duration
//! minus the part of its interval that its children cover.
//!
//! Calls too fine-grained to record one by one (one route extraction per
//! request, a million per pass) are folded into a *sum* record per
//! enclosing span: the call count and the summed duration. Sum records
//! are leaves, and the calls they sum ran one after another on the thread
//! of their parent, so their durations subtract from the parent exactly.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn next_id() -> u32 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// How a record's time was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One call, one interval.
    Span,
    /// `calls` back-to-back calls folded into one duration.
    Sum,
}

/// One recorded span or sum.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u32,
    /// `0` for a root.
    pub parent: u32,
    /// The pass (or setup) this record belongs to; shared by all its spans.
    pub trace: u32,
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: u64,
    pub thread: u32,
}

impl Record {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// An open span; close it with [`Trace::close`].
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// A span buffer. Worker threads fill their own [`Trace::fork`] and the
/// harness [`Trace::absorb`]s them after the parallel stage joins.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    trace: u32,
    pub records: Vec<Record>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            trace: 0,
            records: Vec::new(),
        }
    }

    /// An empty buffer on the same clock and pass id.
    pub fn fork(&self) -> Trace {
        Trace {
            epoch: self.epoch,
            trace: self.trace,
            records: Vec::new(),
        }
    }

    /// Start a new pass: records from now on share a fresh id.
    pub fn begin_pass(&mut self) -> u32 {
        self.trace = next_id();
        self.trace
    }

    pub fn open(&self, name: &'static str, parent: u32) -> Open {
        Open {
            id: next_id(),
            parent,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, open: Open) -> u32 {
        let end = Instant::now();
        let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        self.records.push(Record {
            id: open.id,
            parent: open.parent,
            trace: self.trace,
            name: open.name,
            kind: Kind::Span,
            start_ns,
            dur_ns,
            calls: 1,
            thread: THREAD.with(|t| *t),
        });
        open.id
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent);
        let r = f();
        self.close(open);
        r
    }

    /// Fold a [`Sum`] accumulator into one record under `parent`.
    pub fn push_sum(&mut self, name: &'static str, parent: u32, sum: &Sum) {
        if sum.calls == 0 {
            return;
        }
        self.records.push(Record {
            id: next_id(),
            parent,
            trace: self.trace,
            name,
            kind: Kind::Sum,
            start_ns: sum
                .first
                .map_or(0, |s| s.duration_since(self.epoch).as_nanos() as u64),
            dur_ns: sum.ns,
            calls: sum.calls,
            thread: THREAD.with(|t| *t),
        });
    }

    pub fn absorb(&mut self, other: Trace) {
        self.records.extend(other.records);
    }

    /// The records of one pass.
    pub fn pass(&self, trace: u32) -> Vec<&Record> {
        self.records.iter().filter(|r| r.trace == trace).collect()
    }

    /// Every record as one JSON document: name, start, end, parent, pass
    /// id, kind, call count and thread.
    pub fn write_json(&self, path: &std::path::Path) -> Result<(), qntn_common::QntnError> {
        let mut out = String::with_capacity(self.records.len() * 120 + 64);
        out.push_str("{\"spans\":[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"thread\":{}}}",
                r.id,
                r.parent,
                r.trace,
                r.name,
                match r.kind {
                    Kind::Span => "span",
                    Kind::Sum => "sum",
                },
                r.start_ns,
                r.end_ns(),
                r.calls,
                r.thread
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| qntn_common::QntnError::io("create_dir", dir, &e))?;
        }
        qntn_common::atomic_write(path, out.as_bytes())
    }
}

/// Back-to-back calls of one layer, timed individually and summed.
#[derive(Debug, Default, Clone)]
pub struct Sum {
    pub calls: u64,
    pub ns: u64,
    first: Option<Instant>,
}

impl Sum {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.first.get_or_insert(t);
        r
    }
}

/// Self time of every record, ns: its duration minus the union of its
/// children's intervals (span children) plus the summed durations of its
/// sum children, clamped at zero.
pub fn self_times(records: &[&Record]) -> HashMap<u32, u64> {
    let mut kids: HashMap<u32, Vec<&Record>> = HashMap::new();
    for r in records {
        kids.entry(r.parent).or_default().push(r);
    }
    records
        .iter()
        .map(|r| {
            let mut covered = 0u64;
            if let Some(children) = kids.get(&r.id) {
                let mut spans: Vec<(u64, u64)> = Vec::new();
                for c in children {
                    match c.kind {
                        Kind::Sum => covered += c.dur_ns,
                        Kind::Span => spans.push((c.start_ns, c.end_ns())),
                    }
                }
                spans.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for (s, e) in spans {
                    match cur {
                        Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            covered += ce - cs;
                            cur = Some((s, e));
                        }
                        None => cur = Some((s, e)),
                    }
                }
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
            }
            (r.id, r.dur_ns.saturating_sub(covered))
        })
        .collect()
}
