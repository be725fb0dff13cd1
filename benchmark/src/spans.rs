//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer; nothing inside `crates/` or `shims/` is instrumented. They are
//! kept in memory and written once, when the traced process exits. With the
//! tracer off a span costs one branch, so the untraced slices run the same
//! code the traced ones do.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process, from 1.
    pub id: u32,
    /// The span that caused this one; 0 for an op's root span.
    pub parent: u32,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// Layer and call, e.g. `index.build`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans; shared by reference between the threads of one process.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span of op `op` under `parent` (`None` for the op's root).
    pub fn start<'a>(
        &'a self,
        name: &'static str,
        op: u64,
        parent: Option<&SpanGuard<'_>>,
    ) -> SpanGuard<'a> {
        SpanGuard {
            tracer: self,
            // Relaxed: the id only has to be unique, it publishes nothing.
            id: if self.enabled {
                self.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent: parent.map_or(0, |p| p.id),
            op,
            name,
            start: Instant::now(),
        }
    }

    /// Record a finished root span that began at `start` and ends now, for
    /// a call whose name is only known once it returns.
    pub fn record(&self, name: &'static str, op: u64, start: Instant) {
        let mut guard = self.start(name, op, None);
        guard.start = start;
    }

    /// Every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

impl SpanGuard<'_> {
    /// Time since the span opened, in ms.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name.to_string(),
            start_ns: (self.start - self.tracer.epoch).as_nanos() as u64,
            end_ns: (end - self.tracer.epoch).as_nanos() as u64,
        };
        // A poisoned lock means a recording thread panicked; the run is
        // already failing, and Drop must not panic on top of it.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Append `spans` to `path`, one JSON object per line, tagged `workload`.
pub fn append_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Parse the lines [`append_jsonl`] wrote (the fields it writes, in order).
pub fn parse_jsonl(text: &str) -> Vec<Span> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let needle = format!("\"{key}\":");
        let start = line.find(&needle)? + needle.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"'))
    }
    text.lines()
        .filter_map(|line| {
            Some(Span {
                op: field(line, "op")?.parse().ok()?,
                id: field(line, "id")?.parse().ok()?,
                parent: field(line, "parent")?.parse().ok()?,
                name: field(line, "name")?.to_string(),
                start_ns: field(line, "start_ns")?.parse().ok()?,
                end_ns: field(line, "end_ns")?.parse().ok()?,
            })
        })
        .collect()
}

/// A span's self time in ms: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_ms(span: &Span, all: &[Span]) -> f64 {
    let mut children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id && c.id != span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, 0, 0, 10_000_000),
            span(2, 1, 1_000_000, 4_000_000),
            // Overlaps span 2 by 1 ms: the union covers 1..6 ms.
            span(3, 1, 3_000_000, 6_000_000),
            // A grandchild is not the root's child.
            span(4, 2, 1_500_000, 2_000_000),
        ];
        assert_eq!(self_ms(&all[0], &all), 5.0);
        assert_eq!(self_ms(&all[1], &all), 2.5);
        assert_eq!(self_ms(&all[2], &all), 3.0);
    }

    #[test]
    fn guards_record_parents_and_round_trip_through_jsonl() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.start("op", 7, None);
            let _child = tracer.start("index.build", 7, Some(&root));
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!((root.parent, child.parent, child.op), (0, root.id, 7));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);

        let dir = std::env::temp_dir().join(format!("spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        append_jsonl(&path, "analyze_250k", &spans).unwrap();
        let back = parse_jsonl(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(back, spans);
        std::fs::remove_dir_all(&dir).unwrap();

        let off = Tracer::new(false);
        drop(off.start("op", 1, None));
        assert!(off.take().is_empty());
    }
}
