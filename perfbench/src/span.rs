//! Spans for the traced run, recorded from outside the program around each
//! call the benchmark makes into a layer's public functions.
//!
//! Each client thread (or async session) owns one [`SpanLog`], so recording
//! takes no lock. A log keeps at most [`SpanLog::CAP`] spans in memory: a
//! traced kv run makes tens of millions of calls, and every call is counted
//! in the workload's own aggregates anyway, so the raw log is the run's
//! first calls, not a replacement for those sums. Logs are written out as
//! JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span within its log; [`NONE`] for "no span".
pub type SpanId = u32;
/// No parent (a root span), or a span the log had no room for.
pub const NONE: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: SpanId,
    req: u64,
}

/// One thread's or session's spans. Callers record a span once the call it
/// covers has returned, so recording never lands inside a measured interval.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// Spans kept per log.
    pub const CAP: usize = 20_000;

    /// Record a finished span named `name` for request `req`; its id, for
    /// use as a child's `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if self.spans.len() >= Self::CAP {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Spans kept plus spans dropped for lack of room.
    pub fn seen(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }
}

/// Write every log as JSON lines to `path`: a header line carrying
/// `header` (the environment fingerprint), then one object per span with
/// times in nanoseconds since `origin`. `log` and `id` together name a
/// span; `parent` is an `id` in the same log, or -1.
pub fn write_jsonl(
    path: &std::path::Path,
    header: &str,
    origin: Instant,
    logs: &[SpanLog],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    for (log, l) in logs.iter().enumerate() {
        for (id, s) in l.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"log\":{log},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.req
            )?;
        }
    }
    out.flush()
}
