//! Spans recorded by the benchmark around its calls into the program.
//!
//! Tracing inside the program is a later change; here a span is one call
//! made from this crate: `{name, start_ns, end_ns, parent, doc}`. Spans
//! are kept in memory and written out when the run ends. A layer's self
//! time is its span minus the part its children cover (the README shows
//! how to read it off the file).

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, named as the per-layer metric it feeds.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The document (publication index) all spans of one request share.
    pub doc: u64,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished call; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        doc: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            doc,
        });
        self.spans.len() - 1
    }

    /// Move the end of span `id`: a parent recorded before its children
    /// closes once they have run.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end = end;
    }

    /// Append another log's spans (a second thread's), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"doc\": {}}}",
                span.name,
                span.start.saturating_duration_since(self.epoch).as_nanos(),
                span.end.saturating_duration_since(self.epoch).as_nanos(),
                span.doc
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn absorbed_spans_keep_their_parents_and_parents_close_late() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let root = tracer.record("doc", at(0), at(0), None, 7);
        tracer.record("client.publish", at(0), at(4), Some(root), 7);
        tracer.record("client.deliver_wait", at(4), at(9), Some(root), 7);
        tracer.close(root, at(9));
        assert_eq!(tracer.spans()[root].end, at(9));

        let mut other = Tracer::new();
        let parent = other.record("doc", at(10), at(12), None, 8);
        other.record("client.publish", at(10), at(11), Some(parent), 8);
        tracer.absorb(other);
        assert_eq!(tracer.spans()[4].parent, Some(3));
    }
}
