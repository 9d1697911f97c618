//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each span carries its name, start and end (seconds since the recorder
//! was created), the span that caused it, and the query it belongs to.
//! They stay in memory until [`Trace::write_jsonl`] writes them out.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `end` is `None` while the span is open (or if the
/// query unwound before closing it).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: Option<f64>,
    pub parent: Option<usize>,
    pub query: u64,
}

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, query: u64) -> SpanId {
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: None,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Some(self.origin.elapsed().as_secs_f64());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        (id, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time of a closed span (0 for an open one).
    pub fn duration(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end.map_or(0.0, |end| end - s.start)
    }

    /// Self time: the span's duration minus the time its closed children
    /// cover. Children of one parent run one after another here, so their
    /// durations add without overlap.
    pub fn self_time(&self, id: SpanId) -> f64 {
        let children: f64 = (id + 1..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration(c))
            .sum();
        self.duration(id) - children
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end.map_or("null".to_string(), |e| format!("{e:.9}"));
            writeln!(
                out,
                "{{\"id\": {id}, \"query\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"end_s\": {end}}}",
                s.query, s.name, s.start
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let mut t = Trace::default();
        let root = t.open("query", None, 7);
        let child = t.open("child", Some(root), 7);
        let grandchild = t.open("grandchild", Some(child), 7);
        t.close(grandchild);
        t.close(child);
        t.close(root);
        let expected = t.duration(root) - t.duration(child);
        assert!((t.self_time(root) - expected).abs() < 1e-12);
        assert!(t.self_time(root) >= 0.0);
        assert_eq!(t.spans()[grandchild].query, 7);
    }
}
