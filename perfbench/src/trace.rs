//! The benchmark's own spans, recorded around its calls into each crate.
//!
//! A span has a name, start and end (ns since the run's origin), the span
//! that caused it, the request it belongs to and the process CPU ticks
//! spent inside it. Spans stay in memory and are written out as JSON lines
//! when the run ends. A disabled tracer records nothing and reads no CPU
//! time, so untraced runs pay only the branch.

use std::time::Instant;

use datalog_trace::Json;

use crate::procfs;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub cpu_ticks: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (index into the tracer's buffer).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        // An open span holds its starting tick count until `end`.
        let cpu_ticks = procfs::cpu_ticks();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: parent.map(|p| p.0),
            req,
            cpu_ticks,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(SpanId(i)) = id else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        let cpu = procfs::cpu_ticks();
        let s = &mut self.spans[i];
        s.end_ns = end;
        s.cpu_ticks = cpu.saturating_sub(s.cpu_ticks);
    }

    /// Record an already-timed span (used for intervals measured with plain
    /// `Instant`s, such as a socket round trip).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            req,
            cpu_ticks: 0,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total wall ms and CPU ticks of every span with this name.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, cpu), s| (ms + s.ms(), cpu + s.cpu_ticks))
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let doc = Json::obj()
                .with("id", i as u64)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                )
                .with("req", s.req)
                .with("cpu_ticks", s.cpu_ticks);
            writeln!(out, "{doc}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", None, 1);
        t.end(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_the_request() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", None, 7);
        let inner = t.begin("inner", outer, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let (outer_ms, _) = t.total("outer");
        let (inner_ms, _) = t.total("inner");
        assert!(inner_ms >= 2.0 && outer_ms >= inner_ms);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
    }
}
