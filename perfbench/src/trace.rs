//! Spans the traced run records around the benchmark's own calls into each
//! layer. They stay in memory until the run ends and are then written out,
//! one JSON object per line, so every per-layer number can be traced back
//! to the spans it was computed from.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

/// One timed call: `[start_ns, end_ns)` relative to the run's trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    /// Request this span belongs to (0: not a request, e.g. a replay).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (a replay pass times many at once).
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer. Ids carry the buffer's tag in their high bits,
/// so buffers filled on different threads merge without collisions.
pub struct Recorder {
    epoch: Instant,
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tag: u64) -> Self {
        Recorder {
            epoch,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span or request id.
    pub fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.tag << 48) | self.next
    }

    /// Record a finished single-operation span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.record_ops(name, parent, req, start_ns, end_ns, 1)
    }

    /// Record a finished span covering `ops` operations; returns its id.
    pub fn record_ops(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) -> u64 {
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
            ops,
        });
        id
    }

    /// Time `f`, which performs the operations it returns the count of, as
    /// a span named `name`.
    pub fn time_ops(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> u64) -> u64 {
        let start = self.now_ns();
        let ops = f();
        let end = self.now_ns();
        self.record_ops(name, parent, 0, start, end, ops);
        ops
    }

    /// Nanoseconds per operation over every span named `name` (0 when
    /// there are none).
    pub fn per_op_ns(&self, name: &str) -> f64 {
        let (ops, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ops, sum), s| {
                (ops + s.ops, sum + s.dur_ns())
            });
        if ops == 0 {
            0.0
        } else {
            sum as f64 / ops as f64
        }
    }

    /// Median duration of the spans named `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect();
        crate::stats::median(&durs)
    }

    /// Operations covered by the spans named `name`.
    pub fn ops(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ops)
            .sum()
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }
}

/// Write every span as one JSON line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
            s.id,
            s.parent,
            s.req,
            quote(s.name),
            s.start_ns,
            s.end_ns,
            s.ops
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_from_different_recorders_never_collide() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 1);
        let mut b = Recorder::new(epoch, 2);
        let ia = a.record("x", 0, 0, 0, 5);
        let ib = b.record_ops("x", 0, 0, 0, 7, 3);
        assert_ne!(ia, ib);
        a.absorb(b);
        assert_eq!(a.per_op_ns("x"), 3.0);
        assert_eq!(a.ops("x"), 4);
        assert_eq!(a.per_op_ns("missing"), 0.0);
    }
}
