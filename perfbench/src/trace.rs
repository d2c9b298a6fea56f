//! Spans recorded around the benchmark's own calls into each crate.
//!
//! The program carries no tracing: every span here wraps one public
//! call made by the benchmark, so a layer's time is measured from the
//! outside. Spans stay in memory until the run ends; then each layer's
//! self time (its span minus the part its child spans cover) is
//! aggregated, and the spans of the first ops are written out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// Name of the root span of one benchmark op.
pub const OP: &str = "op";

/// Spans of at most this many ops are written to the spans file.
const WRITTEN_OPS: u32 = 200;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u32,
}

/// An in-memory span recorder. While disabled, every call is a no-op,
/// so the same op code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// Per-layer self-time samples (µs), plus coverage of the op spans.
#[derive(Debug, Default)]
pub struct Profile {
    pub layers: BTreeMap<&'static str, Samples>,
    /// Op root durations (µs), traced ops only.
    pub ops: Samples,
    /// Sum of layer self times over sum of op durations.
    pub coverage: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it nests under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        if name == OP {
            self.op += 1;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a span measured elsewhere (e.g. on another thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let to_ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Aggregates self times per layer.
    pub fn profile(&self) -> Profile {
        assert!(self.open.is_empty(), "profile taken with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut ops = Vec::new();
        let (mut covered_ns, mut op_ns) = (0u64, 0u64);
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            if span.name == OP {
                ops.push(dur as f64 / 1e3);
                op_ns += dur;
                continue;
            }
            let self_ns = dur.saturating_sub(children);
            if span.op > 0 {
                covered_ns += self_ns;
            }
            layers
                .entry(span.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        Profile {
            layers: layers
                .into_iter()
                .map(|(name, v)| (name, Samples::new(v)))
                .collect(),
            ops: Samples::new(ops),
            coverage: if op_ns == 0 {
                0.0
            } else {
                covered_ns as f64 / op_ns as f64
            },
        }
    }

    /// Writes the spans of the first ops as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            if span.op > WRITTEN_OPS {
                break;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_spans_cost_nothing() {
        let mut tracer = Tracer::new();
        tracer.span("ignored", || ());
        tracer.set_enabled(true);
        tracer.enter(OP);
        tracer.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tracer.exit();
        let profile = tracer.profile();
        assert!(!profile.layers.contains_key("ignored"));
        assert_eq!(profile.ops.len(), 1);
        assert_eq!(profile.layers["outer"].len(), 1);
        assert!(profile.coverage > 0.9 && profile.coverage <= 1.0);
    }
}
