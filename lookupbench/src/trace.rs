//! In-memory spans around the benchmark's calls into the program.
//!
//! A traced pass wraps every public call it makes in one [`Span`] (name, start,
//! end, parent round span, round id). Spans stay in memory until the run ends,
//! when [`Tracer::to_json`] writes them out with a per-layer self-time table. An
//! untraced pass uses [`Tracer::off`], whose [`Tracer::call`] reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that brackets one round; its children are the round's calls.
pub const ROUND: &str = "bench.round";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<call>`, e.g. `overlay.apply_delta`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing round span, if the call ran inside a round.
    pub parent: Option<usize>,
    /// Round id of the enclosing round, if any.
    pub round: Option<u32>,
}

impl Span {
    /// Wall time of the call.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: the crate prefix of its name.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Self time of one layer, summed over its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Crate prefix of the span names (`bench` for the round harness itself).
    pub layer: &'static str,
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the parts covered by child spans.
    pub self_ns: u64,
}

/// Span recorder; inert when built with [`Tracer::off`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_round: Option<(usize, u32)>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open_round: None,
        }
    }

    /// A tracer that records every call.
    #[must_use]
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_round.map(|(index, _)| index),
            round: self.open_round.map(|(_, round)| round),
        });
        out
    }

    /// Opens the span of round `round`; calls until [`Tracer::end_round`] are its
    /// children.
    pub fn begin_round(&mut self, round: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open_round = Some((self.spans.len(), round));
        self.spans.push(Span {
            name: ROUND,
            start_ns,
            end_ns: start_ns,
            parent: None,
            round: Some(round),
        });
    }

    /// Closes the open round span.
    pub fn end_round(&mut self) {
        if let Some((index, _)) = self.open_round.take() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Every recorded span, in start order of their recording.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name` that ran inside a round.
    pub fn round_durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.round.is_some())
            .map(Span::duration_ns)
    }

    /// Durations of every span named `name`, inside a round or not (set-up calls).
    pub fn all_durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Per-layer self time, layers in first-seen order.
    #[must_use]
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut rows: Vec<LayerRow> = Vec::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let layer = span.layer();
            let index = match rows.iter().position(|row| row.layer == layer) {
                Some(index) => index,
                None => {
                    rows.push(LayerRow {
                        layer,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    rows.len() - 1
                }
            };
            let row = &mut rows[index];
            row.calls += 1;
            row.total_ns += span.duration_ns();
            row.self_ns += span.duration_ns().saturating_sub(covered);
        }
        rows
    }

    /// Spans and the layer table as one JSON object; `extra` is spliced in as
    /// further members (it must be empty or start with a member, no comma).
    #[must_use]
    pub fn to_json(&self, extra: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        out.push('{');
        if !extra.is_empty() {
            out.push_str(extra);
            out.push(',');
        }
        out.push_str("\"layers\":[");
        for (i, row) in self.layer_table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                row.layer, row.calls, row.total_ns, row.self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.round.map_or("null".to_owned(), |r| r.to_string()),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::on();
        tracer.call("core.build", || ());
        tracer.begin_round(0);
        tracer.call("engine.run_batch_with_snapshot", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tracer.end_round();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].round, Some(0));
        assert_eq!(spans[0].parent, None);
        let table = tracer.layer_table();
        let bench = table.iter().find(|r| r.layer == "bench").unwrap();
        let engine = table.iter().find(|r| r.layer == "engine").unwrap();
        assert_eq!(engine.self_ns, engine.total_ns);
        assert_eq!(bench.self_ns, bench.total_ns - engine.total_ns);
        assert_eq!(tracer.round_durations("core.build").count(), 0);
        assert_eq!(tracer.all_durations("core.build").count(), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut tracer = Tracer::off();
        tracer.begin_round(0);
        assert_eq!(tracer.call("overlay.freeze", || 7), 7);
        tracer.end_round();
        assert!(tracer.spans().is_empty());
    }
}
