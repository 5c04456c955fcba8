//! Output sinks for trace event streams.
//!
//! A sink receives the run's event stream once, after the repair finishes
//! (events are buffered during the run, so sinks never see partial
//! state). Two built-ins cover the common
//! cases: [`JsonLinesSink`] writes the durable machine-readable form,
//! [`SummarySink`] renders the human-readable flamegraph-style text.

use std::io::{self, Write};

use crate::{summary, Event};

/// Consumes a finished run's event stream.
pub trait EventSink {
    /// Receives one event. Called once per event, in buffer order.
    fn emit(&mut self, event: &Event);

    /// Called once after the last event; flush buffers here. The default
    /// does nothing.
    fn finish(&mut self) {}

    /// Reports the end-to-end wall-clock latency of the request that
    /// produced the stream, in nanoseconds — measured *around* the run
    /// (scheduling, lifting, provenance rendering), so it is distinct
    /// from, and an upper bound on, the in-stream span timings. Called at
    /// most once, before the first [`EventSink::emit`]. The default
    /// ignores it.
    fn request_wall(&mut self, _ns: u64) {}
}

/// Writes each event as one JSON object per line (the `--trace out.jsonl`
/// format; schema in DESIGN.md §11).
///
/// I/O errors do not panic mid-repair: the first failure is remembered,
/// further writes are skipped, and [`JsonLinesSink::error`] exposes it so
/// the caller can report once at the end.
pub struct JsonLinesSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out, error: None }
    }

    /// The first I/O error encountered, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Unwraps the inner writer (flushing first), surfacing any deferred
    /// I/O error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish();
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: Write> EventSink for JsonLinesSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Buffers the stream and renders [`summary::render`]'s flamegraph-style
/// text on [`EventSink::finish`], writing it to the wrapped writer.
pub struct SummarySink<W: Write> {
    out: W,
    events: Vec<Event>,
    wall_ns: Option<u64>,
    error: Option<io::Error>,
}

impl<W: Write> SummarySink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        SummarySink {
            out,
            events: Vec::new(),
            wall_ns: None,
            error: None,
        }
    }

    /// The first I/O error encountered, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<W: Write> EventSink for SummarySink<W> {
    fn emit(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn request_wall(&mut self, ns: u64) {
        self.wall_ns = Some(ns);
    }

    fn finish(&mut self) {
        let mut text = summary::render(&self.events);
        if let Some(ns) = self.wall_ns {
            // The end-to-end latency line sits above the span tree so the
            // reader sees request time vs. in-run time at a glance.
            text = format!("request wall {:.2} ms\n{text}", ns as f64 / 1e6);
        }
        if let Err(e) = self
            .out
            .write_all(text.as_bytes())
            .and_then(|()| self.out.flush())
        {
            self.error = Some(e);
        }
    }
}

/// Feeds a finished event batch through a sink: every event, then
/// [`EventSink::finish`].
pub fn drain_into(events: &[Event], sink: &mut dyn EventSink) {
    for e in events {
        sink.emit(e);
    }
    sink.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t_ns: 0,
                dur_ns: 500,
                kind: EventKind::Run,
            },
            Event {
                t_ns: 10,
                dur_ns: 0,
                kind: EventKind::Whnf,
            },
        ]
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let events = sample_events();
        let mut sink = JsonLinesSink::new(Vec::new());
        drain_into(&events, &mut sink);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, original) in lines.iter().zip(&events) {
            assert_eq!(&Event::from_json(line).unwrap(), original);
        }
    }

    #[test]
    fn json_lines_sink_defers_io_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(Failing);
        drain_into(&sample_events(), &mut sink);
        assert!(sink.error().is_some());
    }

    #[test]
    fn summary_sink_renders_on_finish() {
        let mut sink = SummarySink::new(Vec::new());
        drain_into(&sample_events(), &mut sink);
        assert!(sink.error().is_none());
        let text = String::from_utf8(sink.out).unwrap();
        assert!(
            text.contains("run"),
            "summary mentions the run span: {text}"
        );
        assert!(!text.contains("request wall"), "no latency unless reported");
    }

    #[test]
    fn summary_sink_leads_with_request_latency_when_reported() {
        let mut sink = SummarySink::new(Vec::new());
        sink.request_wall(2_500_000);
        drain_into(&sample_events(), &mut sink);
        let text = String::from_utf8(sink.out).unwrap();
        assert!(
            text.starts_with("request wall 2.50 ms\n"),
            "latency line leads the summary: {text}"
        );
    }
}
