//! The output sink for trace event streams.
//!
//! A sink receives the run's event stream once, after the repair finishes
//! (events are buffered during the run, so a sink never sees partial
//! state). [`JsonLinesSink`] writes the durable machine-readable form;
//! [`crate::summary::render`] renders the human-readable one.

use std::io::{self, Write};

use crate::Event;

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
        self.flush();
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    /// Writes a finished event batch, one line per event in buffer
    /// order, then flushes.
    pub fn drain(&mut self, events: &[Event]) {
        for event in events {
            if self.error.is_some() {
                return;
            }
            let mut line = event.to_json();
            line.push('\n');
            if let Err(e) = self.out.write_all(line.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.flush();
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
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
        sink.drain(&events);
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
        sink.drain(&sample_events());
        assert!(sink.error().is_some());
    }
}
