//! Benchmark-owned spans around every call into a layer.
//!
//! The program's own tracer keeps spans in a bounded ring that evicts
//! oldest-first and overflows at default scale, so the benchmark keeps
//! its spans here, in its own memory, and writes them out once at the
//! end. A span has a name, start and end (µs since the recorder was
//! created), a parent, and a run id: the id of the root span of its
//! tree, so all spans of one timed operation share it.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (1-based, in start order).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The id of this span's root.
    pub run: u64,
    /// Layer-qualified name, e.g. `tnt.run_campaigns`.
    pub name: String,
    /// Start, µs since the recorder's origin.
    pub start_us: f64,
    /// End, µs since the recorder's origin.
    pub end_us: f64,
}

impl SpanRecord {
    /// Wall duration in µs.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A single-threaded span recorder: spans nest by call structure.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans { origin: Instant::now(), records: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's wall duration. Spans opened inside `f` become its
    /// children.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, Duration) {
        let index = self.records.len();
        let id = index as u64 + 1;
        let parent = self.open.last().map(|&i| self.records[i].id);
        let run = self.open.first().map_or(id, |&i| self.records[i].id);
        let started = Instant::now();
        self.records.push(SpanRecord {
            id,
            parent,
            run,
            name: name.to_string(),
            start_us: self.us_since_origin(started),
            end_us: 0.0,
        });
        self.open.push(index);
        let result = f(self);
        let ended = Instant::now();
        self.open.pop();
        self.records[index].end_us = self.us_since_origin(ended);
        (result, ended - started)
    }

    fn us_since_origin(&self, at: Instant) -> f64 {
        (at - self.origin).as_secs_f64() * 1e6
    }

    /// Every finished span, in start order.
    #[must_use]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Self time per span: its duration minus the time its children
    /// cover (children are sequential on the recording thread, so
    /// their durations add up without overlap).
    #[must_use]
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut self_us: Vec<f64> = self.records.iter().map(SpanRecord::duration_us).collect();
        for record in &self.records {
            if let Some(parent) = record.parent {
                self_us[(parent - 1) as usize] -= record.duration_us();
            }
        }
        self_us.iter().map(|us| us.max(0.0)).collect()
    }

    /// Self time summed by span name, in first-seen order:
    /// `(name, spans, total µs, self µs)`.
    #[must_use]
    pub fn by_name(&self) -> Vec<(String, usize, f64, f64)> {
        let self_us = self.self_times_us();
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for (record, own) in self.records.iter().zip(self_us) {
            if let Some(row) = rows.iter_mut().find(|r| r.0 == record.name) {
                row.1 += 1;
                row.2 += record.duration_us();
                row.3 += own;
            } else {
                rows.push((record.name.clone(), 1, record.duration_us(), own));
            }
        }
        rows
    }

    /// The spans as a JSON array (one object per span, with self time).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (r, own)) in self.records.iter().zip(self.self_times_us()).enumerate() {
            let parent = r.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}",
                if i == 0 { "" } else { "," },
                r.id,
                r.run,
                r.name,
                r.start_us,
                r.end_us,
                own
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_run_and_subtract_children() {
        let mut spans = Spans::default();
        spans.time("outer", |s| {
            s.time("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            s.time("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        spans.time("second", |_| ());
        let records = spans.records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[1].parent, Some(1));
        assert_eq!(records[2].run, 1);
        assert_eq!(records[3].run, 4);
        let self_us = spans.self_times_us();
        assert!(self_us[0] < records[0].duration_us() - 9_000.0);
        let rows = spans.by_name();
        assert_eq!(rows[1].0, "inner");
        assert_eq!(rows[1].1, 2);
    }
}
