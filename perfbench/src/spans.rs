//! Spans recorded by the benchmark around its own calls into the layers,
//! kept in memory and written once as Chrome-trace JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span. `parent` names the enclosing span of the same
/// run (`None` for a run's root span).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub run: u64,
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub dur_ns: u64,
    /// Aggregate counters attached to the span (hook calls and time).
    pub args: Vec<(&'static str, f64)>,
}

/// The in-memory span log of one benchmark process.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Moves every span of `other` into this log.
    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Chrome-trace JSON: one complete (`"ph": "X"`) event per span on a
    /// single track, times in microseconds since the log was created.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let ts = sp.start.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3;
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"run\":{}",
                sp.name,
                ts,
                sp.dur_ns as f64 / 1e3,
                sp.run
            );
            if let Some(p) = sp.parent {
                let _ = write!(s, ",\"parent\":\"{p}\"");
            }
            for (k, v) in &sp.args {
                let _ = write!(s, ",\"{k}\":{}", json_num(*v));
            }
            s.push_str("}}");
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

/// A finite number in JSON form, every digit kept.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_names_parents_and_args() {
        let mut spans = Spans::new();
        let start = Instant::now();
        spans.push(Span {
            name: "run".into(),
            run: 3,
            parent: None,
            start,
            dur_ns: 2_000,
            args: vec![],
        });
        spans.push(Span {
            name: "step".into(),
            run: 3,
            parent: Some("run"),
            start,
            dur_ns: 1_500,
            args: vec![("hook_ns", 250.0)],
        });
        let json = spans.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"parent\":\"run\""));
        assert!(json.contains("\"hook_ns\":250"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
