//! Chrome `trace_event` exporter.
//!
//! Renders a merged event stream as the JSON Object Format consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) — open
//! the UI and drag the file in. The JSON is hand-rolled (no serializer
//! dependency), emitted in merged-stream order with integer timestamps
//! only, so the bytes are as deterministic as the events.

use crate::event::{Event, Phase};
use crate::json_escape;

/// Renders `events` as Chrome `trace_event` JSON.
///
/// Phase mapping: [`Phase::Begin`]/[`Phase::End`] → `"B"`/`"E"`,
/// [`Phase::Instant`] → `"i"` (thread-scoped), [`Phase::Complete`] →
/// `"X"` with `dur`. `track`/`lane` become `pid`/`tid`; `at` becomes
/// `ts` (the viewer assumes microseconds — on simnet a "µs" is a
/// simulated tick).
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{");
        out.push_str(&format!("\"name\":\"{}\",", json_escape(e.name)));
        let ph = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Complete { .. } => "X",
        };
        out.push_str(&format!("\"ph\":\"{ph}\","));
        out.push_str(&format!("\"ts\":{},", e.at));
        if let Phase::Complete { dur } = e.phase {
            out.push_str(&format!("\"dur\":{dur},"));
        }
        if let Phase::Instant = e.phase {
            out.push_str("\"s\":\"t\",");
        }
        out.push_str(&format!("\"pid\":{},\"tid\":{}", e.track, e.lane));
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{v}", json_escape(k)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Recorder;

    #[test]
    fn renders_every_phase_kind() {
        let mut r = Recorder::new(2, 7);
        r.begin(10, "span", &[("round", 1)]);
        r.end(15, "span");
        r.instant(12, "mark", &[]);
        r.complete(20, 5, "msg", &[("id", 42), ("from", 1)]);
        let json = chrome_trace(&r.into_events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains(
            "{\"name\":\"span\",\"ph\":\"B\",\"ts\":10,\"pid\":2,\"tid\":7,\"args\":{\"round\":1}}"
        ));
        assert!(json.contains("{\"name\":\"span\",\"ph\":\"E\",\"ts\":15,\"pid\":2,\"tid\":7}"));
        assert!(json.contains(
            "{\"name\":\"mark\",\"ph\":\"i\",\"ts\":12,\"s\":\"t\",\"pid\":2,\"tid\":7}"
        ));
        assert!(json.contains(
            "{\"name\":\"msg\",\"ph\":\"X\",\"ts\":20,\"dur\":5,\"pid\":2,\"tid\":7,\"args\":{\"id\":42,\"from\":1}}"
        ));
    }

    #[test]
    fn escapes_hostile_names() {
        let e = Event {
            at: 0,
            seq: 0,
            phase: Phase::Instant,
            name: "a\"b\\c",
            track: 0,
            lane: 0,
            args: Vec::new(),
        };
        let json = chrome_trace(&[e]);
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\""));
    }

    #[test]
    fn empty_stream_is_valid_json() {
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[\n]}\n");
    }
}
