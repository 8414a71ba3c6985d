//! `fastreg_obs` — the deterministic tracing + metrics spine.
//!
//! Every other observability stack assumes a wall clock and tolerates
//! racy counters; this workspace cannot — its load-bearing guarantee
//! is *byte-identical artifacts at any thread count on simnet*, and an
//! instrumentation layer that broke that would be banned from exactly
//! the hot paths it exists to illuminate. So this crate is built
//! around a hard determinism contract:
//!
//! - **Clocks are explicit** ([`clock`]): [`LogicalClock`] carries
//!   simnet ticks and is the only clock legal outside `crates/rt`;
//!   [`MonoClock`] (monotonic µs) is quarantined to the real-threads
//!   runtime by lint rule D7 (`obs-clock-discipline`).
//! - **Events merge deterministically** ([`event`]): per-thread
//!   [`Recorder`] buffers merge by `(time, track, lane, seq)` — never
//!   by host arrival order — and [`chrome_trace`] renders the merged
//!   stream as Chrome `trace_event` JSON for Perfetto.
//! - **Metrics are integers** ([`metrics`]): counters, high-water
//!   gauges and log2-bucket [`Histogram`]s merge commutatively, so a
//!   [`MetricsRegistry`] snapshot is byte-identical however the
//!   updates were sharded across workers.
//! - **Exact percentiles are shared** ([`summary`]): [`LatencyStats`]
//!   is the one implementation of the report tables' quantile math.
//!
//! Like `fastreg_lint`, the crate is dependency-free: hand-rolled
//! JSON, integer arithmetic, no serializer or time crate.

#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod event;
pub mod metrics;
pub mod summary;

pub use chrome::chrome_trace;
pub use clock::{Clock, LogicalClock, MonoClock};
pub use event::{merge, spans_balanced, Event, Phase, Recorder};
pub use metrics::{Histogram, MetricsRegistry};
pub use summary::LatencyStats;

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` are
/// backslashed, `\n`, `\t` and `\r` take their short forms, and every
/// other control character becomes `\u00XX`. The one escape every JSON
/// writer of the workspace uses (the lint keeps its own, being
/// dependency-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(
            json_escape("q\"b\\n\nt\tr\r\u{1}é"),
            r#"q\"b\\n\nt\tr\r\u0001é"#
        );
    }
}
