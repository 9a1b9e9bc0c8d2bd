//! Opt-in observability for the hierarchical sizing flow: hierarchical
//! span tracing, a metrics registry, and per-run profiling reports.
//!
//! The flow is a deep pipeline — thousands of GA evaluations, a
//! Monte-Carlo batch per Pareto point, table-model fits, then a
//! system-level optimisation — and its wall clock concentrates in a few
//! hot loops that coarse `FlowEvent` counters cannot localise. This
//! crate records *where* time and failures go without perturbing the
//! computation:
//!
//! * **Spans** ([`span`], [`Recorder`]): RAII-guarded intervals
//!   mirroring the flow's own hierarchy
//!   (`run → stage → point → sample → solve`). Guards close during
//!   unwinding, so panic isolation and cancellation leave no dangling
//!   spans. A [`Context`] carries the ambient recorder and current span
//!   across thread boundaries into pool workers. Finished spans and
//!   events are flushed as JSON lines (`trace.jsonl`).
//! * **Metrics** ([`Registry`], [`Histogram`]): lock-free counters,
//!   gauges and fixed-bucket log-scale histograms, addressed by name
//!   through the ambient recorder ([`counter_add`], [`gauge_set`],
//!   [`observe`]).
//! * **Reports** ([`report`]): aggregates spans + metrics into a
//!   machine-readable profile (`metrics.json`) and a human-readable
//!   table (stage breakdown, slowest points, solver vs. overhead).
//!
//! Everything is opt-in and observation-only. When no recorder is
//! installed, every entry point returns after one relaxed atomic load —
//! no allocation, no locks, no clocks — and enabling telemetry never
//! changes numerical results, cache keys, or config digests.

pub mod clock;
pub mod export;
mod metrics;
pub mod names;
pub mod report;
mod span;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, BUCKETS,
};
pub use span::{
    capture, current_span_id, event, event_indexed, span, suspend, Context, EventRecord,
    InstallGuard, Recorder, SpanGuard, SpanRecord, SuspendGuard, TraceRecord,
};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Number of live recorder installations/attachments across all
/// threads. Zero means every instrumentation call is a no-op after one
/// relaxed load — the disabled fast path.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

pub(crate) fn activate() {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn deactivate() {
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
}

/// Whether any recorder is installed anywhere in the process. This is
/// the cheap guard every instrumentation site checks first; the
/// per-thread truth is the ambient recorder (a thread with no recorder
/// installed still no-ops even when another thread has one).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Parses an on/off environment override: `1`, `true`, `on` and `yes`
/// enable; `0`, `false`, `off` and `no` disable (any case, surrounding
/// whitespace ignored). Unset, empty or any other value leaves
/// `default`, the configuration's own choice.
pub fn parse_switch(value: Option<&str>, default: bool) -> bool {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("1" | "true" | "on" | "yes") => true,
        Some("0" | "false" | "off" | "no") => false,
        _ => default,
    }
}

/// Telemetry opt-in requested via the `HIERSIZER_TELEMETRY`
/// environment variable (see [`parse_switch`]), or `default` when unset;
/// the CI matrix uses this to drive tier-1 tests through both paths
/// without touching configs.
pub fn enabled_from_env(default: bool) -> bool {
    parse_switch(
        std::env::var("HIERSIZER_TELEMETRY").ok().as_deref(),
        default,
    )
}

/// Adds `delta` to the named counter on the ambient registry.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    span::with_ambient_recorder(|r| r.registry().counter_add(name, delta));
}

/// Sets the named gauge on the ambient registry.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    span::with_ambient_recorder(|r| r.registry().gauge_set(name, value));
}

/// Records one observation into the named histogram on the ambient
/// registry.
#[inline]
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    span::with_ambient_recorder(|r| r.registry().observe(name, value));
}

/// Records a duration (in seconds) into the named histogram.
#[inline]
pub fn observe_secs(name: &str, elapsed: Duration) {
    observe(name, elapsed.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_process_noops_and_env_parse() {
        // With no recorder installed on this thread, every entry point
        // must be inert (other tests may have recorders on their own
        // threads, so `enabled()` itself is not asserted here).
        counter_add("t.counter", 1);
        observe("t.hist", 1.0);
        gauge_set("t.gauge", 2.0);
        assert!(span("noop").id().is_none());
        assert!(current_span_id().is_none());
        // The override is parsed from strings, so no assertion here
        // depends on the process environment.
        assert!(parse_switch(Some("1"), false));
        assert!(!parse_switch(Some("0"), true));
        assert!(parse_switch(None, true));
        assert!(!parse_switch(None, false));
    }

    #[test]
    fn install_records_spans_metrics_and_events() {
        let rec = Recorder::new();
        {
            let _install = rec.install();
            assert!(enabled());
            let outer = span("run");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("stage").attr("stage", "circuit-opt");
                assert_eq!(current_span_id(), inner.id());
                event_indexed(0, "stage started");
            }
            counter_add("t.counter", 3);
            observe("t.hist", 0.5);
            gauge_set("t.gauge", 7.0);
            assert_eq!(current_span_id(), Some(outer_id));
        }
        let records = rec.records();
        let spans: Vec<&SpanRecord> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s),
                TraceRecord::Event(_) => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        let stage = spans.iter().find(|s| s.name == "stage").unwrap();
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(stage.parent, Some(run.id));
        assert_eq!(run.parent, None);
        assert_eq!(stage.attrs, vec![("stage".into(), "circuit-opt".into())]);
        let ev = records
            .iter()
            .find_map(|r| match r {
                TraceRecord::Event(e) => Some(e),
                TraceRecord::Span(_) => None,
            })
            .unwrap();
        assert_eq!(ev.span, Some(stage.id));
        assert_eq!(ev.index, Some(0));
        let m = rec.metrics();
        assert_eq!(m.counters, vec![("t.counter".into(), 3)]);
        assert_eq!(m.gauges, vec![("t.gauge".into(), 7.0)]);
        assert_eq!(m.histograms.len(), 1);
        assert_eq!(m.histograms[0].1.count, 1);
    }

    #[test]
    fn context_carries_spans_across_threads() {
        let rec = Recorder::new();
        let _install = rec.install();
        let parent = span("point");
        let parent_id = parent.id().unwrap();
        let ctx = capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(current_span_id().is_none(), "fresh thread starts clean");
                let _attach = ctx.attach();
                assert_eq!(current_span_id(), Some(parent_id));
                let _child = span("sample");
                counter_add("t.cross", 1);
            });
        });
        drop(parent);
        let records = rec.records();
        let child = records
            .iter()
            .find_map(|r| match r {
                TraceRecord::Span(s) if s.name == "sample" => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(child.parent, Some(parent_id));
        assert_eq!(rec.metrics().counters, vec![("t.cross".into(), 1)]);
    }

    #[test]
    fn suspend_quiesces_and_restores_the_ambient_recorder() {
        let rec = Recorder::new();
        let _install = rec.install();
        counter_add("t.before", 1);
        {
            let _quiet = suspend();
            counter_add("t.during", 1);
            assert!(
                span("quiet").id().is_none(),
                "suspended thread records no spans"
            );
        }
        counter_add("t.after", 1);
        let m = rec.metrics();
        assert_eq!(
            m.counters,
            vec![("t.after".into(), 1), ("t.before".into(), 1)],
            "the suspended window must record nothing"
        );
        // Suspending with nothing installed is a harmless no-op.
        drop(_install);
        let _quiet = suspend();
        counter_add("t.noop", 1);
    }

    #[test]
    fn spans_close_during_unwind() {
        let rec = Recorder::new();
        let _install = rec.install();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = span("sample");
            panic!("evaluator exploded");
        }));
        assert!(result.is_err());
        assert!(current_span_id().is_none(), "unwound span must pop");
        let records = rec.records();
        assert_eq!(records.len(), 1, "the unwound span is still recorded");
    }

    #[test]
    fn trace_file_is_json_lines() {
        let rec = Recorder::new();
        {
            let _install = rec.install();
            let _s = span("run").attr("k", "v");
            event("hello");
        }
        let dir = std::env::temp_dir().join(format!("telemetry-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        rec.write_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(matches!(v, serde_json::Value::Object(_)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
