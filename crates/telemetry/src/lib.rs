//! Observability for the hybrid runtime: virtual-clock span tracing, a
//! metrics registry, and exporters.
//!
//! The runtime simulates an RLHF cluster on *virtual* time — device
//! threads and the controller advance `VirtualClock`s, not wall clocks —
//! so a trace of one iteration is fully deterministic: the same program
//! produces the same spans with the same timestamps on every run. This
//! crate records those spans and renders them two ways:
//!
//! * [`Telemetry::chrome_trace`] — Chrome/Perfetto trace-event JSON
//!   (load in `ui.perfetto.dev` or `chrome://tracing`). One track per
//!   simulated GPU, one per host lane that ran work (`cpu-<n>`), and one
//!   for the controller; queue-wait, compute,
//!   and communication are distinct categories, so the mailbox
//!   serialization of colocated models (paper §2.3) is visible as
//!   gaps-vs-slices per device.
//! * [`Telemetry::summary`] — a plain-text per-iteration digest of
//!   phase latencies, per-protocol transfer bytes, reshard volumes,
//!   per-device utilization and the data plane's zero-copy share, then
//!   every counter, gauge and digest grouped under the first dot segment
//!   of its name (`genserve:`, `remap:`, …).
//!
//! Metrics include byte counters per transfer protocol
//! (`protocol.<P>.dispatch_bytes` / `.collect_bytes`), the p2p volume
//! (`p2p.pull_bytes`), the reshard volume
//! (`transition.to_generation.recv_bytes`, which
//! `tests/telemetry_integration.rs` holds to Table 2's closed form on an
//! 8-GPU 1-4-2 → 1-2 layout), and one [`Digest`] per phase and
//! transition. Recording reads virtual clocks and never advances them,
//! so a traced run's `IterStats` are an untraced run's bit for bit.
//!
//! The handle is designed for zero overhead when disabled:
//! [`Telemetry::disabled`] holds no allocation at all, and every record
//! method is a single `Option` check before returning. Instrumented
//! code paths therefore never branch on a user flag — they always call
//! telemetry, and a disabled handle makes the call free.

mod export;
mod model;

pub use export::covered;
pub use model::{CounterSample, Digest, MetricsSnapshot, SpanKind, SpanRecord};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hf_sync::Mutex;

/// Conventional track name for the single controller.
pub const CONTROLLER_TRACK: &str = "controller";

/// Conventional track name for a simulated GPU.
pub fn gpu_track(device_index: usize) -> String {
    format!("gpu-{device_index}")
}

/// Conventional track name for the host CPUs beside a simulated GPU: the
/// work a device thread runs off the GPU's clock.
pub fn cpu_track(device_index: usize) -> String {
    format!("cpu-{device_index}")
}

#[derive(Default)]
struct State {
    spans: VecDeque<SpanRecord>,
    samples: Vec<CounterSample>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    digests: BTreeMap<String, Digest>,
    /// Flight-recorder capacity: `None` = unbounded (record forever),
    /// `Some(n)` = keep only the most recent `n` spans.
    span_capacity: Option<usize>,
    /// Spans evicted from the ring since the last `clear`.
    dropped_spans: u64,
}

struct Inner {
    state: Mutex<State>,
    /// Causal-graph id allocator; 0 is reserved for "no id".
    next_id: AtomicU64,
}

/// A cheap, cloneable recorder handle.
///
/// Cloning shares the underlying store: the controller, every device
/// thread, and every rank context hold clones of one `Telemetry`, and
/// all spans land in the same trace.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A recording handle with unbounded span storage.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(State::default()),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// A recording handle that keeps only the most recent `capacity`
    /// spans (a flight recorder): thousand-iteration runs stay bounded,
    /// and the tail of the trace is always available for post-mortems.
    /// Evictions are counted — see [`Telemetry::dropped_spans`].
    /// Counters, gauges and digests are unaffected (they are already
    /// bounded per series).
    pub fn with_span_capacity(capacity: usize) -> Self {
        let t = Telemetry::enabled();
        if let Some(inner) = &t.inner {
            inner.state.lock().span_capacity = Some(capacity);
        }
        t
    }

    /// A no-op handle: every record call returns after one `Option`
    /// check, no allocation, no locking.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a completed span `[start, end]` (virtual seconds) on
    /// `track`.
    #[cfg(test)]
    fn span(&self, track: &str, name: &str, kind: SpanKind, start: f64, end: f64) {
        self.span_causal(track, name, kind, start, end, 0, &[], &[]);
    }

    /// Records a completed span that participates in the causal span
    /// graph: `id` names this span (0 = anonymous) and `causes` lists
    /// ids of spans it causally depends on. See [`SpanRecord`] for the
    /// determinism contract on id values.
    #[allow(clippy::too_many_arguments)]
    pub fn span_causal(
        &self,
        track: &str,
        name: &str,
        kind: SpanKind,
        start: f64,
        end: f64,
        id: u64,
        causes: &[u64],
        args: &[(&str, String)],
    ) {
        let Some(inner) = &self.inner else { return };
        let mut s = inner.state.lock();
        if let Some(cap) = s.span_capacity {
            while s.spans.len() >= cap.max(1) {
                s.spans.pop_front();
                s.dropped_spans += 1;
            }
        }
        s.spans.push_back(SpanRecord {
            track: track.to_string(),
            name: name.to_string(),
            kind,
            start,
            end: end.max(start),
            id,
            causes: causes.iter().copied().filter(|&c| c != 0).collect(),
            args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
    }

    /// Allocates a fresh causal-graph span id (never 0). Returns 0 when
    /// disabled, so instrumented code can pass the result straight to
    /// [`Telemetry::span_causal`] without branching.
    pub fn next_span_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_id.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Spans evicted by the flight-recorder ring since the last
    /// [`Telemetry::clear`] (0 when unbounded or disabled).
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().dropped_spans,
            None => 0,
        }
    }

    /// Records a timestamped counter observation at virtual time `t`
    /// (rendered as a Perfetto counter track beside the spans).
    pub fn sample(&self, name: &str, t: f64, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().samples.push(CounterSample { name: name.to_string(), t, value });
    }

    /// Every counter sample recorded so far, in recording order.
    pub fn samples(&self) -> Vec<CounterSample> {
        match &self.inner {
            Some(inner) => inner.state.lock().samples.clone(),
            None => Vec::new(),
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn add_counter(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        *inner.state.lock().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the percentile digest `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().digests.entry(name.to_string()).or_default().record(value);
    }

    /// A copy of the percentile digest `name`.
    pub fn digest(&self, name: &str) -> Option<Digest> {
        let inner = self.inner.as_ref()?;
        inner.state.lock().digests.get(name).cloned()
    }

    /// Current value of counter `name` (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner.state.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        inner.state.lock().gauges.get(name).copied()
    }

    /// Every span recorded so far (still held by the flight recorder),
    /// in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.state.lock().spans.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// A copy of the whole metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let s = inner.state.lock();
                MetricsSnapshot {
                    counters: s.counters.clone(),
                    gauges: s.gauges.clone(),
                    digests: s.digests.clone(),
                }
            }
            None => MetricsSnapshot::default(),
        }
    }

    /// Drops all recorded spans and metrics (e.g. between measured
    /// iterations) and restarts the span-id allocator.
    pub fn clear(&self) {
        let Some(inner) = &self.inner else { return };
        let mut s = inner.state.lock();
        s.spans.clear();
        s.samples.clear();
        s.counters.clear();
        s.gauges.clear();
        s.digests.clear();
        s.dropped_spans = 0;
        inner.next_id.store(1, Ordering::Relaxed);
    }

    /// Renders every recorded span and counter as Chrome/Perfetto
    /// trace-event JSON (the `chrome://tracing` / `ui.perfetto.dev`
    /// format). Virtual seconds become microseconds.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.spans(), &self.samples())
    }

    /// Plain-text digest of everything recorded.
    pub fn summary(&self) -> String {
        self.summary_since(f64::NEG_INFINITY)
    }

    /// Plain-text digest restricted to spans starting at `t0` or later
    /// (counters and gauges are cumulative and reported as-is).
    pub fn summary_since(&self, t0: f64) -> String {
        export::summary(&self.spans(), &self.metrics(), t0)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => {
                let s = inner.state.lock();
                f.debug_struct("Telemetry")
                    .field("spans", &s.spans.len())
                    .field("counters", &s.counters.len())
                    .finish()
            }
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.span("gpu-0", "x", SpanKind::Exec, 0.0, 1.0);
        t.add_counter("c", 5);
        t.observe("h", 1.0);
        t.set_gauge("g", 2.0);
        assert!(!t.is_enabled());
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0);
        assert!(t.gauge("g").is_none());
        assert!(t.digest("h").is_none());
    }

    #[test]
    fn clones_share_one_store() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.span("gpu-0", "a", SpanKind::Exec, 0.0, 1.0);
        t2.span("gpu-1", "b", SpanKind::Comm, 1.0, 2.0);
        t2.add_counter("n", 1);
        t.add_counter("n", 2);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t2.counter("n"), 3);
    }

    #[test]
    fn spans_clamp_inverted_intervals() {
        let t = Telemetry::enabled();
        t.span("x", "neg", SpanKind::Exec, 5.0, 3.0);
        let s = &t.spans()[0];
        assert_eq!(s.start, 5.0);
        assert_eq!(s.end, 5.0);
    }

    #[test]
    fn observe_accumulates_one_digest_with_the_observed_extremes() {
        // A digest created on first observation starts at ±inf, so an
        // all-positive series reports its own minimum, not 0.
        let t = Telemetry::enabled();
        t.observe("lat", 2.0);
        t.observe("lat", 3.0);
        let d = t.digest("lat").unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 5.0);
        assert_eq!(d.mean(), 2.5);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 3.0);
        let empty = Digest::default();
        assert_eq!((empty.min, empty.max), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn clear_resets_everything() {
        let t = Telemetry::enabled();
        t.span("a", "s", SpanKind::Phase, 0.0, 1.0);
        t.add_counter("c", 1);
        t.observe("d", 1.0);
        t.clear();
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0);
        assert!(t.digest("d").is_none());
        // Id allocation restarts at 1 after clear.
        assert_eq!(t.next_span_id(), 1);
    }

    #[test]
    fn causal_spans_carry_ids_and_drop_zero_causes() {
        let t = Telemetry::enabled();
        let a = t.next_span_id();
        let b = t.next_span_id();
        assert!(a != 0 && b != 0 && a != b);
        t.span_causal("gpu-0", "exec", SpanKind::Exec, 0.0, 1.0, b, &[a, 0], &[]);
        let s = &t.spans()[0];
        assert_eq!(s.id, b);
        assert_eq!(s.causes, vec![a]);
        // Plain spans stay anonymous.
        t.span("gpu-0", "x", SpanKind::Exec, 1.0, 2.0);
        assert_eq!(t.spans()[1].id, 0);
        assert!(t.spans()[1].causes.is_empty());
    }

    #[test]
    fn disabled_handle_allocates_no_ids() {
        let t = Telemetry::disabled();
        assert_eq!(t.next_span_id(), 0);
        assert_eq!(t.dropped_spans(), 0);
        t.observe("d", 1.0);
        assert!(t.digest("d").is_none());
    }

    #[test]
    fn flight_recorder_keeps_most_recent_spans() {
        let t = Telemetry::with_span_capacity(3);
        for i in 0..5 {
            t.span("gpu-0", &format!("s{i}"), SpanKind::Exec, i as f64, i as f64 + 1.0);
        }
        let names: Vec<String> = t.spans().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["s2", "s3", "s4"]);
        assert_eq!(t.dropped_spans(), 2);
        t.clear();
        assert_eq!(t.dropped_spans(), 0);
    }

    #[test]
    fn digest_quantiles_bound_true_ranks() {
        let mut d = Digest::default();
        for i in 1..=1000 {
            d.record(i as f64);
        }
        assert_eq!(d.count, 1000);
        // Representatives are geometric lower bounds with ≤ ~4.5 %
        // relative bucket width: the reported quantile must sit within
        // one bucket of the exact rank value.
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = d.quantile(q);
            assert!(got <= exact && got >= exact * 0.90, "q{q}: got {got}, exact {exact}");
        }
        assert_eq!(d.quantile(0.0), d.quantile(1.0 / 1000.0));
        assert!((d.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn digest_handles_zero_and_negative() {
        let mut d = Digest::default();
        d.record(0.0);
        d.record(-1.0);
        d.record(2.0);
        assert_eq!(d.zero_or_less, 2);
        assert_eq!(d.quantile(0.5), 0.0);
        assert!(d.quantile(1.0) > 0.0);
        d.record(f64::NAN); // ignored
        assert_eq!(d.count, 3);
    }

    #[test]
    fn digest_bucketing_is_bit_deterministic() {
        // Same samples in different order -> identical digest.
        let vals = [0.001, 7.25, 3.0e9, 1.0, 0.999999, 1.000001];
        let mut a = Digest::default();
        let mut b = Digest::default();
        for v in vals {
            a.record(v);
        }
        for v in vals.iter().rev() {
            b.record(*v);
        }
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.quantile(0.99), b.quantile(0.99));
    }
}
