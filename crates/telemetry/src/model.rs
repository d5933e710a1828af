//! Telemetry data model: spans and metric values.

use std::collections::BTreeMap;

/// What a span measures; becomes the Chrome-trace category, so Perfetto
/// can color and filter queue-wait vs. compute vs. communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Time a dispatched call sat in a device mailbox behind earlier
    /// work (colocated time-sharing, paper §2.3) or waited for its input
    /// future: from the RPC's arrival to the start, recorded only when
    /// positive.
    QueueWait,
    /// Worker compute on a device.
    Exec,
    /// Communication: collectives, p2p pulls, weight resharding
    /// (`transition.to_generation`, with `overlapped_s` when the call's
    /// queue wait hid part of it; `transition.to_training`,
    /// zero-duration, since the flip back is local).
    Comm,
    /// One awaited call on the controller, from dispatch to collect,
    /// annotated with its protocol and dispatch/collect bytes.
    Dispatch,
    /// An algorithm phase on the controller (`generation`,
    /// `experience_preparation`, `training`), emitted by every driver.
    Phase,
}

impl SpanKind {
    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Exec => "exec",
            SpanKind::Comm => "comm",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Phase => "phase",
        }
    }
}

/// One completed span on a track, in virtual seconds.
///
/// Spans optionally participate in the causal span graph (hf-insight):
/// `id` names this span and `causes` lists the ids of spans that had to
/// complete (or be issued) for this one to happen. Id *values* are
/// allocated from a shared counter raced by device threads, so they are
/// not stable across runs — only the edge *structure* they induce is.
/// Deterministic outputs must therefore never render or sort by raw id
/// values; hf-insight orders everything by (time, track, name, kind).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Track (thread row in the trace): `controller` or `gpu-<n>`.
    pub track: String,
    /// Span label, e.g. `actor::update_actor`.
    pub name: String,
    /// What the span measures.
    pub kind: SpanKind,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds), `>= start`.
    pub end: f64,
    /// Causal-graph node id; `0` means "not part of the graph".
    pub id: u64,
    /// Ids of spans this span causally depends on (0-free).
    pub causes: Vec<u64>,
    /// Annotations rendered into the trace `args`.
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One timestamped counter observation (virtual seconds), exported as
/// a Perfetto `"C"` counter-track event so time-varying quantities
/// (active batch size, cache-block utilization) graph alongside spans.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter-track name, e.g. `genserve.batch_size`.
    pub(crate) name: String,
    /// Virtual time of the observation (seconds).
    pub(crate) t: f64,
    /// Observed value.
    pub(crate) value: f64,
}

/// Streaming percentile digest over fixed log-spaced buckets.
///
/// Bucket boundaries are derived from the *bit pattern* of the `f64`
/// (binary exponent plus the top four mantissa bits: 16 sub-buckets per
/// octave, ≈ 4.4 % relative width), so bucketing involves no
/// transcendental math and is bit-identical on every platform and run.
/// Two digests over disjoint sample sets merge by element-wise count
/// addition — ranks can summarize locally and the controller merges
/// without ever shipping raw samples. Quantile queries return the
/// deterministic bucket representative (geometric lower bound of the
/// bucket holding the requested rank), never an interpolated value.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations. Device threads race its f64 accumulation
    /// order, so no report prints it or a mean: reports print count,
    /// min, max and p50/p95/p99 only.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
    /// Observations `<= 0` (kept out of the log buckets).
    pub(crate) zero_or_less: u64,
    /// Sparse bucket counts keyed by log-bucket index.
    buckets: BTreeMap<i64, u64>,
}

/// Sub-buckets per binary octave (top 4 mantissa bits).
const DIGEST_SUBBUCKETS: i64 = 16;

fn digest_bucket(value: f64) -> i64 {
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = ((bits >> 48) & 0xf) as i64;
    exp * DIGEST_SUBBUCKETS + frac
}

fn digest_representative(bucket: i64) -> f64 {
    let exp = (bucket.div_euclid(DIGEST_SUBBUCKETS)) as u64;
    let frac = bucket.rem_euclid(DIGEST_SUBBUCKETS) as u64;
    f64::from_bits((exp << 52) | (frac << 48))
}

impl Default for Digest {
    /// An empty digest: `min`/`max` start at `±inf`, so the first
    /// observation sets both.
    fn default() -> Self {
        Digest {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zero_or_less: 0,
            buckets: BTreeMap::new(),
        }
    }
}

impl Digest {
    /// Adds one observation. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= 0.0 {
            self.zero_or_less += 1;
        } else {
            *self.buckets.entry(digest_bucket(value)).or_insert(0) += 1;
        }
    }

    /// Mean of observations (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The value at rank `q` (`0.0 ..= 1.0`): the representative of the
    /// bucket holding the `ceil(q * count)`-th smallest observation.
    /// Returns 0 when the digest is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank <= self.zero_or_less {
            return 0.0;
        }
        let mut seen = self.zero_or_less;
        for (b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return digest_representative(*b);
            }
        }
        self.max
    }
}

/// A point-in-time copy of the metrics registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters (bytes moved, calls made, ...).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions: phase and stage latencies, TTFT, MTTR, ...
    pub digests: BTreeMap<String, Digest>,
}
