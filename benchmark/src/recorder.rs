//! The traced run's host-span recorder: spans kept in memory around the
//! benchmark's calls into each layer, written out once at exit.
//!
//! Spans are recorded on the driver thread only (the program's own
//! threads are the system under test); host spans *inside* the crates
//! are a later change.

use std::collections::BTreeMap;

use crate::calibrate::RefClock;
use crate::json::Json;

/// One host span, on the reference clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Start, µs on the reference clock.
    pub start_us: f64,
    /// End, µs on the reference clock.
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (shared by all spans of one
    /// iteration).
    pub iter: u64,
}

impl Span {
    /// The span's duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store.
pub struct Recorder {
    clock: RefClock,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Iteration id stamped on spans started from now on.
    pub iter: u64,
}

impl Recorder {
    /// An empty recorder that reads `clock`.
    pub fn new(clock: RefClock) -> Self {
        Recorder { clock, spans: Vec::new(), open: Vec::new(), iter: 0 }
    }

    fn now_us(&self) -> f64 {
        self.clock.now() * 1e6
    }

    /// Runs `f` inside a span and returns its value and the span's
    /// duration in µs. Spans opened by `f` become children.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        (value, self.spans[id].dur_us())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in µs, in span order: its duration minus
    /// the part of it its children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time_us((s.start_us, s.end_us), kids))
            .collect()
    }

    /// Self time per layer in µs.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_times_us()) {
            *out.entry(s.layer).or_insert(0.0) += self_us;
        }
        out
    }

    /// Chrome trace events of the host spans: process 2 ("host clock"),
    /// one thread per layer. The program's own virtual-clock trace uses
    /// process 1, so the two clocks show as two track families.
    pub fn chrome_events(&self) -> Vec<Json> {
        let mut layers: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) as i64;
        let meta = |tid: i64, name: &str, value: &str| {
            Json::obj(vec![
                ("ph", Json::str("M")),
                ("pid", Json::Int(2)),
                ("tid", Json::Int(tid)),
                ("name", Json::str(name)),
                ("args", Json::obj(vec![("name", Json::str(value))])),
            ])
        };
        let mut events = vec![meta(0, "process_name", "host clock")];
        events.extend(layers.iter().map(|l| meta(tid(l), "thread_name", l)));
        events.extend(self.spans.iter().map(|s| {
            Json::obj(vec![
                ("ph", Json::str("X")),
                ("pid", Json::Int(2)),
                ("tid", Json::Int(tid(s.layer))),
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.layer)),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us())),
                (
                    "args",
                    Json::obj(vec![
                        ("iter", Json::Int(s.iter as i64)),
                        ("parent", Json::Int(s.parent.map_or(-1, |p| p as i64))),
                    ]),
                ),
            ])
        }));
        events
    }
}

/// A span's self time: its duration minus the union of its children's
/// intervals clipped to it (children may overlap each other and may
/// stick out of the parent).
pub fn self_time_us(span: (f64, f64), mut children: Vec<(f64, f64)>) -> f64 {
    let (start, end) = span;
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (s, e) in children {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        assert_eq!(self_time_us((0.0, 100.0), vec![(10.0, 30.0), (50.0, 60.0)]), 70.0);
        assert_eq!(self_time_us((0.0, 100.0), vec![]), 100.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // (10,40) ∪ (30,60) ∪ (35,45) covers 50 µs, not 80.
        assert_eq!(
            self_time_us((0.0, 100.0), vec![(30.0, 60.0), (10.0, 40.0), (35.0, 45.0)]),
            50.0
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_us((10.0, 20.0), vec![(0.0, 12.0), (18.0, 99.0)]), 6.0);
        assert_eq!(self_time_us((10.0, 20.0), vec![(0.0, 99.0)]), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_attributes_self_time_by_layer() {
        let sampler = crate::calibrate::Sampler::start();
        let mut rec = Recorder::new(sampler.clock());
        rec.iter = 7;
        rec.span("outer", "rlhf", |r| {
            r.span("inner", "core", |r| {
                r.span("leaf", "nn", |_| std::hint::black_box(0));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.iter == 7 && s.end_us >= s.start_us));
        let by_layer = rec.self_us_by_layer();
        let total: f64 = by_layer.values().sum();
        assert!((total - spans[0].dur_us()).abs() < 1e-6, "self times tile the root span");
        // 3 spans + process name + one thread name per layer.
        assert_eq!(rec.chrome_events().len(), 3 + 1 + 3);
    }
}
