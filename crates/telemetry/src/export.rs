//! Exporters: Chrome/Perfetto trace-event JSON and the plain-text
//! summary. JSON is hand-rolled — the event format is flat and tiny, and
//! the build environment has no serializer crate.

use std::collections::BTreeMap;

use crate::model::{CounterSample, MetricsSnapshot, SpanKind, SpanRecord};

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Virtual seconds → trace-event microseconds, formatted with enough
/// precision that distinct virtual instants stay distinct.
fn micros(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

/// Stable track ordering: controller first, then GPUs by index, then
/// anything else alphabetically.
fn track_order(tracks: &mut [String]) {
    tracks.sort_by_key(|t| {
        if t == crate::CONTROLLER_TRACK {
            (0, 0, t.clone())
        } else if let Some(n) = t.strip_prefix("gpu-").and_then(|s| s.parse::<usize>().ok()) {
            (1, n, String::new())
        } else {
            (2, 0, t.clone())
        }
    });
}

/// Renders spans as Chrome trace-event JSON (`"X"` complete events plus
/// `thread_name` metadata) and counter samples as `"C"` counter-track
/// events, loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[SpanRecord], samples: &[CounterSample]) -> String {
    let mut tracks: Vec<String> = Vec::new();
    for s in spans {
        if !tracks.contains(&s.track) {
            tracks.push(s.track.clone());
        }
    }
    track_order(&mut tracks);
    let tid_of: BTreeMap<&str, usize> =
        tracks.iter().enumerate().map(|(i, t)| (t.as_str(), i)).collect();

    // Counter samples get one track per counter name, placed after the
    // span tracks so genserve block-utilization and batch-size graphs
    // don't collide on the controller row.
    let mut counter_names: Vec<&str> = samples.iter().map(|c| c.name.as_str()).collect();
    counter_names.sort_unstable();
    counter_names.dedup();
    let counter_tid_of: BTreeMap<&str, usize> =
        counter_names.iter().enumerate().map(|(i, n)| (*n, tracks.len() + i)).collect();

    let mut events: Vec<String> =
        Vec::with_capacity(spans.len() + samples.len() + 2 * (tracks.len() + counter_names.len()));
    for (tid, track) in tracks.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(track)
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{tid}}}}}"
        ));
    }
    for name in &counter_names {
        let tid = counter_tid_of[name];
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{tid}}}}}"
        ));
    }
    for s in spans {
        let tid = tid_of[s.track.as_str()];
        let mut args = String::new();
        for (k, v) in &s.args {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            json_escape(&s.name),
            s.kind.category(),
            micros(s.start),
            micros(s.duration()),
        ));
    }
    for c in samples {
        events.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\
             \"args\":{{\"value\":{}}}}}",
            counter_tid_of[c.name.as_str()],
            json_escape(&c.name),
            micros(c.t),
            c.value,
        ));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Merges possibly-overlapping `[start, end]` intervals and returns the
/// total covered length within `[t0, t1]`.
pub fn covered(mut iv: Vec<(f64, f64)>, t0: f64, t1: f64) -> f64 {
    iv.retain(|&(s, e)| e > t0 && s < t1);
    for (s, e) in iv.iter_mut() {
        *s = s.max(t0);
        *e = e.min(t1);
    }
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Busy fraction per track over `[t0, t1]`: execute + communication
/// spans, overlap-merged, so colocated workers don't double-count.
fn utilization_of<'a>(
    spans: impl Iterator<Item = &'a SpanRecord>,
    t0: f64,
    t1: f64,
) -> BTreeMap<String, f64> {
    let mut per_track: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if matches!(s.kind, SpanKind::Exec | SpanKind::Comm) {
            per_track.entry(s.track.clone()).or_default().push((s.start, s.end));
        }
    }
    let window = t1 - t0;
    per_track
        .into_iter()
        .map(|(track, iv)| {
            let busy = covered(iv, t0, t1);
            (track, if window > 0.0 { busy / window } else { 0.0 })
        })
        .collect()
}

fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b_f = b as f64;
    if b_f >= KIB * KIB * KIB {
        format!("{:.2} GiB", b_f / (KIB * KIB * KIB))
    } else if b_f >= KIB * KIB {
        format!("{:.2} MiB", b_f / (KIB * KIB))
    } else if b_f >= KIB {
        format!("{:.2} KiB", b_f / KIB)
    } else {
        format!("{b} B")
    }
}

/// Plain-text digest: phase spans at or after `t0`, per-kind busy time,
/// utilization over the summarized window, the data-plane copy share,
/// then every metric grouped by the first dot segment of its name.
pub fn summary(spans: &[SpanRecord], metrics: &MetricsSnapshot, t0: f64) -> String {
    let visible: Vec<&SpanRecord> = spans.iter().filter(|s| s.start >= t0).collect();
    let mut out = String::new();

    let phases: Vec<&&SpanRecord> = visible.iter().filter(|s| s.kind == SpanKind::Phase).collect();
    if !phases.is_empty() {
        out.push_str("phases (virtual seconds):\n");
        for p in &phases {
            out.push_str(&format!("  {:<24} {:>12.6} s\n", p.name, p.duration()));
        }
    }

    let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in &visible {
        if s.kind != SpanKind::Phase {
            *by_kind.entry(s.kind.category()).or_insert(0.0) += s.duration();
        }
    }
    if !by_kind.is_empty() {
        out.push_str("span time by kind (summed over tracks):\n");
        for (k, v) in &by_kind {
            out.push_str(&format!("  {k:<24} {v:>12.6} s\n"));
        }
    }

    let (lo, hi) = visible
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| (lo.min(s.start), hi.max(s.end)));
    if hi > lo {
        // Only the visible (post-`t0`) spans count toward utilization —
        // pre-window spans must not leak into the reported window.
        let util = utilization_of(visible.iter().copied(), lo, hi);
        if !util.is_empty() {
            out.push_str(&format!("device utilization over [{lo:.6}, {hi:.6}] s:\n"));
            for (track, u) in util {
                if track != crate::CONTROLLER_TRACK {
                    out.push_str(&format!("  {track:<24} {:>11.1}%\n", u * 100.0));
                }
            }
        }
    }

    // Data-plane traffic: logical bytes moved through transfer protocols
    // vs bytes physically copied (non-view gathers) while doing so.
    let proto_sum = |suffix: &str| -> u64 {
        metrics
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("protocol.") && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    };
    let logical = proto_sum(".dispatch_bytes") + proto_sum(".collect_bytes");
    if logical > 0 {
        let copied = proto_sum(".dispatch_copy_bytes") + proto_sum(".collect_copy_bytes");
        out.push_str(&format!(
            "data plane: {} logical, {} physically copied ({:.1}% zero-copy)\n",
            fmt_bytes(logical),
            fmt_bytes(copied),
            100.0 * (1.0 - copied as f64 / logical as f64),
        ));
    }

    // Every counter, gauge and digest, grouped by the first dot segment
    // of its name (`genserve.`, `search.`, `resilience.`, ...).
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut line = |name: &str, value: String| {
        let (group, key) = name.split_once('.').unwrap_or((name, name));
        groups.entry(group.to_string()).or_default().push(format!("  {key:<40} {value}\n"));
    };
    for (k, v) in &metrics.counters {
        line(k, if k.contains("bytes") { fmt_bytes(*v) } else { v.to_string() });
    }
    for (k, v) in &metrics.gauges {
        line(k, format!("{v:.6}"));
    }
    for (k, d) in &metrics.digests {
        line(
            k,
            format!(
                "n {} mean {:.6} min {:.6} p50 {:.6} p95 {:.6} p99 {:.6} max {:.6}",
                d.count,
                d.mean(),
                d.min,
                d.quantile(0.50),
                d.quantile(0.95),
                d.quantile(0.99),
                d.max,
            ),
        );
    }
    for (group, lines) in groups {
        out.push_str(&format!("{group}:\n"));
        out.extend(lines);
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpanKind;

    fn span(track: &str, name: &str, kind: SpanKind, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            track: track.into(),
            name: name.into(),
            kind,
            start,
            end,
            id: 0,
            causes: Vec::new(),
            args: vec![("bytes".into(), "128".into())],
        }
    }

    #[test]
    fn chrome_trace_has_thread_names_and_events() {
        let spans = vec![
            span("controller", "actor::gen", SpanKind::Phase, 0.0, 2.0),
            span("gpu-0", "gen \"exec\"", SpanKind::Exec, 0.5, 1.5),
        ];
        let json = chrome_trace(&spans, &[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("\"name\":\"controller\""));
        assert!(json.contains("\"name\":\"gpu-0\""));
        // Escaped quotes in span names survive.
        assert!(json.contains("gen \\\"exec\\\""));
        assert!(json.contains("\"cat\":\"exec\""));
        // 0.5 s -> 500000 µs.
        assert!(json.contains("\"ts\":500000.000"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn controller_track_is_tid_zero_gpus_in_index_order() {
        let spans = vec![
            span("gpu-10", "a", SpanKind::Exec, 0.0, 1.0),
            span("gpu-2", "b", SpanKind::Exec, 0.0, 1.0),
            span("controller", "c", SpanKind::Phase, 0.0, 1.0),
        ];
        let json = chrome_trace(&spans, &[]);
        let ctrl = json.find("\"name\":\"controller\"").unwrap();
        let g2 = json.find("\"name\":\"gpu-2\"").unwrap();
        let g10 = json.find("\"name\":\"gpu-10\"").unwrap();
        assert!(ctrl < g2 && g2 < g10, "controller, then gpu-2, then gpu-10");
    }

    #[test]
    fn utilization_merges_overlaps() {
        let spans = [
            span("gpu-0", "a", SpanKind::Exec, 0.0, 2.0),
            span("gpu-0", "b", SpanKind::Comm, 1.0, 3.0),
            span("gpu-0", "wait", SpanKind::QueueWait, 3.0, 4.0),
        ];
        let u = utilization_of(spans.iter(), 0.0, 4.0);
        // [0,2] ∪ [1,3] = [0,3]: busy 3 of 4 — queue wait is not busy.
        assert!((u["gpu-0"] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_phases_and_counters() {
        let spans = vec![
            span("controller", "generation", SpanKind::Phase, 0.0, 2.0),
            span("gpu-0", "x", SpanKind::Exec, 0.0, 1.0),
        ];
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("protocol.ThreeD.dispatch_bytes".into(), 2048);
        metrics.counters.insert("calls".into(), 7);
        let text = summary(&spans, &metrics, 0.0);
        assert!(text.contains("generation"));
        assert!(text.contains("2.00 KiB"));
        assert!(text.contains("calls"));
        assert!(text.contains("gpu-0"));
    }

    #[test]
    fn summary_breaks_out_search_and_data_plane_sections() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("search.evals".into(), 17);
        metrics.counters.insert("search.pruned".into(), 98);
        metrics.gauges.insert("search.cache_hit_rate".into(), 0.5);
        metrics.counters.insert("protocol.ThreeD.dispatch_bytes".into(), 4096);
        metrics.counters.insert("protocol.ThreeD.dispatch_copy_bytes".into(), 1024);
        metrics.counters.insert("protocol.ThreeD.collect_bytes".into(), 4096);
        metrics.counters.insert("protocol.ThreeD.collect_copy_bytes".into(), 0);
        let text = summary(&[], &metrics, 0.0);
        assert!(text.contains("search:"));
        assert!(text.contains("evals"));
        assert!(text.contains("pruned"));
        // search.* prints under its header, without the prefix.
        assert!(!text.contains("search.evals"));
        // 8 KiB logical, 1 KiB copied -> 87.5% zero-copy.
        assert!(text.contains("87.5% zero-copy"), "got:\n{text}");
    }

    #[test]
    fn summary_breaks_out_resilience_section() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("resilience.faults_injected".into(), 2);
        metrics.counters.insert("resilience.retries".into(), 3);
        metrics.gauges.insert("resilience.mttr_s".into(), 0.25);
        metrics.gauges.insert("resilience.rollback_lost_s".into(), 1.5);
        let mut d = crate::Digest::default();
        d.record(0.05);
        d.record(0.1);
        metrics.digests.insert("resilience.retry_backoff_s".into(), d);
        let text = summary(&[], &metrics, 0.0);
        assert!(text.contains("resilience:"), "got:\n{text}");
        assert!(text.contains("faults_injected"));
        assert!(text.contains("mttr_s"));
        assert!(text.contains("retry_backoff_s"));
        // resilience.* prints under its header, without the prefix.
        assert!(!text.contains("resilience.faults_injected"), "got:\n{text}");
        assert!(!text.contains("gauges:"), "got:\n{text}");
    }

    #[test]
    fn chrome_trace_renders_counter_samples_as_c_events() {
        let spans = vec![span("gpu-0", "step", SpanKind::Exec, 0.0, 1.0)];
        let samples = vec![
            CounterSample { name: "genserve.batch_size".into(), t: 0.5, value: 3.0 },
            CounterSample { name: "genserve.block_utilization".into(), t: 0.5, value: 0.75 },
        ];
        let json = chrome_trace(&spans, &samples);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"genserve.batch_size\""));
        assert!(json.contains("\"value\":3"));
        assert!(json.contains("\"value\":0.75"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn summary_breaks_out_genserve_section() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("genserve.preemptions".into(), 3);
        metrics.counters.insert("genserve.generated_tokens".into(), 640);
        metrics.gauges.insert("genserve.tokens_per_s".into(), 123.4);
        let mut d = crate::Digest::default();
        d.record(16.0);
        d.record(64.0);
        metrics.digests.insert("genserve.batch_size".into(), d);
        let text = summary(&[], &metrics, 0.0);
        assert!(text.contains("genserve:"), "got:\n{text}");
        assert!(text.contains("preemptions"));
        assert!(text.contains("tokens_per_s"));
        assert!(text.contains("batch_size"));
        // genserve.* prints under its header, without the prefix.
        assert!(!text.contains("genserve.preemptions"));
        assert!(!text.contains("genserve.batch_size"), "genserve distributions stay sectioned");
    }

    #[test]
    fn summary_groups_any_prefix_under_its_own_header() {
        // No section was ever written for `remap.*`: the one printer
        // gives it a header like every other prefix.
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("remap.events".into(), 2);
        metrics.gauges.insert("remap.world".into(), 6.0);
        let mut d = crate::Digest::default();
        d.record(0.25);
        d.record(0.5);
        metrics.digests.insert("remap.blackout_s".into(), d);
        metrics.counters.insert("protocol.ThreeD.dispatch_bytes".into(), 2048);
        metrics.counters.insert("protocol.ThreeD.dispatch_copy_bytes".into(), 512);
        let text = summary(&[], &metrics, 0.0);
        let remap = text.find("remap:\n").expect("remap header");
        let section = &text[remap..];
        assert!(section.contains("  events "), "got:\n{text}");
        assert!(section.contains("  world "), "got:\n{text}");
        assert!(section.contains("6.000000"), "got:\n{text}");
        assert!(section.contains("  blackout_s "), "got:\n{text}");
        assert!(section.contains("n 2 mean 0.375000 min 0.250000"), "got:\n{text}");
        assert!(section.contains("max 0.500000"), "got:\n{text}");
        assert!(!text.contains("remap.events"), "got:\n{text}");
        // The data-plane line still reports the zero-copy share.
        assert!(text.contains("75.0% zero-copy"), "got:\n{text}");
    }

    #[test]
    fn summary_since_filters_earlier_spans() {
        let spans = vec![
            span("controller", "old_phase", SpanKind::Phase, 0.0, 1.0),
            span("controller", "new_phase", SpanKind::Phase, 5.0, 6.0),
        ];
        let text = summary(&spans, &MetricsSnapshot::default(), 4.0);
        assert!(text.contains("new_phase"));
        assert!(!text.contains("old_phase"));
    }

    #[test]
    fn summary_utilization_excludes_pre_window_spans() {
        // A warmup exec span before the window must not inflate (or
        // deflate) the reported utilization: with the window at t0=4,
        // gpu-0 is busy 1 of 2 visible seconds, not 3 of 2.
        let spans = vec![
            span("gpu-0", "warmup", SpanKind::Exec, 0.0, 2.0),
            span("gpu-0", "measured", SpanKind::Exec, 4.0, 5.0),
            span("controller", "iter", SpanKind::Phase, 4.0, 6.0),
        ];
        let text = summary(&spans, &MetricsSnapshot::default(), 4.0);
        assert!(text.contains("utilization over [4.000000, 6.000000]"), "got:\n{text}");
        assert!(text.contains("50.0%"), "got:\n{text}");
    }

    #[test]
    fn counter_samples_get_their_own_tracks() {
        let spans = vec![
            span("controller", "c", SpanKind::Phase, 0.0, 1.0),
            span("gpu-0", "x", SpanKind::Exec, 0.0, 1.0),
        ];
        let samples = vec![
            CounterSample { name: "genserve.batch_size".into(), t: 0.5, value: 3.0 },
            CounterSample { name: "genserve.block_utilization".into(), t: 0.5, value: 0.75 },
            CounterSample { name: "genserve.batch_size".into(), t: 0.9, value: 4.0 },
        ];
        let json = chrome_trace(&spans, &samples);
        // Span tracks take tids 0..2; counters follow, alphabetically:
        // batch_size -> 2, block_utilization -> 3. No "C" event may sit
        // on the controller's tid 0.
        assert!(json.contains(
            "\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"genserve.batch_size\"}"
        ));
        assert!(json.contains(
            "\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"genserve.block_utilization\"}"
        ));
        for line in json.lines().filter(|l| l.contains("\"ph\":\"C\"")) {
            assert!(!line.contains("\"tid\":0,"), "counter on controller track: {line}");
        }
        assert!(json.contains("\"ph\":\"C\",\"pid\":1,\"tid\":2,\"name\":\"genserve.batch_size\""));
        assert!(json
            .contains("\"ph\":\"C\",\"pid\":1,\"tid\":3,\"name\":\"genserve.block_utilization\""));
    }

    #[test]
    fn chrome_trace_escapes_control_chars_in_names() {
        let spans = vec![span("gpu-0", "exec\n\"q\"\t\u{1}", SpanKind::Exec, 0.0, 1.0)];
        let samples = vec![CounterSample { name: "ctr\\\"x\u{2}".into(), t: 0.0, value: 1.0 }];
        let json = chrome_trace(&spans, &samples);
        assert!(json.contains("exec\\n\\\"q\\\"\\t\\u0001"), "got:\n{json}");
        assert!(json.contains("ctr\\\\\\\"x\\u0002"), "got:\n{json}");
        // No raw control characters may survive into the output.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn track_order_is_stable_for_non_gpu_tracks() {
        let mut tracks: Vec<String> =
            ["gpu-1/genserve", "zeta", "gpu-2", "alpha", "controller", "gpu-0", "gpu-0/genserve"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        track_order(&mut tracks);
        assert_eq!(
            tracks,
            vec![
                "controller",
                "gpu-0",
                "gpu-2",
                "alpha",
                "gpu-0/genserve",
                "gpu-1/genserve",
                "zeta"
            ],
            "controller, gpus by index, then everything else alphabetically"
        );
        // Re-sorting is idempotent (stable output for repeated export).
        let again = {
            let mut t = tracks.clone();
            track_order(&mut t);
            t
        };
        assert_eq!(tracks, again);
    }
}
