//! Critical-path extraction, bubble accounting, and what-if bounds over
//! a [`SpanGraph`].
//!
//! The runtime's controller blocks on each awaited call, so an RLHF
//! iteration's wall time decomposes exactly: phase spans tile the
//! iteration, dispatch spans (plus controller-local gaps) tile each
//! phase, and each dispatch is bounded by its straggler rank's chain —
//! queue wait, p2p pull, execute (with nested resharding transitions
//! split out). Walking that hierarchy yields the longest path through
//! the causal DAG as a gap-free tiling of the iteration, which is what
//! makes per-role / per-kind attribution sum to the iteration time.

use std::collections::BTreeMap;

use hf_telemetry::{covered, SpanKind, SpanRecord};

use crate::graph::SpanGraph;

const EPS: f64 = 1e-9;

/// One segment of an iteration's critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSegment {
    /// Algorithm phase the segment falls in.
    pub phase: String,
    /// Worker role (`actor`, `critic`, ...) or `controller` for
    /// controller-local gaps.
    pub role: String,
    /// What the time was spent on: `dispatch`, `queue_wait`, `comm`,
    /// `exec`, `transition`, `collect`, `rank_gap`, or `controller`.
    pub kind: String,
    /// Span label the segment came from (`actor::update_actor`), or
    /// `(controller)` for gaps.
    pub name: String,
    /// Segment interval (virtual seconds).
    pub start: f64,
    /// End of the interval.
    pub end: f64,
}

impl CriticalSegment {
    /// Segment length in virtual seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Analytic what-if bounds for one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// Iteration time if every resharding transition on the critical
    /// path were free (paper §5.4 / fig15: the transition-overhead
    /// headline, here as an exact subtraction on the measured path).
    pub zero_cost_transition_s: f64,
    /// Iteration time if generation fully overlapped with training
    /// (ROADMAP item 1, the DistFlow/G-Core async pipeline): the
    /// shorter of the two phases hides entirely behind the longer.
    pub full_gen_train_overlap_s: f64,
}

/// Everything the engine extracts for one PPO (or ReMax / Safe-RLHF /
/// GRPO) iteration.
#[derive(Debug, Clone)]
pub struct IterationAnalysis {
    /// Iteration index within the trace (0-based).
    pub index: usize,
    /// Iteration window start (first phase start, virtual seconds).
    pub start: f64,
    /// Iteration window end (last phase end).
    pub end: f64,
    /// Phase durations by phase name.
    pub phases: BTreeMap<String, f64>,
    /// The critical path as a gap-free tiling of the window.
    pub segments: Vec<CriticalSegment>,
    /// Critical-path seconds attributed per role.
    pub by_role: BTreeMap<String, f64>,
    /// Critical-path seconds attributed per kind.
    pub by_kind: BTreeMap<String, f64>,
    /// Idle fraction per GPU track over the window (1 − busy;
    /// busy = merged Exec+Comm cover). Sub-tracks (`gpu-n/genserve`)
    /// are excluded — their time nests inside the device's Exec spans —
    /// and so are host-lane tracks (`cpu-n`): a GPU whose host CPUs run
    /// the verifier pool is idle meanwhile.
    pub track_bubble: BTreeMap<String, f64>,
    /// Per-role idle fraction: over the devices hosting role `R`,
    /// the fraction of device-time *not* spent in `R`'s own spans.
    /// Under colocation this includes time serving other roles — it
    /// measures residency cost, not waste alone.
    pub role_bubble: BTreeMap<String, f64>,
    /// Analytic bounds.
    pub what_if: WhatIf,
}

impl IterationAnalysis {
    /// Iteration duration (virtual seconds).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Splits the trace into iterations and analyzes each. An iteration
/// starts at every `generation` phase span (all four drivers emit the
/// same three-phase backbone); traces with no phase spans yield none.
pub fn analyze_iterations(graph: &SpanGraph) -> Vec<IterationAnalysis> {
    let phase_idx = graph.controller_spans(SpanKind::Phase);
    if phase_idx.is_empty() {
        return Vec::new();
    }
    // Group phase spans into iterations.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &p in &phase_idx {
        if graph.spans[p].name == "generation" || groups.is_empty() {
            groups.push(Vec::new());
        }
        groups.last_mut().expect("pushed above").push(p);
    }
    let dispatches = graph.controller_spans(SpanKind::Dispatch);
    groups
        .iter()
        .enumerate()
        .map(|(index, phases)| analyze_one(graph, index, phases, &dispatches))
        .collect()
}

fn analyze_one(
    graph: &SpanGraph,
    index: usize,
    phases: &[usize],
    dispatches: &[usize],
) -> IterationAnalysis {
    let start = graph.spans[phases[0]].start;
    let end = phases.iter().map(|&p| graph.spans[p].end).fold(start, f64::max);

    let mut phase_durs: BTreeMap<String, f64> = BTreeMap::new();
    let mut segments: Vec<CriticalSegment> = Vec::new();
    for &p in phases {
        let ps = &graph.spans[p];
        *phase_durs.entry(ps.name.clone()).or_insert(0.0) += ps.duration();
        // Dispatches whose await completed inside this phase belong to
        // it (the controller records a dispatch span at collect time),
        // wherever they were issued: a call issued on a future starts in
        // the phase that produces its input and ends in the next.
        let in_phase: Vec<usize> = dispatches
            .iter()
            .copied()
            .filter(|&d| {
                let s = &graph.spans[d];
                s.end > ps.start + EPS && s.end <= ps.end + EPS
            })
            .collect();
        let mut cursor = ps.start;
        for &d in &in_phase {
            let ds = &graph.spans[d];
            if ds.end <= cursor + EPS {
                // Fully hidden behind an earlier (concurrent) await:
                // not on the critical path.
                continue;
            }
            if ds.start > cursor + EPS {
                segments.push(CriticalSegment {
                    phase: ps.name.clone(),
                    role: "controller".into(),
                    kind: "controller".into(),
                    name: "(controller)".into(),
                    start: cursor,
                    end: ds.start,
                });
            }
            let clip = cursor.max(ds.start);
            decompose_dispatch(graph, d, &ps.name, clip, &mut segments);
            cursor = ds.end;
        }
        if ps.end > cursor + EPS {
            segments.push(CriticalSegment {
                phase: ps.name.clone(),
                role: "controller".into(),
                kind: "controller".into(),
                name: "(controller)".into(),
                start: cursor,
                end: ps.end,
            });
        }
    }
    segments.retain(|s| s.seconds() > EPS);

    let mut by_role: BTreeMap<String, f64> = BTreeMap::new();
    let mut by_kind: BTreeMap<String, f64> = BTreeMap::new();
    for s in &segments {
        *by_role.entry(s.role.clone()).or_insert(0.0) += s.seconds();
        *by_kind.entry(s.kind.clone()).or_insert(0.0) += s.seconds();
    }

    let (track_bubble, role_bubble) = bubbles(graph, start, end);

    let transition_s = by_kind.get("transition").copied().unwrap_or(0.0);
    let duration = end - start;
    let gen = phase_durs.get("generation").copied();
    let train = phase_durs.get("training").copied();
    let what_if = WhatIf {
        zero_cost_transition_s: duration - transition_s,
        full_gen_train_overlap_s: match (gen, train) {
            (Some(g), Some(t)) => duration - g.min(t),
            _ => duration,
        },
    };

    IterationAnalysis {
        index,
        start,
        end,
        phases: phase_durs,
        segments,
        by_role,
        by_kind,
        track_bubble,
        role_bubble,
        what_if,
    }
}

/// Tiles `[clip, d.end]` with the straggler rank's chain for dispatch
/// `d`: rpc-dispatch latency, queue wait, p2p pulls, execute (nested
/// `transition.*` spans split out), and the collect tail.
fn decompose_dispatch(
    graph: &SpanGraph,
    d: usize,
    phase: &str,
    clip: f64,
    out: &mut Vec<CriticalSegment>,
) {
    let ds = &graph.spans[d];
    let role = graph.role_of(d).to_string();
    let mut push = |kind: &str, name: &str, s: f64, e: f64| {
        let s = s.max(clip);
        if e > s + EPS {
            out.push(CriticalSegment {
                phase: phase.to_string(),
                role: role.clone(),
                kind: kind.into(),
                name: name.into(),
                start: s,
                end: e,
            });
        }
    };

    // Straggler: the collected exec span that finished last.
    let straggler =
        graph.parents(d).iter().copied().filter(|&p| graph.spans[p].kind == SpanKind::Exec).max_by(
            |&a, &b| {
                let (sa, sb) = (&graph.spans[a], &graph.spans[b]);
                sa.end.total_cmp(&sb.end).then(sa.track.cmp(&sb.track).reverse())
            },
        );
    let Some(exec) = straggler else {
        // No collected exec spans (errored call): whole await is
        // dispatch overhead.
        push("dispatch", &ds.name, ds.start, ds.end);
        return;
    };
    let es = &graph.spans[exec];

    // The straggler's per-call chain: this call's children on the
    // straggler's track — its GPU's, or for a host-lane call its `cpu-n`
    // track (queue wait, p2p pull, and the spans the worker nested
    // inside its execute, e.g. resharding transitions).
    let chain: Vec<usize> = graph
        .children(d)
        .iter()
        .copied()
        .filter(|&c| c != exec && graph.spans[c].track == es.track)
        .collect();

    let mut cursor = ds.start;
    // Pre-exec chain: spans that end before the exec span begins.
    let mut first = true;
    for &c in &chain {
        let cs = &graph.spans[c];
        if cs.end > es.start + EPS {
            continue;
        }
        if cs.start > cursor + EPS {
            push(if first { "dispatch" } else { "rank_gap" }, &ds.name, cursor, cs.start);
        }
        first = false;
        let kind = match cs.kind {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Comm => "comm",
            _ => "exec",
        };
        push(kind, &cs.name, cursor.max(cs.start), cs.end);
        cursor = cursor.max(cs.end);
    }
    if es.start > cursor + EPS {
        push(if first { "dispatch" } else { "rank_gap" }, &ds.name, cursor, es.start);
    }

    // Execute, with interior `transition.*` spans carved out.
    let mut transitions: Vec<(f64, f64, String)> = chain
        .iter()
        .map(|&c| &graph.spans[c])
        .filter(|cs| {
            cs.name.starts_with("transition.")
                && cs.start >= es.start - EPS
                && cs.end <= es.end + EPS
        })
        .map(|cs| (cs.start, cs.end, cs.name.clone()))
        .collect();
    transitions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut t = es.start;
    for (ts, te, tn) in &transitions {
        let ts = ts.max(t);
        if ts > t + EPS {
            push("exec", &es.name, t, ts);
        }
        push("transition", tn, ts, *te);
        t = t.max(*te);
    }
    if es.end > t + EPS {
        push("exec", &es.name, t, es.end);
    }
    // Collect tail: controller await past the straggler's finish.
    if ds.end > es.end + EPS {
        push("collect", &ds.name, es.end, ds.end);
    }
}

/// Per-track and per-role bubble fractions over `[t0, t1]`.
fn bubbles(graph: &SpanGraph, t0: f64, t1: f64) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let window = t1 - t0;
    if window <= 0.0 {
        return (BTreeMap::new(), BTreeMap::new());
    }
    let is_device_track = |t: &str| t.starts_with("gpu-") && !t.contains('/');
    let busy_kind = |s: &SpanRecord| matches!(s.kind, SpanKind::Exec | SpanKind::Comm);

    let mut per_track: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    // role -> track -> that role's own busy intervals on the track.
    let mut per_role: BTreeMap<String, BTreeMap<String, Vec<(f64, f64)>>> = BTreeMap::new();
    for (i, s) in graph.spans.iter().enumerate() {
        if !is_device_track(&s.track) || !busy_kind(s) || s.end <= t0 || s.start >= t1 {
            continue;
        }
        per_track.entry(s.track.clone()).or_default().push((s.start, s.end));
        if s.name.contains("::") {
            per_role
                .entry(graph.role_of(i).to_string())
                .or_default()
                .entry(s.track.clone())
                .or_default()
                .push((s.start, s.end));
        }
    }
    let track_bubble: BTreeMap<String, f64> =
        per_track.into_iter().map(|(t, iv)| (t, 1.0 - covered(iv, t0, t1) / window)).collect();
    let role_bubble: BTreeMap<String, f64> = per_role
        .into_iter()
        .map(|(role, tracks)| {
            let n = tracks.len() as f64;
            let busy: f64 = tracks.into_values().map(|iv| covered(iv, t0, t1)).sum();
            (role, 1.0 - busy / (window * n))
        })
        .collect();
    (track_bubble, role_bubble)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, name: &str, kind: SpanKind, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            track: track.into(),
            name: name.into(),
            kind,
            start,
            end,
            id: 0,
            causes: Vec::new(),
            args: Vec::new(),
        }
    }

    /// A hand-built two-phase iteration: one generation dispatch with a
    /// nested transition, one training dispatch with queue wait.
    fn sample_trace() -> Vec<SpanRecord> {
        let mut spans = Vec::new();
        // Phases: generation [0,10], training [10,16].
        let mut gen = span("controller", "generation", SpanKind::Phase, 0.0, 10.0);
        gen.id = 100;
        let mut train = span("controller", "training", SpanKind::Phase, 10.0, 16.0);
        train.id = 101;
        train.causes = vec![100];
        // Generation dispatch [0, 10]; straggler gpu-1 exec [1, 10]
        // with transition [1, 3]; gpu-0 exec [1, 8].
        let mut d1 = span("controller", "actor::generate_sequences", SpanKind::Dispatch, 0.0, 10.0);
        d1.id = 1;
        d1.causes = vec![11, 12];
        let mut e0 = span("gpu-0", "actor::generate_sequences", SpanKind::Exec, 1.0, 8.0);
        e0.id = 11;
        e0.causes = vec![1];
        let mut e1 = span("gpu-1", "actor::generate_sequences", SpanKind::Exec, 1.0, 10.0);
        e1.id = 12;
        e1.causes = vec![1];
        let mut tr = span("gpu-1", "transition.to_generation", SpanKind::Comm, 1.0, 3.0);
        tr.causes = vec![1];
        tr.args = vec![("collective".into(), "0-1@0..1".into())];
        // Training dispatch [10, 16]; straggler gpu-0 with queue wait
        // [10.5, 12] then exec [12, 16].
        let mut d2 = span("controller", "actor::update_actor", SpanKind::Dispatch, 10.0, 16.0);
        d2.id = 2;
        d2.causes = vec![21];
        let mut q = span("gpu-0", "actor::update_actor", SpanKind::QueueWait, 10.5, 12.0);
        q.causes = vec![2];
        let mut e2 = span("gpu-0", "actor::update_actor", SpanKind::Exec, 12.0, 16.0);
        e2.id = 21;
        e2.causes = vec![2];
        spans.extend([gen, train, d1, e0, e1, tr, d2, q, e2]);
        spans
    }

    #[test]
    fn critical_path_tiles_the_iteration() {
        let g = SpanGraph::build(sample_trace());
        let iters = analyze_iterations(&g);
        assert_eq!(iters.len(), 1);
        let it = &iters[0];
        assert_eq!(it.duration(), 16.0);
        let total: f64 = it.segments.iter().map(|s| s.seconds()).sum();
        assert!((total - 16.0).abs() < 1e-9, "tiling must be gap-free, got {total}");
        // Segments are contiguous and ordered.
        for w in it.segments.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-9, "{w:?}");
        }
    }

    #[test]
    fn attribution_splits_transition_queue_and_exec() {
        let g = SpanGraph::build(sample_trace());
        let it = &analyze_iterations(&g)[0];
        // gen: dispatch 1.0 + transition 2.0 + exec 7.0;
        // train: dispatch 0.5 + queue 1.5 + exec 4.0.
        assert!((it.by_kind["transition"] - 2.0).abs() < 1e-9, "{:?}", it.by_kind);
        assert!((it.by_kind["queue_wait"] - 1.5).abs() < 1e-9);
        assert!((it.by_kind["exec"] - 11.0).abs() < 1e-9);
        assert!((it.by_kind["dispatch"] - 1.5).abs() < 1e-9);
        assert!((it.by_role["actor"] - 16.0).abs() < 1e-9);
        // The straggler (gpu-1, end 10) wins over gpu-0 (end 8) in
        // generation: its transition is on the path.
        assert_eq!(it.phases["generation"], 10.0);
    }

    #[test]
    fn what_if_bounds() {
        let g = SpanGraph::build(sample_trace());
        let it = &analyze_iterations(&g)[0];
        assert!((it.what_if.zero_cost_transition_s - 14.0).abs() < 1e-9);
        // min(gen=10, train=6) = 6 hidden -> 10.
        assert!((it.what_if.full_gen_train_overlap_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bubbles_account_idle_per_track_and_role() {
        let g = SpanGraph::build(sample_trace());
        let it = &analyze_iterations(&g)[0];
        // gpu-0 busy: [1,8] ∪ [12,16] = 11 of 16 -> bubble 5/16.
        assert!((it.track_bubble["gpu-0"] - 5.0 / 16.0).abs() < 1e-9);
        // gpu-1 busy: [1,10] = 9 of 16 -> bubble 7/16.
        assert!((it.track_bubble["gpu-1"] - 7.0 / 16.0).abs() < 1e-9);
        // actor role busy = 11 + 9 = 20 over 2 tracks × 16 s.
        assert!((it.role_bubble["actor"] - (1.0 - 20.0 / 32.0)).abs() < 1e-9);
    }

    #[test]
    fn multiple_iterations_split_on_generation() {
        let mut spans = sample_trace();
        let shift = 16.0;
        for mut s in sample_trace() {
            s.start += shift;
            s.end += shift;
            // Second run's ids would differ; zero them (edges within
            // iteration 2 vanish, which only coarsens its path).
            s.id = 0;
            s.causes.clear();
            spans.push(s);
        }
        let g = SpanGraph::build(spans);
        let iters = analyze_iterations(&g);
        assert_eq!(iters.len(), 2);
        assert_eq!(iters[1].start, 16.0);
        let total: f64 = iters[1].segments.iter().map(|s| s.seconds()).sum();
        assert!((total - 16.0).abs() < 1e-9, "coarse tiling still covers the window");
    }

    #[test]
    fn a_dispatch_belongs_to_the_phase_its_await_completes_in() {
        // A call issued on a future: its dispatch span starts with the
        // generation call that produces its input and ends in the next
        // phase, after waiting on the device for that input.
        let mut gen = span("controller", "generation", SpanKind::Phase, 0.0, 10.0);
        gen.id = 100;
        let mut prep = span("controller", "experience_preparation", SpanKind::Phase, 10.0, 14.0);
        prep.id = 101;
        prep.causes = vec![100];
        let mut d1 = span("controller", "actor::generate_sequences", SpanKind::Dispatch, 0.0, 10.0);
        d1.id = 1;
        d1.causes = vec![11];
        let mut e1 = span("gpu-0", "actor::generate_sequences", SpanKind::Exec, 1.0, 10.0);
        e1.id = 11;
        e1.causes = vec![1];
        let mut d2 = span("controller", "critic::compute_values", SpanKind::Dispatch, 0.0, 14.0);
        d2.id = 2;
        d2.causes = vec![21];
        let mut q = span("gpu-1", "critic::compute_values", SpanKind::QueueWait, 1.0, 10.0);
        q.causes = vec![2];
        let mut pull = span("gpu-1", "critic::compute_values", SpanKind::Comm, 10.0, 11.0);
        pull.causes = vec![2];
        let mut e2 = span("gpu-1", "critic::compute_values", SpanKind::Exec, 11.0, 14.0);
        e2.id = 21;
        e2.causes = vec![2];
        let g = SpanGraph::build(vec![gen, prep, d1, e1, d2, q, pull, e2]);
        let it = &analyze_iterations(&g)[0];
        let total: f64 = it.segments.iter().map(|s| s.seconds()).sum();
        assert!((total - 14.0).abs() < 1e-9, "the tiling is exact: {total}");
        for w in it.segments.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-9, "{w:?}");
        }
        assert!(!it.by_kind.contains_key("controller"), "{:?}", it.by_kind);
        // The wait for the future is clipped off the path by the
        // producer's own dispatch span; the pull and the pass are on it.
        assert!(!it.by_kind.contains_key("queue_wait"), "{:?}", it.by_kind);
        assert!((it.by_kind["comm"] - 1.0).abs() < 1e-9);
        assert!((it.by_role["critic"] - 4.0).abs() < 1e-9);
        assert!(it.segments.iter().all(|s| (s.role == "critic") == (s.phase != "generation")));
    }

    #[test]
    fn concurrent_awaits_do_not_double_count() {
        // Two dispatches overlapping in one phase (experience prep):
        // only the non-hidden remainder of the second is on the path.
        let mut phase = span("controller", "experience_preparation", SpanKind::Phase, 0.0, 6.0);
        phase.id = 100;
        let mut d1 = span("controller", "critic::compute_values", SpanKind::Dispatch, 0.0, 4.0);
        d1.id = 1;
        d1.causes = vec![11];
        let mut e1 = span("gpu-0", "critic::compute_values", SpanKind::Exec, 0.5, 4.0);
        e1.id = 11;
        e1.causes = vec![1];
        let mut d2 = span("controller", "reward::compute_reward", SpanKind::Dispatch, 0.0, 5.0);
        d2.id = 2;
        d2.causes = vec![12];
        let mut e2 = span("gpu-1", "reward::compute_reward", SpanKind::Exec, 0.5, 5.0);
        e2.id = 12;
        e2.causes = vec![2];
        let g = SpanGraph::build(vec![phase, d1, e1, d2, e2]);
        let it = &analyze_iterations(&g)[0];
        let total: f64 = it.segments.iter().map(|s| s.seconds()).sum();
        assert!((total - 6.0).abs() < 1e-9, "overlap must not double-count: {total}");
        // The reward await contributes only its exposed tail [4, 5].
        let reward: f64 =
            it.segments.iter().filter(|s| s.role == "reward").map(|s| s.seconds()).sum();
        assert!((reward - 1.0).abs() < 1e-9, "{:?}", it.segments);
    }

    #[test]
    fn a_host_lane_straggler_is_followed_on_its_own_track() {
        // GRPO preparation on two GPUs: the reference pass on each GPU,
        // the verifier on each GPU's host CPUs, in virtual time beside
        // it. cpu-1 is the verifier's straggler: it waited past the
        // reference pass and pulled its input before running.
        let mut gen = span("controller", "generation", SpanKind::Phase, 0.0, 10.0);
        gen.id = 100;
        let mut prep = span("controller", "experience_preparation", SpanKind::Phase, 10.0, 20.0);
        prep.id = 101;
        prep.causes = vec![100];
        let mut d1 = span("controller", "actor::generate_sequences", SpanKind::Dispatch, 0.0, 10.0);
        d1.id = 1;
        d1.causes = vec![11];
        let mut e1 = span("gpu-0", "actor::generate_sequences", SpanKind::Exec, 1.0, 10.0);
        e1.id = 11;
        e1.causes = vec![1];
        let mut d2 =
            span("controller", "reference::compute_ref_log_prob", SpanKind::Dispatch, 0.0, 12.0);
        d2.id = 2;
        d2.causes = vec![21, 22];
        let mut spans = vec![gen, prep, d1, e1, d2];
        for (id, track) in [(21, "gpu-0"), (22, "gpu-1")] {
            let mut q =
                span(track, "reference::compute_ref_log_prob", SpanKind::QueueWait, 1.0, 10.0);
            q.causes = vec![2];
            let mut e = span(track, "reference::compute_ref_log_prob", SpanKind::Exec, 10.0, 12.0);
            e.id = id;
            e.causes = vec![2];
            spans.extend([q, e]);
        }
        let mut d3 = span("controller", "reward::compute_reward", SpanKind::Dispatch, 0.0, 20.0);
        d3.id = 3;
        d3.causes = vec![31, 32];
        let mut e31 = span("cpu-0", "reward::compute_reward", SpanKind::Exec, 10.0, 18.0);
        e31.id = 31;
        e31.causes = vec![3];
        let mut q32 = span("cpu-1", "reward::compute_reward", SpanKind::QueueWait, 1.0, 13.0);
        q32.causes = vec![3];
        let mut pull = span("cpu-1", "reward::compute_reward", SpanKind::Comm, 13.0, 14.0);
        pull.causes = vec![3];
        let mut e32 = span("cpu-1", "reward::compute_reward", SpanKind::Exec, 14.0, 20.0);
        e32.id = 32;
        e32.causes = vec![3];
        spans.extend([d3, e31, q32, pull, e32]);

        let it = &analyze_iterations(&SpanGraph::build(spans))[0];
        let total: f64 = it.segments.iter().map(|s| s.seconds()).sum();
        assert!((total - 20.0).abs() < 1e-9, "the tiling is exact: {total}");
        // Past the reference pass, the path is cpu-1's wait, pull and run.
        let reward: Vec<(&str, f64, f64)> = (it.segments.iter())
            .filter(|s| s.role == "reward")
            .map(|s| (s.kind.as_str(), s.start, s.end))
            .collect();
        assert_eq!(
            reward,
            [("queue_wait", 12.0, 13.0), ("comm", 13.0, 14.0), ("exec", 14.0, 20.0)]
        );
        assert!((it.by_role["reference"] - 2.0).abs() < 1e-9, "{:?}", it.by_role);
        // The GPUs idle while their host CPUs run the verifier: gpu-0 is
        // busy [1, 12], gpu-1 [10, 12]; no host track has a bubble.
        assert!((it.track_bubble["gpu-0"] - 9.0 / 20.0).abs() < 1e-9);
        assert!((it.track_bubble["gpu-1"] - 18.0 / 20.0).abs() < 1e-9);
        assert_eq!(it.track_bubble.len(), 2, "{:?}", it.track_bubble);
    }
}
