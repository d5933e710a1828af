//! The causal span graph: deterministic DAG structure recovered from a
//! recorded trace.
//!
//! Span ids are allocated from a shared counter raced by device threads,
//! so their *values* differ between runs even though the trace's times
//! and shapes are identical. Everything here therefore orders spans by a
//! canonical key — `(start, end, track, name, kind)` — and uses ids only
//! to resolve edge structure, which *is* run-stable. No output of this
//! module (or its consumers) depends on raw id values
//! (`id_values_do_not_affect_structure`).
//!
//! Edges come from four instrumentation sites: the controller threads
//! each call's id through `DeviceMsg::Execute`, so a rank's queue-wait,
//! pull and exec spans cite their dispatch, whose own causes are the
//! exec spans it collected; `RankCtx::cause` lets worker spans
//! (transitions, genserve steps) cite the enclosing dispatch; phase
//! spans chain to their predecessor; and collective membership comes
//! from a `collective=<group>@<round range>` arg, whose round counters
//! agree across ranks because execution is SPMD-lockstep. Id `0` means
//! "not in the graph".

use std::collections::BTreeMap;

use hf_telemetry::{SpanKind, SpanRecord};

/// Total order on spans that does not involve ids: by start, then end,
/// then track, then name, then kind. Within one track, recording order
/// is deterministic (a single thread owns each track), and distinct
/// tracks are disambiguated by name — so this key is run-stable.
pub fn canonical_key(s: &SpanRecord) -> (f64, f64, &str, &str, &'static str) {
    (s.start, s.end, s.track.as_str(), s.name.as_str(), s.kind.category())
}

fn canonical_cmp(a: &SpanRecord, b: &SpanRecord) -> std::cmp::Ordering {
    let (asl, ael, at, an, ak) = canonical_key(a);
    let (bsl, bel, bt, bn, bk) = canonical_key(b);
    asl.total_cmp(&bsl).then(ael.total_cmp(&bel)).then(at.cmp(bt)).then(an.cmp(bn)).then(ak.cmp(bk))
}

/// A trace viewed as a causal DAG over its spans.
///
/// Node indices refer to `spans`, which is canonically sorted (see
/// [`canonical_key`]) and therefore identical across runs of the same
/// program. Edges come from two sources:
///
/// * explicit `causes` lists on spans (dispatch → rank work, phase →
///   next phase, scheduler step → next step);
/// * the reverse fan-in a dispatch span carries (its `causes` are the
///   exec spans it collected).
pub struct SpanGraph {
    /// All spans, canonically ordered.
    pub(crate) spans: Vec<SpanRecord>,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
}

impl SpanGraph {
    /// Builds the graph from a recorded trace.
    pub fn build(mut spans: Vec<SpanRecord>) -> Self {
        spans.sort_by(canonical_cmp);
        let mut index_of_id: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.id != 0 {
                index_of_id.insert(s.id, i);
            }
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            for c in &s.causes {
                if let Some(&j) = index_of_id.get(c) {
                    if j != i {
                        edges.push((j, i));
                    }
                }
            }
        }
        let mut children = vec![Vec::new(); spans.len()];
        let mut parents = vec![Vec::new(); spans.len()];
        for &(from, to) in &edges {
            children[from].push(to);
            parents[to].push(from);
        }
        // Adjacency in canonical (index) order, deduped: edge *sets* are
        // run-stable even though discovery order follows the racy
        // recording order of `causes` resolution.
        for adj in children.iter_mut().chain(parents.iter_mut()) {
            adj.sort_unstable();
            adj.dedup();
        }
        SpanGraph { spans, children, parents }
    }

    /// Effects of span `i` (canonically ordered indices).
    pub(crate) fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Causes of span `i` (canonically ordered indices).
    pub(crate) fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// Indices of spans on the controller track with the given kind,
    /// canonically ordered.
    pub(crate) fn controller_spans(&self, kind: SpanKind) -> Vec<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.track == hf_telemetry::CONTROLLER_TRACK && s.kind == kind)
            .map(|(i, _)| i)
            .collect()
    }

    /// The worker role a span belongs to: the `group` half of a
    /// `group::method` label (`actor::update_actor` → `actor`), or the
    /// label itself for controller phases and unprefixed names.
    pub(crate) fn role_of(&self, i: usize) -> &str {
        let name = &self.spans[i].name;
        match name.split_once("::") {
            Some((role, _)) => role,
            None => name.as_str(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(cause, effect)` index pairs, sorted.
    fn edges(g: &SpanGraph) -> Vec<(usize, usize)> {
        (0..g.spans.len()).flat_map(|i| g.children(i).iter().map(move |&j| (i, j))).collect()
    }

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

    #[test]
    fn edges_resolve_ids_and_survive_reordering() {
        let mut a = span("controller", "actor::gen", SpanKind::Dispatch, 0.0, 3.0);
        a.id = 10;
        a.causes = vec![20];
        let mut b = span("gpu-0", "actor::gen", SpanKind::Exec, 1.0, 2.5);
        b.id = 20;
        b.causes = vec![10];
        let g1 = SpanGraph::build(vec![a.clone(), b.clone()]);
        let g2 = SpanGraph::build(vec![b, a]);
        assert_eq!(edges(&g1), edges(&g2));
        // Exec (index 1, later start) <-> Dispatch (index 0): both
        // directions present (fan-out and collect fan-in).
        assert_eq!(edges(&g1), vec![(0, 1), (1, 0)]);
        assert_eq!(g1.children(0), &[1]);
        assert_eq!(g1.parents(0), &[1]);
    }

    #[test]
    fn id_values_do_not_affect_structure() {
        // Same trace, ids shifted by 1000 (as a rerun would produce):
        // identical canonical order and edge sets.
        let mk = |base: u64| {
            let mut d = span("controller", "c::m", SpanKind::Dispatch, 0.0, 2.0);
            d.id = base;
            d.causes = vec![base + 1];
            let mut e = span("gpu-0", "c::m", SpanKind::Exec, 0.5, 1.9);
            e.id = base + 1;
            e.causes = vec![base];
            SpanGraph::build(vec![d, e])
        };
        let g1 = mk(1);
        let g2 = mk(1001);
        assert_eq!(edges(&g1), edges(&g2));
        assert_eq!(
            g1.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            g2.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn role_extraction() {
        let g = SpanGraph::build(vec![
            span("controller", "actor::update_actor", SpanKind::Dispatch, 0.0, 1.0),
            span("controller", "generation", SpanKind::Phase, 0.0, 1.0),
        ]);
        let roles: Vec<&str> = (0..2).map(|i| g.role_of(i)).collect();
        assert!(roles.contains(&"actor"));
        assert!(roles.contains(&"generation"));
    }
}
