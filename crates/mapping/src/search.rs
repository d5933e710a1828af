//! `d_cost` and the outer mapping search (paper Algorithm 1).
//!
//! For every placement plan (set partition) and every GPU allocation to
//! its colocated sets, pick per-model strategies with `auto_parallel`
//! (cached per `(role, allocation, pressure)` — the paper's caching that
//! keeps the search under half an hour, §8.5), estimate the end-to-end
//! RLHF iteration latency by stage composition — colocated models in the
//! same stage serialize, disjoint sets parallelize (Lines 25–34) — and
//! return the mapping minimizing iteration latency.
//!
//! The search is one pruned best-first loop:
//!
//! * **Branch-and-bound.** Every `(plan, alloc)` candidate gets an
//!   optimistic `d_cost` lower bound composed from per-role best-case
//!   latencies ([`crate::strategy::role_cost_bounds`], computed at zero
//!   colocation pressure). Candidates whose bound cannot beat the
//!   incumbent best are skipped before `auto_parallel` ever runs.
//!   Because a pruned candidate's true cost is ≥ its bound ≥ the
//!   incumbent, pruning never changes the minimum cost found.
//! * **Best-first ordering.** Candidates are sorted by `(bound,
//!   enumeration order)`, so the incumbent drops to near-optimal almost
//!   immediately and the bound prunes the long tail. Ties on cost go to
//!   the earlier-enumerated candidate, which makes the winning
//!   *mapping* — not only its cost — a function of the inputs, equal to
//!   what the exhaustive [`Mapper::search_sequential`] reference returns.
//!
//! After pruning a search evaluates 1–480 candidates in 30 µs–3.4 ms;
//! a worker pool over that loop lost to it at every measured point
//! (DESIGN.md §5), so there is none.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use hf_modelspec::PerfModel;
use hf_telemetry::Telemetry;

use crate::dataflow::{DataflowSpec, Role};
use crate::placement::{enum_alloc, set_partitions, PlacementPlan};
use crate::strategy::{
    auto_parallel, min_state_bytes_per_gpu, role_cost_bounds, verifier_eval_latency, ModelStrategy,
    RoleCostBounds,
};

/// Per-stage latencies of one RLHF iteration (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// Response generation (includes the actor's resharding transition).
    pub generation: f64,
    /// Experience preparation (critic/reference/reward/cost forwards).
    pub preparation: f64,
    /// Actor + critic training updates.
    pub training: f64,
    /// The transition component counted inside `generation`.
    pub transition: f64,
}

impl StageCosts {
    /// End-to-end iteration latency.
    pub fn total(&self) -> f64 {
        self.generation + self.preparation + self.training
    }
}

/// A complete mapping: placement, allocation, strategies, and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// The placement plan.
    pub plan: PlacementPlan,
    /// GPUs allocated to each colocated set.
    pub alloc: Vec<usize>,
    /// Per-role strategies.
    pub strategies: BTreeMap<Role, ModelStrategy>,
    /// Estimated stage costs.
    pub costs: StageCosts,
}

impl Mapping {
    /// RLHF throughput (tokens/s) this mapping achieves on `workload`.
    pub fn throughput(&self, dataflow: &DataflowSpec) -> f64 {
        dataflow.workload.throughput(self.costs.total())
    }
}

/// Search instrumentation counters (monotone across searches on one
/// [`Mapper`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// `(plan, alloc)` combinations scored with `d_cost`.
    pub evaluations: usize,
    /// Candidates skipped because their lower bound could not beat the
    /// incumbent.
    pub pruned: usize,
    /// Candidates rejected because some role had no feasible strategy.
    pub infeasible: usize,
    /// Strategy-cache hits.
    pub cache_hits: usize,
    /// Strategy-cache misses (each one runs `auto_parallel`).
    pub cache_misses: usize,
    /// Wall-clock seconds spent inside `search`/`search_sequential`.
    pub wall_seconds: f64,
}

impl SearchStats {
    /// Fraction of strategy lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The incumbent best mapping of one search. Ties on cost go to the
/// lower enumeration index, so the winner does not depend on the order
/// candidates are considered in.
#[derive(Default)]
struct Incumbent(Option<(f64, u64, Mapping)>);

impl Incumbent {
    /// Current incumbent cost (`f64::INFINITY` before the first offer).
    fn cost(&self) -> f64 {
        self.0.as_ref().map_or(f64::INFINITY, |(c, _, _)| *c)
    }

    fn offer(&mut self, seq: u64, m: Mapping) {
        let cost = m.costs.total();
        if self.0.as_ref().is_none_or(|(c, s, _)| (cost, seq) < (*c, *s)) {
            self.0 = Some((cost, seq, m));
        }
    }

    fn take(self) -> Option<Mapping> {
        self.0.map(|(_, _, m)| m)
    }
}

/// One role's contribution to the three pipeline stages.
struct RoleStageCost {
    gen: f64,
    prep: f64,
    train: f64,
    transition: f64,
}

type CacheKey = (Role, usize, u64);

/// The mapping searcher (Algorithm 1).
pub struct Mapper {
    /// The analytic performance model.
    pub perf: PerfModel,
    /// The dataflow being mapped.
    pub dataflow: DataflowSpec,
    /// Total GPUs available.
    pub total_gpus: usize,
    /// Allocation step size (GPUs); machine-sized steps keep large
    /// searches tractable.
    pub granularity: usize,
    cache: RefCell<HashMap<CacheKey, Option<ModelStrategy>>>,
    bounds: RefCell<HashMap<(Role, usize), Option<RoleCostBounds>>>,
    stats: RefCell<SearchStats>,
    telemetry: Telemetry,
}

impl Mapper {
    /// Creates a mapper; granularity defaults to one machine when the
    /// cluster is larger than two machines, otherwise a single GPU.
    pub fn new(perf: PerfModel, dataflow: DataflowSpec, total_gpus: usize) -> Self {
        let granularity = if total_gpus > 16 { perf.cluster.machine.gpus } else { 1 };
        Self::with_granularity(perf, dataflow, total_gpus, granularity)
    }

    /// The largest step size ≤ `requested` that divides `total_gpus`.
    ///
    /// Allocations are sums of granularity-aligned set sizes, so they
    /// can only ever total a multiple of the granularity: a granularity
    /// that does not divide the world (a 23-GPU survivor set stepped by
    /// machine-sized 8s, say) makes every full allocation unreachable
    /// and `min_alloc`'s final clamp to `total_gpus` unaligned. Falling
    /// back to `gcd(requested, total)` keeps as much machine-alignment
    /// as the world size allows.
    fn effective_granularity(total_gpus: usize, requested: usize) -> usize {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        gcd(requested.max(1), total_gpus.max(1))
    }

    /// Creates a mapper with an explicit allocation granularity
    /// (reduced to the nearest divisor of `total_gpus`; see
    /// [`Mapper::resize_world`]).
    pub fn with_granularity(
        perf: PerfModel,
        dataflow: DataflowSpec,
        total_gpus: usize,
        granularity: usize,
    ) -> Self {
        let granularity = Self::effective_granularity(total_gpus, granularity);
        Mapper {
            perf,
            dataflow,
            total_gpus,
            granularity,
            cache: RefCell::default(),
            bounds: RefCell::default(),
            stats: RefCell::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; each search records its deltas as
    /// `search.*` counters and gauges.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of (plan, allocation) combinations evaluated so far.
    pub fn evaluations(&self) -> usize {
        self.stats.borrow().evaluations
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> SearchStats {
        *self.stats.borrow()
    }

    /// Entries in the strategy cache.
    pub fn cache_entries(&self) -> usize {
        self.cache.borrow().len()
    }

    fn cached_strategy(&self, role: Role, n: usize, resident_other: f64) -> Option<ModelStrategy> {
        // Bucket colocation pressure to GB so cache entries are reused
        // across placements (the paper's caching trick, §8.5).
        let bucket = (resident_other / 1e9).round() as u64;
        let key = (role, n, bucket);
        if let Some(hit) = self.cache.borrow().get(&key) {
            self.stats.borrow_mut().cache_hits += 1;
            return hit.clone();
        }
        self.stats.borrow_mut().cache_misses += 1;
        let strat = auto_parallel(
            &self.perf,
            self.dataflow.model(role),
            role,
            n,
            bucket as f64 * 1e9,
            &self.dataflow.workload,
        );
        self.cache.borrow_mut().insert(key, strat.clone());
        strat
    }

    /// Best-case per-role latencies for `n` GPUs, cached per `(role, n)`
    /// (pressure-independent by construction — see
    /// [`role_cost_bounds`]).
    fn cached_bounds(&self, role: Role, n: usize) -> Option<RoleCostBounds> {
        let key = (role, n);
        if let Some(hit) = self.bounds.borrow().get(&key) {
            return *hit;
        }
        let b = role_cost_bounds(
            &self.perf,
            self.dataflow.model(role),
            role,
            n,
            &self.dataflow.workload,
        );
        self.bounds.borrow_mut().insert(key, b);
        b
    }

    /// `get_min_alloc` (Line 9): the smallest GPU count per set fitting
    /// all colocated members' states, clamped to the cluster size and
    /// aligned up to the allocation granularity.
    pub fn min_alloc(&self, set: &[Role]) -> usize {
        let usable = self.perf.usable_gpu_bytes();
        let mut n = 1usize;
        loop {
            let total: f64 =
                set.iter().map(|&r| min_state_bytes_per_gpu(self.dataflow.model(r), r, n)).sum();
            if total <= usable * 0.9 || n >= self.total_gpus {
                break;
            }
            // Clamp the doubling so non-power-of-two clusters (e.g. 12
            // GPUs) cannot yield a minimum larger than the cluster.
            n = (n * 2).min(self.total_gpus);
        }
        // The granularity divides `total_gpus` by construction
        // (`effective_granularity`), so clamping to the cluster size
        // cannot produce an unaligned minimum that `enum_alloc` would
        // round back up past the cluster.
        let aligned = n.div_ceil(self.granularity) * self.granularity;
        aligned.min(self.total_gpus)
    }

    /// Re-targets the search at a different world size — the elastic
    /// re-mapping entry point after a rank loss or a load-shift device
    /// grant. The strategy and bound caches are keyed by
    /// `(role, gpu-count[, pressure])` and are world-size independent,
    /// so they carry over: a re-search after 16→12 reuses every
    /// allocation size both worlds share and only computes the rest.
    /// The granularity is re-derived from the constructor default and
    /// reduced to divide the new world.
    pub fn resize_world(&mut self, total_gpus: usize) {
        let requested = if total_gpus > 16 { self.perf.cluster.machine.gpus } else { 1 };
        self.total_gpus = total_gpus;
        self.granularity = Self::effective_granularity(total_gpus, requested);
    }

    /// Folds one role's stage contribution given its component
    /// latencies — the single place the Algorithm 1 stage composition
    /// rules live, shared by `d_cost` and the pruning bound.
    fn role_stage_cost(
        &self,
        role: Role,
        gen_latency: f64,
        transition: f64,
        train_latency: f64,
        infer_latency: f64,
    ) -> RoleStageCost {
        let updates = self.dataflow.workload.total_updates() as f64;
        let gen_passes = self.dataflow.algo.generation_passes() as f64;
        match role {
            Role::Actor => RoleStageCost {
                gen: gen_passes * gen_latency + transition,
                prep: 0.0,
                train: updates * train_latency,
                transition,
            },
            Role::Critic => RoleStageCost {
                gen: 0.0,
                prep: infer_latency,
                train: updates * train_latency,
                transition: 0.0,
            },
            // Rewards are scored once per generation pass (ReMax scores
            // the greedy baseline too), so the reward-family roles scale
            // with `gen_passes` while the single-pass prep roles do not.
            Role::Reward => RoleStageCost {
                gen: 0.0,
                prep: gen_passes * infer_latency,
                train: 0.0,
                transition: 0.0,
            },
            Role::RewardEvaluator => RoleStageCost {
                gen: 0.0,
                prep: gen_passes * infer_latency,
                train: 0.0,
                transition: 0.0,
            },
            Role::Reference => {
                RoleStageCost { gen: 0.0, prep: infer_latency, train: 0.0, transition: 0.0 }
            }
            Role::Cost => {
                RoleStageCost { gen: 0.0, prep: infer_latency, train: 0.0, transition: 0.0 }
            }
        }
    }

    /// Stage composition: within a set, members serialize; across sets,
    /// the stage takes the slowest set (Lines 28–33). A CPU-bound role's
    /// preparation runs on its set's host CPUs, beside the set's GPU
    /// passes rather than after them, so a set prepares in the longer of
    /// its GPU and host sums — what the runtime's host lane executes.
    /// `cost_of` yields one role's contribution on its set's `n` GPUs, or
    /// `None` if the role is infeasible there.
    fn compose_stages(
        &self,
        plan: &PlacementPlan,
        alloc: &[usize],
        mut cost_of: impl FnMut(Role, usize) -> Option<RoleStageCost>,
    ) -> Option<StageCosts> {
        // A dataflow has at most 6 roles, so at most 6 sets; fixed
        // arrays keep this allocation-free (it runs once per candidate).
        debug_assert!(plan.sets.len() <= 8);
        let mut gen = [0.0f64; 8];
        let mut prep = [0.0f64; 8];
        let mut host_prep = [0.0f64; 8];
        let mut train = [0.0f64; 8];
        let mut transition = 0.0f64;
        for (si, (set, &n)) in plan.sets.iter().zip(alloc.iter()).enumerate() {
            for &role in set {
                let c = cost_of(role, n)?;
                gen[si] += c.gen;
                if role.is_cpu_bound() {
                    host_prep[si] += c.prep;
                } else {
                    prep[si] += c.prep;
                }
                train[si] += c.train;
                if c.transition != 0.0 {
                    transition = c.transition;
                }
            }
            prep[si] = prep[si].max(host_prep[si]);
        }
        let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        let k = plan.sets.len().min(8);
        Some(StageCosts {
            generation: max(&gen[..k]),
            preparation: max(&prep[..k]),
            training: max(&train[..k]),
            transition,
        })
    }

    /// Optimistic lower bound on `d_cost` for `(plan, alloc)`: the same
    /// stage composition as [`Mapper::eval_alloc`], fed component-wise
    /// best-case latencies instead of chosen strategies. `None` means
    /// some role is infeasible on its allocation even at zero pressure,
    /// so the candidate cannot produce a mapping at all.
    pub fn alloc_lower_bound(&self, plan: &PlacementPlan, alloc: &[usize]) -> Option<f64> {
        self.compose_stages(plan, alloc, |role, n| {
            let b = self.cached_bounds(role, n)?;
            Some(self.role_stage_cost(
                role,
                b.gen_latency,
                b.transition,
                b.train_latency,
                b.infer_latency,
            ))
        })
        .map(|c| c.total())
    }

    /// The cheap first-tier bound: pure closed-form rooflines
    /// ([`PerfModel::train_floor`] and friends) with a conservative
    /// per-set memory check (every set whose members' perfectly-sharded
    /// states exceed GPU memory is infeasible under any layout). Costs
    /// a few arithmetic ops per role — no simulation, no caching —
    /// so the whole candidate space can be bounded and sorted up front.
    /// Strictly looser than [`Mapper::alloc_lower_bound`], which is
    /// only computed for candidates this bound fails to prune.
    fn floor_lower_bound(&self, plan: &PlacementPlan, alloc: &[usize]) -> Option<f64> {
        let usable = self.perf.usable_gpu_bytes();
        for (set, &n) in plan.sets.iter().zip(alloc.iter()) {
            let resident: f64 =
                set.iter().map(|&r| min_state_bytes_per_gpu(self.dataflow.model(r), r, n)).sum();
            if resident > usable {
                return None;
            }
        }
        let w = &self.dataflow.workload;
        self.compose_stages(plan, alloc, |role, n| {
            let model = self.dataflow.model(role);
            let (gen, train, infer) = match role {
                Role::Actor => (
                    self.perf.generation_floor(
                        model,
                        n,
                        w.global_batch,
                        w.prompt_len,
                        w.response_len,
                    ),
                    self.perf.train_floor(model, n, w.minibatch(), w.seq_len()),
                    0.0,
                ),
                Role::Critic => (
                    0.0,
                    self.perf.train_floor(model, n, w.minibatch(), w.seq_len()),
                    self.perf.infer_floor(model, n, w.global_batch, w.seq_len()),
                ),
                Role::Reference => {
                    (0.0, 0.0, self.perf.infer_floor(model, n, w.global_batch, w.seq_len()))
                }
                Role::Reward => {
                    (0.0, 0.0, self.perf.infer_floor(model, n, w.global_batch, w.seq_len()))
                }
                Role::Cost => {
                    (0.0, 0.0, self.perf.infer_floor(model, n, w.global_batch, w.seq_len()))
                }
                // CPU pool: the exact latency is its own floor (it does
                // not depend on layout or colocation pressure).
                Role::RewardEvaluator => (0.0, 0.0, verifier_eval_latency(n, w)),
            };
            Some(self.role_stage_cost(role, gen, 0.0, train, infer))
        })
        .map(|c| c.total())
    }

    /// Evaluates one `(plan, alloc)` combination (`d_cost`).
    pub fn eval_alloc(&self, plan: &PlacementPlan, alloc: &[usize]) -> Option<Mapping> {
        self.stats.borrow_mut().evaluations += 1;
        let mut strategies: BTreeMap<Role, ModelStrategy> = BTreeMap::new();
        for (set, &n) in plan.sets.iter().zip(alloc.iter()) {
            for &role in set {
                // Memory pressure from the other colocated models.
                let resident_other: f64 = set
                    .iter()
                    .filter(|&&r| r != role)
                    .map(|&r| min_state_bytes_per_gpu(self.dataflow.model(r), r, n))
                    .sum();
                let strat = self.cached_strategy(role, n, resident_other)?;
                strategies.insert(role, strat);
            }
        }

        let costs = self.compose_stages(plan, alloc, |role, _| {
            let s = &strategies[&role];
            let (gen_latency, transition) = match s.gen {
                Some(g) => (g.latency, g.transition),
                None => (0.0, 0.0),
            };
            Some(self.role_stage_cost(
                role,
                gen_latency,
                transition,
                s.train_latency,
                s.infer_latency,
            ))
        })?;
        Some(Mapping { plan: plan.clone(), alloc: alloc.to_vec(), strategies, costs })
    }

    /// Scores one candidate against the incumbent: bound-prunes, then
    /// evaluates, then offers the result to `best`. The single
    /// best-tracking fold shared by [`Mapper::evaluate_plan`] and
    /// [`Mapper::search`].
    fn consider(
        &self,
        plan: &PlacementPlan,
        alloc: &[usize],
        floor_bound: Option<f64>,
        seq: u64,
        best: &mut Incumbent,
    ) {
        // Tier 1: the closed-form floor (precomputed by `search`,
        // computed here otherwise).
        let Some(floor) = floor_bound.or_else(|| self.floor_lower_bound(plan, alloc)) else {
            self.stats.borrow_mut().infeasible += 1;
            return;
        };
        if floor >= best.cost() {
            self.stats.borrow_mut().pruned += 1;
            return;
        }
        // Tier 2: the tighter per-(role, n) enumerated bound, cached.
        match self.alloc_lower_bound(plan, alloc) {
            None => self.stats.borrow_mut().infeasible += 1,
            Some(b) if b >= best.cost() => self.stats.borrow_mut().pruned += 1,
            Some(_) => match self.eval_alloc(plan, alloc) {
                Some(m) => best.offer(seq, m),
                None => self.stats.borrow_mut().infeasible += 1,
            },
        }
    }

    /// Best allocation for a fixed plan (used for the Figure 12/13
    /// named-placement comparisons). Pruned against the plan-local
    /// incumbent; the returned minimum cost is unaffected.
    pub fn evaluate_plan(&self, plan: &PlacementPlan) -> Option<Mapping> {
        let mut best = Incumbent::default();
        self.for_each_candidate(std::slice::from_ref(plan), |seq, _, alloc| {
            self.consider(plan, &alloc, None, seq, &mut best);
        });
        best.take()
    }

    /// Calls `visit(seq, plan index, alloc)` for every `(plan, alloc)`
    /// candidate. `seq`, the enumeration index, is what breaks cost ties
    /// — the one definition both searches share.
    fn for_each_candidate(
        &self,
        plans: &[PlacementPlan],
        mut visit: impl FnMut(u64, usize, Vec<usize>),
    ) {
        let mut seq = 0u64;
        for (pi, plan) in plans.iter().enumerate() {
            let mins: Vec<usize> = plan.sets.iter().map(|s| self.min_alloc(s)).collect();
            for alloc in enum_alloc(self.total_gpus, &mins, self.granularity) {
                visit(seq, pi, alloc);
                seq += 1;
            }
        }
    }

    /// The full Algorithm 1 search over all placements and allocations:
    /// branch-and-bound pruned, best-first. Returns the same mapping as
    /// [`Mapper::search_sequential`].
    pub fn search(&self) -> Option<Mapping> {
        let start = Instant::now();
        let before = self.stats();
        let plans: Vec<PlacementPlan> = set_partitions(&self.dataflow.roles());

        // Bound every candidate with the cheap closed-form floor;
        // floor-infeasible candidates are rejected here and never
        // queued. Jobs reference plans by index so the hot loop never
        // clones a plan.
        let mut jobs: Vec<(u64, usize, Vec<usize>, f64)> = Vec::new();
        self.for_each_candidate(&plans, |seq, pi, alloc| {
            match self.floor_lower_bound(&plans[pi], &alloc) {
                Some(b) => jobs.push((seq, pi, alloc, b)),
                None => self.stats.borrow_mut().infeasible += 1,
            }
        });
        // Best-first: most promising candidates first, so the incumbent
        // drops fast and the bound prunes the tail.
        jobs.sort_by(|a, b| a.3.total_cmp(&b.3).then(a.0.cmp(&b.0)));

        let mut best = Incumbent::default();
        for (seq, pi, alloc, bound) in &jobs {
            self.consider(&plans[*pi], alloc, Some(*bound), *seq, &mut best);
        }

        self.stats.borrow_mut().wall_seconds += start.elapsed().as_secs_f64();
        self.record_telemetry(before);
        best.take()
    }

    /// The exhaustive reference: every candidate evaluated, nothing
    /// pruned. What the equivalence tests and the `mapping_search`
    /// experiment compare [`Mapper::search`] against.
    pub fn search_sequential(&self) -> Option<Mapping> {
        let start = Instant::now();
        let before = self.stats();
        let plans: Vec<PlacementPlan> = set_partitions(&self.dataflow.roles());
        let mut best = Incumbent::default();
        self.for_each_candidate(&plans, |seq, pi, alloc| {
            match self.eval_alloc(&plans[pi], &alloc) {
                Some(m) => best.offer(seq, m),
                None => self.stats.borrow_mut().infeasible += 1,
            }
        });
        self.stats.borrow_mut().wall_seconds += start.elapsed().as_secs_f64();
        self.record_telemetry(before);
        best.take()
    }

    /// Records this search's counter deltas and gauges into the
    /// attached telemetry handle (no-op when disabled).
    fn record_telemetry(&self, before: SearchStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let after = self.stats();
        self.telemetry.add_counter("search.evals", (after.evaluations - before.evaluations) as u64);
        self.telemetry.add_counter("search.pruned", (after.pruned - before.pruned) as u64);
        self.telemetry
            .add_counter("search.infeasible", (after.infeasible - before.infeasible) as u64);
        self.telemetry
            .add_counter("search.cache_hits", (after.cache_hits - before.cache_hits) as u64);
        self.telemetry
            .add_counter("search.cache_misses", (after.cache_misses - before.cache_misses) as u64);
        self.telemetry.set_gauge("search.wall_seconds", after.wall_seconds);
        self.telemetry.set_gauge("search.cache_hit_rate", after.cache_hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_modelspec::{ModelConfig, RlhfWorkload};
    use hf_simcluster::ClusterSpec;

    use crate::dataflow::AlgoKind;

    fn mapper(model: ModelConfig, gpus: usize) -> Mapper {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(gpus));
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model, RlhfWorkload::paper());
        Mapper::new(perf, df, gpus)
    }

    #[test]
    fn search_finds_a_mapping_for_7b_on_16() {
        let m = mapper(ModelConfig::llama_7b(), 16);
        let best = m.search().expect("a mapping must exist");
        assert_eq!(best.alloc.iter().sum::<usize>(), 16);
        assert!(best.costs.total() > 0.0);
        assert!(best.strategies.contains_key(&Role::Actor));
        assert!(m.evaluations() > 10, "search must explore");
    }

    #[test]
    fn grpo_search_places_the_verifier_pool_off_the_gpu_critical_path() {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(16));
        let df =
            DataflowSpec::uniform(AlgoKind::Grpo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let m = Mapper::new(perf, df, 16);
        let best = m.search().expect("GRPO must map");
        let strat = &best.strategies[&Role::RewardEvaluator];
        // The pool is pure data parallelism with no model forward.
        assert_eq!((strat.spec.p, strat.spec.t), (1, 1));
        assert!(strat.train_latency == 0.0 && strat.gen.is_none());
        assert!(strat.infer_latency > 0.0);
        // Near-zero GPU footprint: the pool must never be the memory
        // reason an allocation fails, and its prep cost must be small
        // next to the reference model's forward pass.
        assert!(strat.state_bytes_per_gpu < 1e9);
        let reference = &best.strategies[&Role::Reference];
        assert!(
            strat.infer_latency < reference.infer_latency,
            "verifier pool ({:.3}s) must undercut the reference forward ({:.3}s)",
            strat.infer_latency,
            reference.infer_latency
        );
    }

    #[test]
    fn a_set_prepares_in_the_longer_of_its_gpu_and_host_passes() {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(16));
        let df =
            DataflowSpec::uniform(AlgoKind::Grpo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let m = Mapper::new(perf, df, 16);
        // Actor alone; reference and verifier share the other set.
        let plan = PlacementPlan {
            sets: vec![vec![Role::Actor], vec![Role::Reference, Role::RewardEvaluator]],
        };
        let best = m.evaluate_plan(&plan).expect("the plan maps");
        let (reference, verifier) = (
            best.strategies[&Role::Reference].infer_latency,
            best.strategies[&Role::RewardEvaluator].infer_latency,
        );
        assert!(reference > 0.0 && verifier > 0.0);
        assert_eq!(best.costs.preparation, reference.max(verifier), "max, not the sum");
    }

    #[test]
    fn search_is_deterministic_and_matches_the_exhaustive_mapping() {
        for (model, gpus) in [(ModelConfig::llama_7b(), 16), (ModelConfig::llama_13b(), 32)] {
            let (first, second) = (mapper(model.clone(), gpus), mapper(model.clone(), gpus));
            let a = first.search().expect("search finds a mapping");
            let b = second.search().expect("search finds a mapping");
            assert_eq!(a, b, "two fresh searches must return the same mapping");
            let timeless = |m: &Mapper| SearchStats { wall_seconds: 0.0, ..m.stats() };
            assert_eq!(timeless(&first), timeless(&second), "counters are exact, misses included");

            let exhaustive = mapper(model, gpus);
            let reference = exhaustive.search_sequential().expect("reference finds a mapping");
            assert_eq!(a, reference, "pruning must not change the winning mapping");
        }
    }

    #[test]
    fn pruning_skips_candidates_without_changing_cost() {
        let m = mapper(ModelConfig::llama_7b(), 16);
        let _ = m.search().unwrap();
        let s = m.stats();
        assert!(s.pruned > 0, "bound must prune something on 7B/16, stats: {s:?}");
        let reference = mapper(ModelConfig::llama_7b(), 16);
        let _ = reference.search_sequential().unwrap();
        assert!(
            s.evaluations < reference.stats().evaluations,
            "pruning must evaluate strictly fewer candidates"
        );
    }

    #[test]
    fn lower_bound_is_admissible_for_evaluated_candidates() {
        let m = mapper(ModelConfig::llama_7b(), 16);
        let roles = m.dataflow.roles();
        for plan in set_partitions(&roles) {
            let mins: Vec<usize> = plan.sets.iter().map(|s| m.min_alloc(s)).collect();
            for alloc in enum_alloc(m.total_gpus, &mins, m.granularity) {
                if let Some(mapping) = m.eval_alloc(&plan, &alloc) {
                    let bound = m
                        .alloc_lower_bound(&plan, &alloc)
                        .expect("evaluated candidates must have a bound");
                    assert!(
                        bound <= mapping.costs.total() + 1e-9,
                        "bound {bound} exceeds actual {} for {} {:?}",
                        mapping.costs.total(),
                        plan.label(),
                        alloc
                    );
                }
            }
        }
    }

    #[test]
    fn min_alloc_never_exceeds_cluster_size() {
        // Regression: the doubling loop used to return 16 on a 12-GPU
        // cluster (8 → 16 overshoots past `total_gpus`).
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(12));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_70b(), RlhfWorkload::paper());
        let m = Mapper::with_granularity(perf, df, 12, 1);
        let roles = m.dataflow.roles();
        assert!(m.min_alloc(&roles) <= 12);
        for role in roles {
            assert!(m.min_alloc(&[role]) <= 12);
        }
    }

    #[test]
    fn min_alloc_aligns_to_granularity() {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(32));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let m = Mapper::with_granularity(perf, df, 32, 8);
        for role in m.dataflow.roles() {
            let n = m.min_alloc(&[role]);
            assert_eq!(n % 8, 0, "min_alloc {n} must align to granularity 8");
            assert!(n <= 32);
        }
    }

    #[test]
    fn search_survives_non_pow2_shrunken_world() {
        // Regression (elastic re-mapping): killing one rank of a
        // 24-GPU cluster leaves 23 survivors. `Mapper::new` used to
        // keep the machine-sized granularity (8), which does not
        // divide 23 — every allocation then sums to a multiple of 8,
        // no allocation can reach 23, and `min_alloc`'s clamp to the
        // cluster size returned an unaligned minimum that `enum_alloc`
        // rounded back up past the cluster. Net effect: `search`
        // returned `None` on a perfectly feasible survivor set.
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(23));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let m = Mapper::new(perf, df, 23);
        assert_eq!(23 % m.granularity, 0, "granularity {} must divide the world", m.granularity);
        let best = m.search().expect("a 23-GPU survivor set must still map");
        assert_eq!(best.alloc.iter().sum::<usize>(), 23);
        for role in m.dataflow.roles() {
            let n = m.min_alloc(&[role]);
            assert_eq!(n % m.granularity, 0, "min_alloc {n} must stay aligned");
            assert!(n <= 23);
        }
    }

    #[test]
    fn granularity_not_dividing_world_is_reduced() {
        // An explicit machine-sized granularity on a 20-GPU world falls
        // back to gcd(8, 20) = 4: still machine-chunked as far as the
        // world allows, and every minimum stays reachable.
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(20));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let m = Mapper::with_granularity(perf, df, 20, 8);
        assert_eq!(m.granularity, 4);
        let best = m.search().expect("20 GPUs at granularity 4 must map");
        assert_eq!(best.alloc.iter().sum::<usize>(), 20);
    }

    #[test]
    fn resize_world_warm_start_matches_cold_search() {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(16));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let mut warm = Mapper::new(perf.clone(), df.clone(), 16);
        let _ = warm.search().expect("initial world maps");
        let misses_before = warm.stats().cache_misses;

        // Lose four ranks, re-search over the survivors with the caches
        // carried over.
        warm.resize_world(12);
        let remapped = warm.search().expect("survivor world maps");
        assert_eq!(remapped.alloc.iter().sum::<usize>(), 12);

        let cold = Mapper::new(perf, df, 12);
        let reference = cold.search().expect("cold survivor world maps");
        assert_eq!(
            remapped, reference,
            "warm-started re-search must return the same mapping as a cold search"
        );
        let warm_misses = warm.stats().cache_misses - misses_before;
        assert!(
            warm_misses < cold.stats().cache_misses,
            "warm start must reuse cached strategies ({} vs {})",
            warm_misses,
            cold.stats().cache_misses
        );
    }

    #[test]
    fn optimized_mapping_beats_or_matches_named_plans() {
        let m = mapper(ModelConfig::llama_7b(), 16);
        let roles = m.dataflow.roles();
        let best = m.search().unwrap().costs.total();
        for plan in [
            PlacementPlan::colocate(&roles),
            PlacementPlan::standalone(&roles),
            PlacementPlan::split(&roles),
        ] {
            if let Some(named) = m.evaluate_plan(&plan) {
                assert!(
                    best <= named.costs.total() + 1e-9,
                    "search ({best}) must beat {} ({})",
                    plan.label(),
                    named.costs.total()
                );
            }
        }
    }

    #[test]
    fn colocate_wins_on_small_clusters() {
        // §8.3: "From 16 to 64 GPUs, colocating all models on the same
        // set of devices yields the best performance."
        let m = mapper(ModelConfig::llama_7b(), 16);
        let best = m.search().unwrap();
        assert_eq!(
            best.plan.sets.len(),
            1,
            "expected colocate on 16 GPUs, got {}",
            best.plan.label()
        );
    }

    #[test]
    fn standalone_infeasible_when_memory_is_tight() {
        // Four 13B models cannot each claim a quarter of 8 GPUs' memory
        // for standalone training states.
        let m = mapper(ModelConfig::llama_13b(), 8);
        let plan = PlacementPlan::standalone(&m.dataflow.roles());
        assert!(m.evaluate_plan(&plan).is_none());
        // But some mapping exists (colocate time-shares memory... the
        // colocated states must still fit):
        let colocate = m.evaluate_plan(&PlacementPlan::colocate(&m.dataflow.roles()));
        assert!(colocate.is_some());
    }

    #[test]
    fn strategy_cache_reuses_entries() {
        let m = mapper(ModelConfig::llama_7b(), 16);
        let _ = m.search();
        let first = m.stats();
        assert!(first.cache_hits > 0, "repeated (role, n, bucket) lookups must hit");
        // Re-running reuses the cache; the cache map stays bounded by
        // (role, n, bucket) combinations and the second pass computes
        // no new strategies.
        let _ = m.search();
        let second = m.stats();
        assert_eq!(second.cache_misses, first.cache_misses);
        assert!(m.cache_entries() < 600);
    }

    #[test]
    fn telemetry_records_search_counters() {
        let tel = Telemetry::enabled();
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(16));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let m = Mapper::new(perf, df, 16).with_telemetry(tel.clone());
        let _ = m.search().unwrap();
        let stats = m.stats();
        assert_eq!(tel.counter("search.evals"), stats.evaluations as u64);
        assert_eq!(tel.counter("search.pruned"), stats.pruned as u64);
        assert!(tel.gauge("search.wall_seconds").is_some());
        assert!(tel.gauge("search.cache_hit_rate").is_some());
    }

    #[test]
    fn stage_costs_sum_to_total() {
        let c = StageCosts { generation: 1.0, preparation: 2.0, training: 3.0, transition: 0.5 };
        assert_eq!(c.total(), 6.0);
    }
}
