//! Placement plans and GPU allocations (Algorithm 1, Lines 3 & 10).
//!
//! A placement plan partitions the dataflow's models into *colocated
//! sets*; the number of plans for `k` models is the Bell number `B(k)`
//! (15 for PPO's four models, 52 for Safe-RLHF's five). `enum_alloc`
//! enumerates GPU allocations per set: integer compositions of `N` with
//! per-set minimums, optionally on a machine-size granularity.

use crate::dataflow::Role;

/// A partition of the dataflow's models into colocated sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlacementPlan {
    /// The colocated sets, each a non-empty role list.
    pub sets: Vec<Vec<Role>>,
}

impl PlacementPlan {
    /// All models on one device set (DeepSpeed-Chat's placement).
    pub fn colocate(roles: &[Role]) -> Self {
        PlacementPlan { sets: vec![roles.to_vec()] }
    }

    /// Every model on its own devices (OpenRLHF's placement).
    pub fn standalone(roles: &[Role]) -> Self {
        PlacementPlan { sets: roles.iter().map(|&r| vec![r]).collect() }
    }

    /// NeMo-Aligner's placement: actor + reference on one set, critic +
    /// reward (+ cost) on another. Roles not in the first group land in
    /// the second.
    pub fn split(roles: &[Role]) -> Self {
        let first: Vec<Role> =
            roles.iter().copied().filter(|r| matches!(r, Role::Actor | Role::Reference)).collect();
        let second: Vec<Role> =
            roles.iter().copied().filter(|r| !matches!(r, Role::Actor | Role::Reference)).collect();
        let mut sets = vec![first];
        if !second.is_empty() {
            sets.push(second);
        }
        PlacementPlan { sets }
    }

    /// Short human-readable label, e.g. `{actor,ref}|{critic,rm}`.
    pub fn label(&self) -> String {
        let name = |r: &Role| match r {
            Role::Actor => "actor",
            Role::Critic => "critic",
            Role::Reference => "ref",
            Role::Reward => "rm",
            Role::Cost => "cost",
            Role::RewardEvaluator => "verifier",
        };
        self.sets
            .iter()
            .map(|s| format!("{{{}}}", s.iter().map(name).collect::<Vec<_>>().join(",")))
            .collect::<Vec<_>>()
            .join("|")
    }
}

/// All set partitions of `roles` (Bell-number enumeration).
pub fn set_partitions(roles: &[Role]) -> Vec<PlacementPlan> {
    fn rec(rest: &[Role], current: &mut Vec<Vec<Role>>, out: &mut Vec<PlacementPlan>) {
        match rest.split_first() {
            None => out.push(PlacementPlan { sets: current.clone() }),
            Some((&first, tail)) => {
                for i in 0..current.len() {
                    current[i].push(first);
                    rec(tail, current, out);
                    current[i].pop();
                }
                current.push(vec![first]);
                rec(tail, current, out);
                current.pop();
            }
        }
    }
    let mut out = Vec::new();
    rec(roles, &mut Vec::new(), &mut out);
    out
}

/// All allocations of exactly `total` GPUs to sets with `minimums`,
/// stepping in multiples of `granularity` (each set gets at least its
/// minimum, rounded up to the granularity).
pub fn enum_alloc(total: usize, minimums: &[usize], granularity: usize) -> Vec<Vec<usize>> {
    assert!(granularity >= 1);
    let round_up = |x: usize| x.div_ceil(granularity) * granularity;
    let mins: Vec<usize> = minimums.iter().map(|&m| round_up(m.max(1))).collect();
    let mut out = Vec::new();
    let mut current = vec![0usize; mins.len()];
    fn rec(
        idx: usize,
        remaining: usize,
        mins: &[usize],
        gran: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if idx == mins.len() {
            if remaining == 0 {
                out.push(current.clone());
            }
            return;
        }
        // Remaining sets still need at least their minimums.
        let needed_after: usize = mins[idx + 1..].iter().sum();
        let mut g = mins[idx];
        while g + needed_after <= remaining {
            current[idx] = g;
            rec(idx + 1, remaining - g, mins, gran, current, out);
            g += gran;
        }
    }
    rec(0, total, &mins, granularity, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ppo_roles() -> Vec<Role> {
        vec![Role::Actor, Role::Critic, Role::Reference, Role::Reward]
    }

    #[test]
    fn bell_numbers_match() {
        // B(4) = 15 (paper: "15 possible placements" for PPO), B(5) = 52.
        assert_eq!(set_partitions(&ppo_roles()).len(), 15);
        let five = vec![Role::Actor, Role::Critic, Role::Reference, Role::Reward, Role::Cost];
        assert_eq!(set_partitions(&five).len(), 52);
        assert_eq!(set_partitions(&[Role::Actor]).len(), 1);
    }

    #[test]
    fn partitions_are_exact_covers() {
        for plan in set_partitions(&ppo_roles()) {
            let mut all: Vec<Role> = plan.sets.iter().flatten().copied().collect();
            all.sort();
            let mut expect = ppo_roles();
            expect.sort();
            assert_eq!(all, expect);
            assert!(plan.sets.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn named_plans() {
        let roles = ppo_roles();
        assert_eq!(PlacementPlan::colocate(&roles).sets.len(), 1);
        assert_eq!(PlacementPlan::standalone(&roles).sets.len(), 4);
        let split = PlacementPlan::split(&roles);
        assert_eq!(split.sets.len(), 2);
        assert_eq!(split.label(), "{actor,ref}|{critic,rm}");
    }

    #[test]
    fn partitions_contain_the_named_plans() {
        let roles = ppo_roles();
        let plans = set_partitions(&roles);
        let same = |a: &PlacementPlan, b: &PlacementPlan| {
            let norm = |p: &PlacementPlan| {
                let mut sets: Vec<Vec<Role>> = p
                    .sets
                    .iter()
                    .map(|s| {
                        let mut s = s.clone();
                        s.sort();
                        s
                    })
                    .collect();
                sets.sort();
                sets
            };
            norm(a) == norm(b)
        };
        for named in [
            PlacementPlan::colocate(&roles),
            PlacementPlan::standalone(&roles),
            PlacementPlan::split(&roles),
        ] {
            assert!(plans.iter().any(|p| same(p, &named)), "{}", named.label());
        }
    }

    #[test]
    fn alloc_compositions_sum_to_total() {
        let allocs = enum_alloc(8, &[1, 1, 1], 1);
        // Compositions of 8 into 3 positive parts: C(7,2) = 21.
        assert_eq!(allocs.len(), 21);
        assert!(allocs.iter().all(|a| a.iter().sum::<usize>() == 8));
        assert!(allocs.iter().all(|a| a.iter().all(|&g| g >= 1)));
    }

    #[test]
    fn alloc_respects_minimums_and_granularity() {
        let allocs = enum_alloc(32, &[8, 4], 8);
        for a in &allocs {
            assert_eq!(a.iter().sum::<usize>(), 32);
            assert!(a[0] >= 8 && a[1] >= 8); // 4 rounds up to 8
            assert!(a.iter().all(|&g| g % 8 == 0));
        }
        assert_eq!(allocs.len(), 3); // (8,24),(16,16),(24,8)
    }

    #[test]
    fn infeasible_minimums_yield_no_allocs() {
        assert!(enum_alloc(8, &[8, 8], 1).is_empty());
    }
}
