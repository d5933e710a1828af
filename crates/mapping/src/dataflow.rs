//! RLHF dataflow description for the mapping search.

use hf_modelspec::{ModelConfig, RlhfWorkload};

/// A model's role in the RLHF dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// The policy being aligned: generation + training.
    Actor,
    /// The value model: inference + training.
    Critic,
    /// The frozen reference policy: inference only.
    Reference,
    /// The reward model: inference only.
    Reward,
    /// The Safe-RLHF cost model: inference only.
    Cost,
    /// The programmatic reward verifier pool (RLVR/GRPO): CPU-bound,
    /// bursty, long-tailed — no model forward pass, near-zero GPU
    /// memory, so the search keeps it off the GPU critical path.
    RewardEvaluator,
}

impl Role {
    /// Whether the role undergoes training (needs optimizer states).
    pub fn is_trained(self) -> bool {
        matches!(self, Role::Actor | Role::Critic)
    }

    /// Whether the role's work runs on host CPUs (the verifier pool)
    /// rather than as a GPU forward pass.
    pub(crate) fn is_cpu_bound(self) -> bool {
        matches!(self, Role::RewardEvaluator)
    }
}

/// The RLHF algorithm variant, which fixes the role set and stage
/// structure (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Actor + critic + reference + reward.
    Ppo,
    /// No critic; an extra greedy generation pass per iteration.
    ReMax,
    /// PPO roles + a cost model + the auxiliary pre-train loss.
    SafeRlhf,
    /// GRPO with verifiable rewards (RLVR, §9): no critic, and the
    /// reward model is replaced by the programmatic verifier pool.
    Grpo,
}

impl AlgoKind {
    /// The roles present in this algorithm's dataflow.
    pub(crate) fn roles(self) -> Vec<Role> {
        match self {
            AlgoKind::Ppo => vec![Role::Actor, Role::Critic, Role::Reference, Role::Reward],
            AlgoKind::ReMax => vec![Role::Actor, Role::Reference, Role::Reward],
            AlgoKind::SafeRlhf => {
                vec![Role::Actor, Role::Critic, Role::Reference, Role::Reward, Role::Cost]
            }
            AlgoKind::Grpo => vec![Role::Actor, Role::Reference, Role::RewardEvaluator],
        }
    }

    /// Number of generation passes per iteration.
    pub fn generation_passes(self) -> usize {
        match self {
            AlgoKind::ReMax => 2,
            _ => 1,
        }
    }
}

/// The dataflow the mapper optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowSpec {
    /// Algorithm variant.
    pub algo: AlgoKind,
    /// Actor model (also the reference architecture).
    pub actor: ModelConfig,
    /// Critic model (PPO / Safe-RLHF).
    pub critic: ModelConfig,
    /// Reference policy model.
    pub reference: ModelConfig,
    /// Reward model.
    pub(crate) reward: ModelConfig,
    /// Cost model (Safe-RLHF; same architecture as the reward model).
    pub(crate) cost: ModelConfig,
    /// Workload parameters.
    pub workload: RlhfWorkload,
}

impl DataflowSpec {
    /// The paper's default setting: all models the same size (§8.2).
    pub fn uniform(algo: AlgoKind, model: ModelConfig, workload: RlhfWorkload) -> Self {
        DataflowSpec {
            algo,
            actor: model.clone(),
            critic: model.clone(),
            reference: model.clone(),
            reward: model.clone(),
            cost: model,
            workload,
        }
    }

    /// The §8.3 "larger critic and reward model" setting: 13B actor and
    /// reference, 70B critic and reward.
    pub fn large_critic(workload: RlhfWorkload) -> Self {
        DataflowSpec {
            algo: AlgoKind::Ppo,
            actor: ModelConfig::llama_13b(),
            critic: ModelConfig::llama_70b(),
            reference: ModelConfig::llama_13b(),
            reward: ModelConfig::llama_70b(),
            cost: ModelConfig::llama_70b(),
            workload,
        }
    }

    /// The model config for a role.
    pub fn model(&self, role: Role) -> &ModelConfig {
        match role {
            Role::Actor => &self.actor,
            Role::Critic => &self.critic,
            Role::Reference => &self.reference,
            Role::Reward => &self.reward,
            Role::Cost => &self.cost,
            // The verifier pool holds no parameters; the reward config
            // stands in as an architecture placeholder (every memory and
            // latency path special-cases the role — see `strategy`).
            Role::RewardEvaluator => &self.reward,
        }
    }

    /// Roles present under the chosen algorithm.
    pub fn roles(&self) -> Vec<Role> {
        self.algo.roles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_sets_match_figure1() {
        assert_eq!(AlgoKind::Ppo.roles().len(), 4);
        assert_eq!(AlgoKind::ReMax.roles().len(), 3);
        assert!(!AlgoKind::ReMax.roles().contains(&Role::Critic));
        assert_eq!(AlgoKind::SafeRlhf.roles().len(), 5);
        assert!(AlgoKind::SafeRlhf.roles().contains(&Role::Cost));
        assert_eq!(AlgoKind::Grpo.roles().len(), 3);
        assert!(AlgoKind::Grpo.roles().contains(&Role::RewardEvaluator));
        assert!(!AlgoKind::Grpo.roles().contains(&Role::Critic));
        assert!(!AlgoKind::Grpo.roles().contains(&Role::Reward));
    }

    #[test]
    fn reward_evaluator_is_cpu_bound_and_untrained() {
        assert!(Role::RewardEvaluator.is_cpu_bound());
        assert!(!Role::RewardEvaluator.is_trained());
        assert!(!Role::Reward.is_cpu_bound());
    }

    #[test]
    fn remax_has_two_generation_passes() {
        assert_eq!(AlgoKind::ReMax.generation_passes(), 2);
        assert_eq!(AlgoKind::Ppo.generation_passes(), 1);
    }

    #[test]
    fn trained_roles() {
        assert!(Role::Actor.is_trained());
        assert!(Role::Critic.is_trained());
        assert!(!Role::Reference.is_trained());
        assert!(!Role::Reward.is_trained());
    }

    #[test]
    fn large_critic_setting_shapes() {
        let d = DataflowSpec::large_critic(RlhfWorkload::paper());
        assert_eq!(d.model(Role::Actor).name, "llama-13b");
        assert_eq!(d.model(Role::Critic).name, "llama-70b");
        assert_eq!(d.model(Role::Reward).name, "llama-70b");
    }
}
