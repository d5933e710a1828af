//! RLHF workload description (paper §8.1).
//!
//! "In each experiment, the input prompt length and the output response
//! length are both 1024 and the global batch size of input prompts to
//! the actor model is 1024. The number of PPO epochs is 1 and the number
//! of PPO update iterations per epoch is 8."

/// Workload parameters of one RLHF iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlhfWorkload {
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Response length in tokens (enforced fixed, §8.1).
    pub response_len: usize,
    /// Global batch of prompts per RLHF iteration.
    pub global_batch: usize,
    /// PPO epochs over the batch per iteration.
    pub ppo_epochs: usize,
    /// PPO mini-batch updates per epoch.
    pub updates_per_epoch: usize,
}

impl RlhfWorkload {
    /// The paper's evaluation workload.
    pub fn paper() -> Self {
        RlhfWorkload {
            prompt_len: 1024,
            response_len: 1024,
            global_batch: 1024,
            ppo_epochs: 1,
            updates_per_epoch: 8,
        }
    }

    /// A tiny workload for functional tests.
    pub fn tiny() -> Self {
        RlhfWorkload {
            prompt_len: 8,
            response_len: 8,
            global_batch: 8,
            ppo_epochs: 1,
            updates_per_epoch: 2,
        }
    }

    /// Full sequence length (prompt + response).
    pub fn seq_len(&self) -> usize {
        self.prompt_len + self.response_len
    }

    /// Tokens processed per RLHF iteration (the throughput numerator:
    /// "total number of tokens in prompts and responses in a global
    /// batch", §8.1).
    pub fn tokens_per_iteration(&self) -> f64 {
        (self.global_batch * self.seq_len()) as f64
    }

    /// Sequences per PPO mini-batch update.
    pub fn minibatch(&self) -> usize {
        self.global_batch / self.updates_per_epoch
    }

    /// Total optimizer updates per RLHF iteration.
    pub fn total_updates(&self) -> usize {
        self.ppo_epochs * self.updates_per_epoch
    }

    /// RLHF throughput in tokens/second for a measured iteration time.
    pub fn throughput(&self, iteration_seconds: f64) -> f64 {
        self.tokens_per_iteration() / iteration_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_constants() {
        let w = RlhfWorkload::paper();
        assert_eq!(w.seq_len(), 2048);
        assert_eq!(w.tokens_per_iteration(), 1024.0 * 2048.0);
        assert_eq!(w.minibatch(), 128);
        assert_eq!(w.total_updates(), 8);
    }

    #[test]
    fn throughput_inverse_to_time() {
        let w = RlhfWorkload::paper();
        assert!(w.throughput(10.0) > w.throughput(20.0));
        assert!((w.throughput(1.0) - 2097152.0).abs() < 1.0);
    }
}
