//! ZeRO / FSDP sharding descriptors for baseline engines (paper §2.1).
//!
//! ZeRO progressively shards optimizer states (stage 1), gradients
//! (stage 2), and model parameters (stage 3) across the data-parallel
//! group. DeepSpeed-Chat and OpenRLHF train the actor with ZeRO-3, which
//! is what makes their transitions expensive: parameters live scattered
//! 1/N per GPU and must be fully all-gathered for generation.

/// ZeRO optimization stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZeroStage {
    /// Shard optimizer states only.
    Stage1,
    /// Shard optimizer states and gradients.
    Stage2,
    /// Shard optimizer states, gradients, and parameters (FSDP-like).
    Stage3,
}

/// A ZeRO data-parallel sharding over `world` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZeroSpec {
    /// Stage of state partitioning.
    pub(crate) stage: ZeroStage,
    /// Number of ranks sharing the shards.
    pub world: usize,
}

impl ZeroSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn new(stage: ZeroStage, world: usize) -> Self {
        assert!(world >= 1);
        ZeroSpec { stage, world }
    }

    /// Fraction of the *parameters* resident on each rank.
    pub fn param_fraction(&self) -> f64 {
        match self.stage {
            ZeroStage::Stage1 | ZeroStage::Stage2 => 1.0,
            ZeroStage::Stage3 => 1.0 / self.world as f64,
        }
    }

    /// Fraction of the *gradients* resident on each rank.
    pub fn grad_fraction(&self) -> f64 {
        match self.stage {
            ZeroStage::Stage1 => 1.0,
            ZeroStage::Stage2 | ZeroStage::Stage3 => 1.0 / self.world as f64,
        }
    }

    /// Fraction of the *optimizer states* resident on each rank.
    pub fn optim_fraction(&self) -> f64 {
        1.0 / self.world as f64
    }

    /// Extra communication multiplier for the forward+backward pass,
    /// relative to plain DP: ZeRO-3 must all-gather parameters in both the
    /// forward and the backward pass (≈ 1.5× the volume of the gradient
    /// all-reduce alone, i.e. 3 parameter-sized ring phases vs 2).
    pub fn comm_multiplier(&self) -> f64 {
        match self.stage {
            ZeroStage::Stage1 | ZeroStage::Stage2 => 1.0,
            ZeroStage::Stage3 => 1.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage3_shards_everything() {
        let z = ZeroSpec::new(ZeroStage::Stage3, 8);
        assert!((z.param_fraction() - 0.125).abs() < 1e-12);
        assert!((z.grad_fraction() - 0.125).abs() < 1e-12);
        assert!((z.optim_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn stage1_shards_only_optimizer() {
        let z = ZeroSpec::new(ZeroStage::Stage1, 4);
        assert_eq!(z.param_fraction(), 1.0);
        assert_eq!(z.grad_fraction(), 1.0);
        assert!((z.optim_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stage2_keeps_full_params_local() {
        let z = ZeroSpec::new(ZeroStage::Stage2, 4);
        assert_eq!(z.comm_multiplier(), 1.0);
        assert_eq!(ZeroSpec::new(ZeroStage::Stage3, 4).comm_multiplier(), 1.5);
    }
}
