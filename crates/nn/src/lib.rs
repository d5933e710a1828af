//! Tiny-but-real language-model substrate.
//!
//! The paper's actor/critic/reference/reward models are Llama LLMs run
//! by Megatron-LM and vLLM. Those engines are replaced here by a small
//! causal LM with genuine reverse-mode autodiff, so RLHF numerics (PPO
//! clipping, GAE, KL shaping, Adam) run *for real* at laptop scale:
//! examples and tests show rewards actually improving over RLHF
//! iterations.
//!
//! * [`tensor`] — a minimal 2-D `f32` tensor.
//! * `kernels` (private) — the one lane-packed GEMM microkernel under
//!   every matrix product here, bit-identical to the scalar loops it
//!   replaced (DESIGN.md §2, "kernel contract").
//! * `expf` (private) — the one `e^x` of hf-nn: glibc's `expf` (its
//!   FMA variant) ported step for step, branch-free so its loops
//!   vectorise (what is checked and what it costs are in its module
//!   docs); [`sum_exp`] carries it to
//!   callers outside the crate.
//! * `panels` (private) — the one activation layout: the kernel's lane
//!   panels, shared by the tape, the stage forward and the decoder
//!   (its module docs hold the layout's rules and measurements).
//! * [`tape`] — tape-based reverse-mode autograd with the fused ops RLHF
//!   needs (log-prob gather, PPO clip objective, clipped value loss).
//! * [`model`] — [`model::TinyLm`]: embedding → L residual mixer blocks
//!   (RMSNorm + SwiGLU-style MLP over token + causal-context features) →
//!   LM head, plus an optional scalar value/reward head. Block
//!   parameters flatten into a layer-structured buffer compatible with
//!   `hf_parallel::ShardLayout`, so the 3D-HybridEngine can physically
//!   reshard real weights.
//! * [`adam`] — the Adam optimizer (paper §8.1 trains actor and critic
//!   with Adam).

#![warn(missing_docs)]
// A forward reads one window of positions per sequence, so a pass over
// one sequence is handed `&[0..len]`: one window, not a range of them.
#![allow(clippy::single_range_in_vec_init)]

pub mod adam;
mod expf;
mod kernels;
pub mod model;
mod panels;
pub mod sharded;
pub mod tape;
pub mod tensor;

pub use adam::Adam;
pub use model::{
    greedy_token, sample_softmax, stacks, sum_exp, token_log_prob, DecodeState, ForwardPass,
    LmConfig, StackedPass, TinyLm, STACK_ROWS,
};
pub use sharded::{grid_forward, Head, ShardedLm, StageOutput};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
