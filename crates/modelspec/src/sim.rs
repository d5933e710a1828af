//! The three analytic latency simulators (`simu`, paper §6 / Appendix C).
//!
//! "The training and inference workload is compute-bound while the
//! generation workload is memory-bound." Accordingly:
//!
//! * **Training** — roofline on FLOPs at a training MFU, plus tensor-
//!   parallel all-reduces, pipeline bubble, and the data-parallel
//!   gradient synchronization (or ZeRO-3's parameter all-gathers for the
//!   baseline engines).
//! * **Inference** — a single forward pass at inference MFU plus TP
//!   all-reduces.
//! * **Generation** — prefill (compute-bound) + token-by-token decode
//!   (memory-bound: weight + KV-cache reads), with best-effort KV-cache
//!   *wave* scheduling: if the per-GPU KV budget cannot hold all
//!   concurrent sequences, the batch is generated in multiple waves
//!   (Figure 15's "smaller t_g necessitates maintaining a larger KVCache
//!   per GPU"). An option disables the KV cache entirely to model
//!   NeMo-Aligner's generation engine, which recomputes the full prefix
//!   per decoded token (§8.2: "Due to the lack of KVCache ... up to
//!   81.2% of its RLHF iteration time").

use hf_parallel::ParallelSpec;
use hf_simcluster::{ClusterSpec, CollectiveKind, CommCostModel, DeviceId};

use crate::config::ModelConfig;
use crate::flops;
use crate::memory::TrainEngine;

/// Analytic performance model over a concrete cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// The cluster topology and GPU specs.
    pub cluster: ClusterSpec,
    /// Collective cost model.
    pub comm: CommCostModel,
    /// Model FLOPs utilization during training.
    pub mfu_train: f64,
    /// Model FLOPs utilization during single-pass inference / prefill.
    pub mfu_infer: f64,
    /// Compute efficiency of decode matmuls (rarely the binding term).
    pub mfu_decode: f64,
    /// Achievable fraction of HBM bandwidth during decode.
    pub hbm_eff: f64,
    /// Fraction of GPU memory reserved (CUDA context, fragmentation).
    pub mem_reserve: f64,
    /// Tokens per GPU below which compute efficiency degrades linearly
    /// (small local batches under-fill the GPU; this is what makes
    /// colocate placements "fail to scale up linearly as the batch size
    /// is fixed", §8.3).
    pub mfu_knee_tokens: f64,
}

/// Latency breakdown of one generation stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenBreakdown {
    /// Total prefill time across waves (seconds).
    pub prefill: f64,
    /// Total decode time across waves (seconds).
    pub decode: f64,
    /// Number of KV-cache waves needed.
    pub waves: usize,
    /// Maximum concurrent sequences per replica (KV-budget bound).
    pub max_concurrent: usize,
}

impl GenBreakdown {
    /// End-to-end generation latency.
    pub fn total(&self) -> f64 {
        self.prefill + self.decode
    }
}

impl PerfModel {
    /// Default calibration for the paper's A100 testbed.
    pub fn new(cluster: ClusterSpec) -> Self {
        PerfModel {
            cluster,
            comm: CommCostModel::default(),
            mfu_train: 0.45,
            mfu_infer: 0.55,
            mfu_decode: 0.7,
            hbm_eff: 0.8,
            mem_reserve: 0.1,
            mfu_knee_tokens: 4096.0,
        }
    }

    /// The per-GPU usable memory budget in bytes.
    pub fn usable_gpu_bytes(&self) -> f64 {
        self.cluster.gpu.memory_bytes * (1.0 - self.mem_reserve)
    }

    fn tp_devices(devices: &[DeviceId], t: usize) -> &[DeviceId] {
        &devices[..t.min(devices.len())]
    }

    fn dp_devices(devices: &[DeviceId], spec: &ParallelSpec) -> Vec<DeviceId> {
        let mp = spec.mp();
        (0..spec.d).map(|k| devices[k * mp]).collect()
    }

    /// Compute-efficiency multiplier for a pass of `batch_tokens`
    /// spread over `world` GPUs: 1 above the knee, degrading linearly
    /// below it.
    pub fn batch_efficiency(&self, batch_tokens: f64, world: usize) -> f64 {
        let per_gpu = batch_tokens / world as f64;
        (per_gpu / self.mfu_knee_tokens).clamp(1e-3, 1.0)
    }

    /// Effective HBM efficiency at TP width `t`: sharded weight slices
    /// lower per-GPU arithmetic intensity and kernel efficiency.
    fn hbm_eff_tp(&self, t: usize) -> f64 {
        self.hbm_eff / (1.0 + 0.15 * (t as f64).log2())
    }

    /// One training step (forward + backward + optimizer) over
    /// `batch_seqs` sequences of `seq_len` tokens, executed by `devices`
    /// laid out as `spec` with `engine` sharding the states.
    ///
    /// # Panics
    ///
    /// Panics unless `devices.len() == spec.world()`.
    pub fn train_time(
        &self,
        model: &ModelConfig,
        spec: &ParallelSpec,
        devices: &[DeviceId],
        batch_seqs: usize,
        seq_len: usize,
        engine: TrainEngine,
    ) -> f64 {
        assert_eq!(devices.len(), spec.world(), "device count must equal world size");
        let seqs_per_dp = batch_seqs.div_ceil(spec.d).max(1);
        let flops_per_gpu =
            seqs_per_dp as f64 * flops::train_flops_per_seq(model, seq_len) / spec.mp() as f64;
        let eff = self.batch_efficiency((batch_seqs * seq_len) as f64, spec.world());
        let mut compute = flops_per_gpu / (self.cluster.gpu.peak_flops * self.mfu_train * eff);
        // Pipeline bubble with one-sequence micro-batches.
        let m = seqs_per_dp as f64;
        compute *= (m + spec.p as f64 - 1.0) / m;

        let mut comm = 0.0;
        // Tensor-parallel all-reduces: 2 per layer in forward, 2 in
        // backward, over the tokens this pipeline stage processes.
        if spec.t > 1 {
            let tp = Self::tp_devices(devices, spec.t);
            let layers_per_stage = (model.layers / spec.p).max(1);
            let micro_tokens = seq_len as f64; // one sequence per micro-batch
            let bytes = micro_tokens * model.hidden as f64 * 2.0;
            let per_ar =
                self.comm.collective_time(&self.cluster, tp, CollectiveKind::AllReduce, bytes);
            comm += per_ar * 4.0 * layers_per_stage as f64 * m;
        }
        // Pipeline p2p activations: 2 transfers per boundary per
        // micro-batch (forward + backward), largely overlapped; charge the
        // non-overlappable bubble edges.
        if spec.p > 1 {
            let bytes = seq_len as f64 * model.hidden as f64 * 2.0;
            let hop = self.comm.p2p_time(&self.cluster, devices[0], devices[spec.t], bytes);
            comm += hop * 2.0 * (spec.p as f64 - 1.0 + m);
        }
        // Data-parallel synchronization.
        match engine {
            TrainEngine::Megatron3D => {
                if spec.d > 1 {
                    let dp = Self::dp_devices(devices, spec);
                    // Gradient all-reduce of this rank's shard (FP32).
                    let grad_bytes = model.params() as f64 / spec.mp() as f64 * 4.0;
                    comm += self.comm.collective_time(
                        &self.cluster,
                        &dp,
                        CollectiveKind::AllReduce,
                        grad_bytes,
                    );
                }
            }
            TrainEngine::Zero(z) => {
                if z.world > 1 {
                    let group = devices;
                    let param_bytes = model.params() as f64 * 2.0;
                    let grad_bytes = model.params() as f64 * 4.0;
                    // Stage 3 all-gathers parameters in forward and
                    // backward, then reduce-scatters gradients; stages 1-2
                    // all-reduce gradients.
                    if z.comm_multiplier() > 1.0 {
                        comm += 2.0
                            * self.comm.collective_time(
                                &self.cluster,
                                group,
                                CollectiveKind::AllGather,
                                param_bytes,
                            );
                        comm += self.comm.collective_time(
                            &self.cluster,
                            group,
                            CollectiveKind::ReduceScatter,
                            grad_bytes,
                        );
                    } else {
                        comm += self.comm.collective_time(
                            &self.cluster,
                            group,
                            CollectiveKind::AllReduce,
                            grad_bytes,
                        );
                    }
                }
            }
        }
        compute + comm
    }

    /// One forward pass over `batch_seqs` sequences of `seq_len` tokens
    /// (the preparation-stage workload of critic/reference/reward models).
    ///
    /// # Panics
    ///
    /// Panics unless `devices.len() == spec.world()`.
    pub fn infer_time(
        &self,
        model: &ModelConfig,
        spec: &ParallelSpec,
        devices: &[DeviceId],
        batch_seqs: usize,
        seq_len: usize,
    ) -> f64 {
        assert_eq!(devices.len(), spec.world(), "device count must equal world size");
        let seqs_per_dp = batch_seqs.div_ceil(spec.d).max(1);
        let flops_per_gpu =
            seqs_per_dp as f64 * flops::forward_flops_per_seq(model, seq_len) / spec.mp() as f64;
        let eff = self.batch_efficiency((batch_seqs * seq_len) as f64, spec.world());
        let mut time = flops_per_gpu / (self.cluster.gpu.peak_flops * self.mfu_infer * eff);
        let m = seqs_per_dp as f64;
        time *= (m + spec.p as f64 - 1.0) / m;
        if spec.t > 1 {
            let tp = Self::tp_devices(devices, spec.t);
            let layers_per_stage = (model.layers / spec.p).max(1);
            let bytes = seq_len as f64 * model.hidden as f64 * 2.0;
            let per_ar =
                self.comm.collective_time(&self.cluster, tp, CollectiveKind::AllReduce, bytes);
            time += per_ar * 2.0 * layers_per_stage as f64 * m;
        }
        time
    }

    /// Auto-regressive generation of `total_prompts` prompts split over
    /// `replicas` generation replicas, each sharded `p_g × t_g` across
    /// `devices`.
    ///
    /// `kv_budget_per_gpu` is the GPU memory (bytes) left for the KV
    /// cache after weights and any colocated training state
    /// ("best-effort allocation", §8.4). With `use_kv_cache = false`,
    /// every decoded token recomputes the full prefix forward pass
    /// (NeMo-Aligner's engine).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's simulator signature
    pub fn generation_time(
        &self,
        model: &ModelConfig,
        pg: usize,
        tg: usize,
        replicas: usize,
        devices: &[DeviceId],
        total_prompts: usize,
        prompt_len: usize,
        resp_len: usize,
        kv_budget_per_gpu: f64,
        use_kv_cache: bool,
    ) -> GenBreakdown {
        assert!(replicas >= 1 && !devices.is_empty());
        let shard = (pg * tg) as f64;
        let prompts_per_replica = total_prompts.div_ceil(replicas).max(1);
        let tp = Self::tp_devices(devices, tg);

        if !use_kv_cache {
            // Recompute the whole prefix for each decoded token:
            // compute-bound and quadratic in context length. Each decoded
            // token costs a full forward pass over the average context.
            let avg_ctx = prompt_len + resp_len / 2;
            let per_token = flops::forward_flops_per_seq(model, avg_ctx);
            let total_flops = prompts_per_replica as f64 * resp_len as f64 * per_token / shard;
            let decode = total_flops / (self.cluster.gpu.peak_flops * self.mfu_infer);
            let prefill = prompts_per_replica as f64
                * flops::forward_flops_per_seq(model, prompt_len)
                / shard
                / (self.cluster.gpu.peak_flops * self.mfu_infer);
            let sync = self.decode_sync_time(model, pg, tg, tp, 1.0) * resp_len as f64;
            return GenBreakdown {
                prefill,
                decode: decode + sync,
                waves: 1,
                max_concurrent: prompts_per_replica,
            };
        }

        // KV-cache capacity per replica: each sequence's cache is sharded
        // across the replica's p_g·t_g GPUs.
        let kv_per_seq_gpu = flops::kv_cache_bytes(model, prompt_len + resp_len) / shard;
        let max_concurrent = ((kv_budget_per_gpu / kv_per_seq_gpu).floor() as usize).max(1);
        let waves = prompts_per_replica.div_ceil(max_concurrent);

        let param_bytes_gpu = model.param_bytes_bf16() / shard;
        let peak = self.cluster.gpu.peak_flops;
        let hbm = self.cluster.gpu.memory_bandwidth * self.hbm_eff_tp(tg);
        let avg_ctx = (prompt_len + resp_len / 2) as f64;

        let mut prefill = 0.0;
        let mut decode = 0.0;
        let mut remaining = prompts_per_replica;
        while remaining > 0 {
            let conc = remaining.min(max_concurrent);
            remaining -= conc;
            // Prefill: compute-bound forward of conc × prompt_len tokens.
            prefill += conc as f64 * flops::forward_flops_per_seq(model, prompt_len)
                / shard
                / (peak * self.mfu_infer);
            // Decode: per token, read the weight shard + live KV bytes.
            let kv_live_gpu = conc as f64 * flops::kv_cache_bytes(model, avg_ctx as usize) / shard;
            let mem_time = (param_bytes_gpu + kv_live_gpu) / hbm;
            let comp_time = conc as f64 * flops::decode_flops_per_token(model, avg_ctx)
                / shard
                / (peak * self.mfu_decode);
            let per_token =
                mem_time.max(comp_time) + self.decode_sync_time(model, pg, tg, tp, conc as f64);
            decode += per_token * resp_len as f64;
        }
        GenBreakdown { prefill, decode, waves, max_concurrent }
    }

    /// Admissible lower bound on [`PerfModel::train_time`] over every
    /// layout of `n` GPUs: the pure compute roofline at full MFU and
    /// batch efficiency 1, with zero communication and no pipeline
    /// bubble. Every term the simulator adds (efficiency ≤ 1, bubble
    /// factor ≥ 1, `div_ceil` batch rounding, comm ≥ 0) only increases
    /// latency, so this floor is ≤ `train_time(spec, …)` for every
    /// `spec` with `spec.world() == n`.
    pub fn train_floor(
        &self,
        model: &ModelConfig,
        n: usize,
        batch_seqs: usize,
        seq_len: usize,
    ) -> f64 {
        batch_seqs as f64 * flops::train_flops_per_seq(model, seq_len)
            / (n as f64 * self.cluster.gpu.peak_flops * self.mfu_train)
    }

    /// Admissible lower bound on [`PerfModel::infer_time`] over every
    /// layout of `n` GPUs (same argument as [`PerfModel::train_floor`]).
    pub fn infer_floor(
        &self,
        model: &ModelConfig,
        n: usize,
        batch_seqs: usize,
        seq_len: usize,
    ) -> f64 {
        batch_seqs as f64 * flops::forward_flops_per_seq(model, seq_len)
            / (n as f64 * self.cluster.gpu.peak_flops * self.mfu_infer)
    }

    /// Admissible lower bound on [`PerfModel::generation_time`]
    /// (KV-cache path) over every generation layout of `n` GPUs and
    /// every KV budget.
    ///
    /// Prefill and decode-compute aggregate to `total_work / n` because
    /// `replicas · t_g = n` regardless of the grouping, and wave
    /// scheduling only partitions the work. Decode is additionally
    /// bounded below by one pass of weight reads per token at the
    /// maximum tensor-parallel width (per-token read time strictly
    /// decreases in `t_g`, so the widest shard is the optimistic case).
    /// Sync costs and extra waves only add on top.
    pub fn generation_floor(
        &self,
        model: &ModelConfig,
        n: usize,
        total_prompts: usize,
        prompt_len: usize,
        resp_len: usize,
    ) -> f64 {
        let peak = self.cluster.gpu.peak_flops;
        let world = n as f64;
        let prefill = total_prompts as f64 * flops::forward_flops_per_seq(model, prompt_len)
            / (world * peak * self.mfu_infer);
        let avg_ctx = (prompt_len + resp_len / 2) as f64;
        let decode_comp =
            total_prompts as f64 * resp_len as f64 * flops::decode_flops_per_token(model, avg_ctx)
                / (world * peak * self.mfu_decode);
        let tg_max = self.cluster.machine.gpus.min(n).max(1);
        let hbm = self.cluster.gpu.memory_bandwidth * self.hbm_eff_tp(tg_max);
        let decode_mem = resp_len as f64 * model.param_bytes_bf16() / (tg_max as f64 * hbm);
        prefill + decode_comp.max(decode_mem)
    }

    /// Per-decode-token synchronization cost: 2 TP all-reduces per layer
    /// on this replica's stage, plus pipeline hand-offs.
    fn decode_sync_time(
        &self,
        model: &ModelConfig,
        pg: usize,
        tg: usize,
        tp_devices: &[DeviceId],
        concurrent: f64,
    ) -> f64 {
        let mut t = 0.0;
        if tg > 1 {
            let layers_per_stage = (model.layers / pg).max(1) as f64;
            let bytes = concurrent * model.hidden as f64 * 2.0;
            let per_ar = self.comm.collective_time(
                &self.cluster,
                tp_devices,
                CollectiveKind::AllReduce,
                bytes,
            );
            t += 2.0 * layers_per_stage * per_ar;
        }
        if pg > 1 {
            // One activation hand-off per stage boundary per token.
            t += (pg as f64 - 1.0) * self.comm.alpha * 2.0;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_parallel::{ZeroSpec, ZeroStage};

    fn devices(n: usize) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    fn model_7b() -> ModelConfig {
        ModelConfig::llama_7b()
    }

    fn perf(gpus: usize) -> PerfModel {
        PerfModel::new(ClusterSpec::a100_with_gpus(gpus))
    }

    #[test]
    fn train_time_decreases_with_more_dp() {
        let pm = perf(16);
        let m = model_7b();
        let t8 = pm.train_time(
            &m,
            &ParallelSpec::new(1, 8, 1),
            &devices(8),
            128,
            2048,
            TrainEngine::Megatron3D,
        );
        let t16 = pm.train_time(
            &m,
            &ParallelSpec::new(1, 8, 2),
            &devices(16),
            128,
            2048,
            TrainEngine::Megatron3D,
        );
        assert!(t16 < t8, "doubling DP must speed up a fixed batch: {t16} vs {t8}");
    }

    #[test]
    fn zero3_slower_than_megatron_across_machines() {
        // ZeRO-3 on 16 GPUs (2 machines) moves whole-model parameter
        // traffic over the slow NIC; Megatron keeps TP intra-machine.
        let pm = perf(16);
        let m = model_7b();
        let zero = pm.train_time(
            &m,
            &ParallelSpec::new(1, 1, 16),
            &devices(16),
            128,
            2048,
            TrainEngine::Zero(ZeroSpec::new(ZeroStage::Stage3, 16)),
        );
        let megatron = pm.train_time(
            &m,
            &ParallelSpec::new(1, 8, 2),
            &devices(16),
            128,
            2048,
            TrainEngine::Megatron3D,
        );
        assert!(zero > megatron, "zero={zero}, megatron={megatron}");
    }

    #[test]
    fn inference_is_faster_than_training() {
        let pm = perf(8);
        let m = model_7b();
        let spec = ParallelSpec::new(1, 8, 1);
        let inf = pm.infer_time(&m, &spec, &devices(8), 128, 2048);
        let tr = pm.train_time(&m, &spec, &devices(8), 128, 2048, TrainEngine::Megatron3D);
        assert!(inf < tr / 2.0, "forward-only must beat fwd+bwd+update");
    }

    #[test]
    fn generation_without_kv_cache_is_much_slower() {
        let pm = perf(16);
        let m = model_7b();
        let with_kv = pm.generation_time(&m, 1, 8, 2, &devices(16), 256, 1024, 1024, 40e9, true);
        let without = pm.generation_time(&m, 1, 8, 2, &devices(16), 256, 1024, 1024, 40e9, false);
        assert!(
            without.total() > 10.0 * with_kv.total(),
            "no-KV recompute must dominate: {} vs {}",
            without.total(),
            with_kv.total()
        );
    }

    #[test]
    fn small_kv_budget_forces_waves() {
        let pm = perf(8);
        let m = model_7b();
        let roomy = pm.generation_time(&m, 1, 2, 4, &devices(8), 512, 1024, 1024, 60e9, true);
        let tight = pm.generation_time(&m, 1, 2, 4, &devices(8), 512, 1024, 1024, 5e9, true);
        assert!(tight.waves > roomy.waves);
        assert!(tight.total() > roomy.total());
    }

    #[test]
    fn decode_is_memory_bound_at_moderate_batch() {
        // The decode term must exceed a pure-compute estimate at small
        // concurrency, reflecting the memory-bound regime (§2.3).
        let pm = perf(8);
        let m = model_7b();
        let g = pm.generation_time(&m, 1, 8, 1, &devices(8), 8, 1024, 1024, 60e9, true);
        let pure_compute = 8.0 * 1024.0 * flops::decode_flops_per_token(&m, 1536.0)
            / 8.0
            / (pm.cluster.gpu.peak_flops * pm.mfu_decode);
        assert!(g.decode > pure_compute, "{} vs {pure_compute}", g.decode);
    }

    #[test]
    fn generation_tp_sweep_is_u_shaped_for_7b() {
        // Figure 15 (7B, 16 GPUs, train 1-8-2): t_g = 2 beats both t_g = 1
        // (KV-starved, more waves) and t_g = 8 (underutilized).
        let pm = perf(16);
        let m = model_7b();
        let train_state = crate::memory::train_state_bytes_per_gpu(
            &m,
            &ParallelSpec::new(1, 8, 2),
            TrainEngine::Megatron3D,
        );
        let mut totals = Vec::new();
        for tg in [1usize, 2, 4, 8] {
            let replicas = 16 / tg;
            let budget = pm.usable_gpu_bytes()
                - train_state
                - crate::memory::gen_param_bytes_per_gpu(&m, 1, tg);
            let g = pm.generation_time(
                &m,
                1,
                tg,
                replicas,
                &devices(16),
                1024,
                1024,
                1024,
                budget,
                true,
            );
            totals.push((tg, g.total()));
        }
        let best = totals.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert!(best.0 == 2 || best.0 == 4, "best t_g = {} ({totals:?})", best.0);
        let t8 = totals.iter().find(|x| x.0 == 8).unwrap().1;
        assert!(t8 > best.1, "t_g=8 must be worse than the best ({totals:?})");
    }
}

#[cfg(test)]
mod knee_tests {
    use super::*;
    use hf_parallel::ParallelSpec;
    use hf_simcluster::ClusterSpec;

    fn devices(n: usize) -> Vec<hf_simcluster::DeviceId> {
        (0..n).map(hf_simcluster::DeviceId).collect()
    }

    #[test]
    fn batch_efficiency_saturates_above_knee() {
        let pm = PerfModel::new(ClusterSpec::a100_with_gpus(8));
        assert_eq!(pm.batch_efficiency(pm.mfu_knee_tokens * 8.0, 8), 1.0);
        let below = pm.batch_efficiency(pm.mfu_knee_tokens * 4.0, 8);
        assert!((below - 0.5).abs() < 1e-9);
        assert!(pm.batch_efficiency(1.0, 8) >= 1e-3, "floor prevents blowups");
    }

    #[test]
    fn strong_scaling_is_sublinear_on_fixed_batch() {
        // §8.3: doubling GPUs with a fixed global batch must yield less
        // than 2x speedup once per-GPU batches fall under the knee.
        let model = crate::config::ModelConfig::llama_13b();
        let seqs = 128;
        let t64 = PerfModel::new(ClusterSpec::a100_with_gpus(64)).train_time(
            &model,
            &ParallelSpec::new(1, 8, 8),
            &devices(64),
            seqs,
            2048,
            crate::memory::TrainEngine::Megatron3D,
        );
        let t128 = PerfModel::new(ClusterSpec::a100_with_gpus(128)).train_time(
            &model,
            &ParallelSpec::new(1, 8, 16),
            &devices(128),
            seqs,
            2048,
            crate::memory::TrainEngine::Megatron3D,
        );
        let speedup = t64 / t128;
        assert!(speedup > 1.0, "more GPUs still help: {speedup}");
        assert!(speedup < 1.9, "but sublinearly: {speedup}");
    }
}
