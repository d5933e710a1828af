//! Analytical collective-communication cost models.
//!
//! The paper computes transition overheads (Table 2) "following [13]"
//! (Chan et al., *Collective communication: theory, practice, and
//! experience*). We use the same α–β model: a ring collective over `n`
//! ranks with payload `B` bytes takes `(n-1) · (α + B / (n · bw))` per
//! phase, where `bw` is the bandwidth of the slowest link in the ring.
//!
//! Link bandwidth is topology-aware: groups confined to one machine ride
//! NVLink; groups spanning machines are bottlenecked by the per-GPU share
//! of the machine NIC.

use crate::topology::{ClusterSpec, DeviceId};

/// The collective operations the virtual NCCL and analytic model support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Every rank ends with the concatenation of all ranks' shards.
    AllGather,
    /// Every rank ends with the elementwise reduction of all inputs.
    AllReduce,
    /// Every rank ends with a distinct shard of the reduction.
    ReduceScatter,
    /// The root's buffer is replicated to all ranks.
    Broadcast,
    /// All inputs are concatenated at the root.
    Gather,
    /// The root's buffer is partitioned across ranks.
    Scatter,
    /// Every rank sends a distinct shard to every other rank.
    AllToAll,
}

/// α–β cost model for collectives over a concrete device group.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCostModel {
    /// Per-phase fixed latency in seconds (kernel launch + link latency).
    pub alpha: f64,
    /// Fraction of nominal link bandwidth achievable (protocol efficiency).
    pub bandwidth_efficiency: f64,
}

impl Default for CommCostModel {
    fn default() -> Self {
        // ~8 µs per ring phase and ~70% of peak link bandwidth are typical
        // of NCCL on A100 systems.
        CommCostModel { alpha: 8e-6, bandwidth_efficiency: 0.7 }
    }
}

impl CommCostModel {
    /// Effective per-rank link bandwidth (bytes/s) for a group of devices.
    ///
    /// Within one machine this is the NVLink bandwidth. Across machines the
    /// ring must cross the NIC, and all group members on the same machine
    /// share it, so the per-rank bandwidth is `nic / ranks_per_machine`.
    pub fn link_bandwidth(&self, cluster: &ClusterSpec, devices: &[DeviceId]) -> f64 {
        let nominal = if cluster.same_machine(devices) {
            cluster.machine.intra_bandwidth
        } else {
            let machines = cluster.machines_spanned(devices).max(1);
            let per_machine = devices.len().div_ceil(machines).max(1);
            cluster.machine.inter_bandwidth * cluster.machine.gpus as f64 / per_machine as f64
        };
        nominal * self.bandwidth_efficiency
    }

    /// Time (seconds) for one collective of `total_bytes` over `devices`.
    ///
    /// `total_bytes` is the *full* payload: for all-gather / broadcast /
    /// gather / scatter it is the aggregated buffer size; for all-reduce /
    /// reduce-scatter it is the per-rank input size (all ranks hold a
    /// buffer of this size).
    pub fn collective_time(
        &self,
        cluster: &ClusterSpec,
        devices: &[DeviceId],
        kind: CollectiveKind,
        total_bytes: f64,
    ) -> f64 {
        let n = devices.len();
        if n <= 1 {
            return 0.0;
        }
        let bw = self.link_bandwidth(cluster, devices);
        let nf = n as f64;
        let phase = |bytes_per_phase: f64| self.alpha + bytes_per_phase / bw;
        match kind {
            // Ring all-gather: n-1 phases, each moving B/n bytes.
            CollectiveKind::AllGather | CollectiveKind::ReduceScatter => {
                (nf - 1.0) * phase(total_bytes / nf)
            }
            // Ring all-reduce = reduce-scatter + all-gather.
            CollectiveKind::AllReduce => 2.0 * (nf - 1.0) * phase(total_bytes / nf),
            // Pipelined ring broadcast ≈ all-gather of the same volume.
            CollectiveKind::Broadcast => (nf - 1.0) * phase(total_bytes / nf),
            // Gather/scatter serialize through the root link.
            CollectiveKind::Gather | CollectiveKind::Scatter => {
                (nf - 1.0) * self.alpha + total_bytes * (nf - 1.0) / nf / bw
            }
            // Pairwise-exchange all-to-all: n-1 phases of B/n bytes.
            CollectiveKind::AllToAll => (nf - 1.0) * phase(total_bytes / nf),
        }
    }

    /// Point-to-point transfer time for `bytes` between two devices.
    pub fn p2p_time(&self, cluster: &ClusterSpec, src: DeviceId, dst: DeviceId, bytes: f64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let bw = self.link_bandwidth(cluster, &[src, dst]);
        self.alpha + bytes / bw
    }

    /// Control-message dispatch latency from the single controller to a
    /// worker (RPC over the host network; paper §2.2/§2.5 argues this is
    /// negligible relative to model computation, which our evaluation
    /// re-verifies via an ablation bench).
    pub fn rpc_dispatch_time(&self) -> f64 {
        // Sub-millisecond Ray-like RPC dispatch.
        200e-6
    }
}

/// Closed-form communication volume (bytes moved per rank) for a ring
/// all-gather aggregating `total_bytes` over `n` ranks: `(n-1)/n · B`.
///
/// This is the quantity the paper's Table 2 reports as "Comm. Vol".
pub fn ring_all_gather_volume(total_bytes: f64, n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        total_bytes * (n as f64 - 1.0) / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::a100_cluster(2)
    }

    #[test]
    fn intra_machine_uses_nvlink() {
        let m = CommCostModel::default();
        let c = cluster();
        let devs: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let bw = m.link_bandwidth(&c, &devs);
        assert!((bw - 600e9 * 0.7).abs() < 1.0);
    }

    #[test]
    fn inter_machine_is_bottlenecked_by_nic_share() {
        let m = CommCostModel::default();
        let c = cluster();
        let devs: Vec<DeviceId> = (0..16).map(DeviceId).collect();
        // 8 ranks per machine share a 200 Gbps NIC: 25e9/8*8 = 25e9... the
        // per-machine NIC is 200e9/8 per GPU nominal; with 8 ranks on each
        // machine the share is (200e9/8)*8/8 = 25e9 B/s before efficiency.
        let bw = m.link_bandwidth(&c, &devs);
        assert!((bw - 25e9 * 0.7).abs() < 1.0, "bw = {bw}");
    }

    #[test]
    fn all_gather_time_scales_with_volume() {
        let m = CommCostModel::default();
        let c = cluster();
        let devs: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let t1 = m.collective_time(&c, &devs, CollectiveKind::AllGather, 1e9);
        let t2 = m.collective_time(&c, &devs, CollectiveKind::AllGather, 2e9);
        assert!(t2 > t1);
        assert!(t2 < 2.0 * t1 + 1e-3);
    }

    #[test]
    fn all_reduce_is_twice_reduce_scatter() {
        let m = CommCostModel::default();
        let c = cluster();
        let devs: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let rs = m.collective_time(&c, &devs, CollectiveKind::ReduceScatter, 1e9);
        let ar = m.collective_time(&c, &devs, CollectiveKind::AllReduce, 1e9);
        assert!((ar - 2.0 * rs).abs() < 1e-9);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = CommCostModel::default();
        let c = cluster();
        let t = m.collective_time(&c, &[DeviceId(0)], CollectiveKind::AllReduce, 1e9);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn p2p_same_device_free_and_cross_machine_slower() {
        let m = CommCostModel::default();
        let c = cluster();
        assert_eq!(m.p2p_time(&c, DeviceId(0), DeviceId(0), 1e9), 0.0);
        let intra = m.p2p_time(&c, DeviceId(0), DeviceId(1), 1e9);
        let inter = m.p2p_time(&c, DeviceId(0), DeviceId(8), 1e9);
        assert!(inter > intra);
    }

    #[test]
    fn ring_volume_formula() {
        assert_eq!(ring_all_gather_volume(8.0, 1), 0.0);
        assert!((ring_all_gather_volume(8.0, 4) - 6.0).abs() < 1e-12);
    }
}
