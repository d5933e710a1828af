//! Cluster topology: GPUs, machines, and virtualized resource pools.
//!
//! The paper's testbed (§8.1) is 16 machines × 8 A100-80GB, NVLink
//! 600 GB/s intra-machine, 200 Gbps inter-machine. `GpuSpec::a100_80g`
//! and [`ClusterSpec::a100_cluster`] reproduce those constants; other
//! shapes can be constructed for what-if studies.

/// Identifier of a single GPU device in the cluster (global, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Performance characteristics of one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense BF16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// HBM capacity in bytes.
    pub memory_bytes: f64,
    /// HBM bandwidth in bytes/s.
    pub memory_bandwidth: f64,
}

impl GpuSpec {
    /// NVIDIA A100-80GB SXM: 312 TFLOP/s BF16, 80 GB HBM2e at ~2.0 TB/s.
    pub(crate) fn a100_80g() -> Self {
        GpuSpec { peak_flops: 312e12, memory_bytes: 80e9, memory_bandwidth: 2.0e12 }
    }

    /// NVIDIA A100-40GB SXM: same compute, half the memory.
    pub fn a100_40g() -> Self {
        GpuSpec { peak_flops: 312e12, memory_bytes: 40e9, memory_bandwidth: 1.56e12 }
    }

    /// NVIDIA H100 SXM: 989 TFLOP/s BF16, 80 GB HBM3 at 3.35 TB/s.
    pub(crate) fn h100() -> Self {
        GpuSpec { peak_flops: 989e12, memory_bytes: 80e9, memory_bandwidth: 3.35e12 }
    }
}

/// A machine: a set of GPUs sharing a fast intra-machine interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Number of GPUs per machine.
    pub gpus: usize,
    /// Per-GPU intra-machine interconnect bandwidth in bytes/s (NVLink).
    pub(crate) intra_bandwidth: f64,
    /// Per-machine network bandwidth in bytes/s (NIC, shared by its GPUs).
    pub(crate) inter_bandwidth: f64,
}

impl MachineSpec {
    /// DGX-like machine: 8 GPUs, 600 GB/s NVLink, 200 Gbps NIC.
    pub(crate) fn dgx_a100() -> Self {
        MachineSpec { gpus: 8, intra_bandwidth: 600e9, inter_bandwidth: 200e9 / 8.0 }
    }
}

/// A homogeneous cluster of machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// GPU model used throughout the cluster.
    pub gpu: GpuSpec,
    /// Machine shape used throughout the cluster.
    pub machine: MachineSpec,
    /// Number of machines.
    pub machines: usize,
}

impl ClusterSpec {
    /// The paper's testbed: `machines` × 8 A100-80GB (16 machines = 128 GPUs).
    pub fn a100_cluster(machines: usize) -> Self {
        ClusterSpec { gpu: GpuSpec::a100_80g(), machine: MachineSpec::dgx_a100(), machines }
    }

    /// A cluster sized to hold exactly `gpus` A100s (8 per machine, rounded up).
    pub fn a100_with_gpus(gpus: usize) -> Self {
        Self::a100_cluster(gpus.div_ceil(8))
    }

    /// An H100 cluster: `gpus` H100-SXM, 900 GB/s NVLink, 400 Gbps NICs
    /// (what-if studies beyond the paper's A100 testbed — the §6
    /// heterogeneity hook: `simu` and `auto_parallel` only read
    /// [`GpuSpec`], so alternate hardware needs no algorithm changes).
    pub fn h100_with_gpus(gpus: usize) -> Self {
        ClusterSpec {
            gpu: GpuSpec::h100(),
            machine: MachineSpec { gpus: 8, intra_bandwidth: 900e9, inter_bandwidth: 400e9 / 8.0 },
            machines: gpus.div_ceil(8),
        }
    }

    /// Total number of GPUs.
    pub fn total_gpus(&self) -> usize {
        self.machines * self.machine.gpus
    }

    /// The machine index hosting a device.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is out of range for this cluster.
    pub(crate) fn machine_of(&self, dev: DeviceId) -> usize {
        assert!(
            dev.0 < self.total_gpus(),
            "device {} out of range (cluster has {} GPUs)",
            dev.0,
            self.total_gpus()
        );
        dev.0 / self.machine.gpus
    }

    /// Whether all devices in `devs` are on a single machine.
    pub(crate) fn same_machine(&self, devs: &[DeviceId]) -> bool {
        match devs.first() {
            None => true,
            Some(first) => {
                let m = self.machine_of(*first);
                devs.iter().all(|d| self.machine_of(*d) == m)
            }
        }
    }

    /// Number of distinct machines spanned by `devs`.
    pub(crate) fn machines_spanned(&self, devs: &[DeviceId]) -> usize {
        let mut seen: Vec<usize> = devs.iter().map(|d| self.machine_of(*d)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// A virtualized, ordered set of GPU devices (paper §4.1).
///
/// Applying the same `ResourcePool` to multiple model classes colocates
/// them (time-shared, sequential execution); disjoint pools place models
/// on different devices, enabling parallel execution. Pools must not
/// overlap (asserted by [`ResourcePool::disjoint`] where the caller
/// composes placements).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResourcePool {
    devices: Vec<DeviceId>,
}

impl ResourcePool {
    /// Creates a pool over an explicit device list.
    ///
    /// # Panics
    ///
    /// Panics if `devices` contains duplicates.
    pub fn new(devices: Vec<DeviceId>) -> Self {
        let mut sorted = devices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), devices.len(), "ResourcePool devices must be unique");
        ResourcePool { devices }
    }

    /// A pool over the contiguous device range `[start, start + n)`.
    pub fn contiguous(start: usize, n: usize) -> Self {
        ResourcePool { devices: (start..start + n).map(DeviceId).collect() }
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The ordered device list; local rank `i` runs on `devices()[i]`.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// The device hosting local rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    pub fn device(&self, rank: usize) -> DeviceId {
        self.devices[rank]
    }

    /// Whether two pools share no device.
    pub fn disjoint(&self, other: &ResourcePool) -> bool {
        self.devices.iter().all(|d| !other.devices.contains(d))
    }

    /// Whether two pools are over exactly the same device set.
    pub fn same_devices(&self, other: &ResourcePool) -> bool {
        let mut a = self.devices.clone();
        let mut b = other.devices.clone();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_cluster_has_expected_size() {
        let c = ClusterSpec::a100_cluster(16);
        assert_eq!(c.total_gpus(), 128);
        assert_eq!(c.machine_of(DeviceId(0)), 0);
        assert_eq!(c.machine_of(DeviceId(7)), 0);
        assert_eq!(c.machine_of(DeviceId(8)), 1);
        assert_eq!(c.machine_of(DeviceId(127)), 15);
    }

    #[test]
    fn a100_with_gpus_rounds_up() {
        assert_eq!(ClusterSpec::a100_with_gpus(8).machines, 1);
        assert_eq!(ClusterSpec::a100_with_gpus(9).machines, 2);
        assert_eq!(ClusterSpec::a100_with_gpus(128).machines, 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn machine_of_out_of_range_panics() {
        let c = ClusterSpec::a100_cluster(1);
        c.machine_of(DeviceId(8));
    }

    #[test]
    fn same_machine_detection() {
        let c = ClusterSpec::a100_cluster(2);
        assert!(c.same_machine(&[DeviceId(0), DeviceId(7)]));
        assert!(!c.same_machine(&[DeviceId(0), DeviceId(8)]));
        assert!(c.same_machine(&[]));
        assert_eq!(c.machines_spanned(&[DeviceId(0), DeviceId(8), DeviceId(9)]), 2);
    }

    #[test]
    fn resource_pool_basics() {
        let p = ResourcePool::contiguous(4, 4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.device(0), DeviceId(4));
        assert_eq!(p.device(3), DeviceId(7));
        let q = ResourcePool::contiguous(0, 4);
        assert!(p.disjoint(&q));
        assert!(!p.disjoint(&p.clone()));
        assert!(p.same_devices(&ResourcePool::new(vec![
            DeviceId(7),
            DeviceId(6),
            DeviceId(5),
            DeviceId(4)
        ])));
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn resource_pool_rejects_duplicates() {
        ResourcePool::new(vec![DeviceId(1), DeviceId(1)]);
    }
}
