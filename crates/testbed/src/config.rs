//! Testbed construction: scheme choice, device layout, knobs.

use bm_host::KernelProfile;
use bm_sim::faults::FaultPlan;
use bm_sim::slo::SloConfig;
use bm_sim::SimDuration;
use bm_ssd::{DataMode, PerfProfile, SsdId};
use bmstore_core::engine::qos::QosLimit;
use bmstore_core::{FailPolicy, Placement};

/// Which storage virtualization scheme attaches the devices.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeKind {
    /// Bare-metal native NVMe (the paper's baseline).
    Native,
    /// VFIO passthrough into VMs (whole device per VM).
    Vfio,
    /// BM-Store: engine + controller, namespaces bound to VFs.
    BmStore {
        /// Devices attach inside VMs (true for §V-C/D/E, false for
        /// the bare-metal §V-B runs).
        in_vm: bool,
    },
    /// SPDK vhost with this many dedicated polling cores.
    SpdkVhost {
        /// Reserved host polling cores.
        cores: usize,
    },
    /// A LeapIO-style ARM full offload (ablation).
    ArmOffload,
}

/// One tenant device to create.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Capacity in bytes (BM-Store namespace size; partition size for
    /// vhost; ignored for whole-disk native/VFIO).
    pub size_bytes: u64,
    /// Placement for BM-Store bindings.
    pub placement: Placement,
    /// QoS limit (BM-Store only).
    pub qos: QosLimit,
}

impl DeviceSpec {
    /// A whole-disk-sized device on one SSD.
    pub fn whole_disk(ssd: u8) -> Self {
        DeviceSpec {
            size_bytes: 1536 << 30,
            placement: Placement::Single(SsdId(ssd)),
            qos: QosLimit::UNLIMITED,
        }
    }

    /// The paper's multi-VM namespace: 256 GB round-robin (§V-D).
    pub fn vm_namespace() -> Self {
        DeviceSpec {
            size_bytes: 256 << 30,
            placement: Placement::RoundRobin,
            qos: QosLimit::UNLIMITED,
        }
    }

    /// A 256 GB namespace placed on one SSD (per-tenant isolation, the
    /// §V-E mixed-workload layout).
    pub fn vm_namespace_on(ssd: u8) -> Self {
        DeviceSpec {
            size_bytes: 256 << 30,
            placement: Placement::Single(SsdId(ssd)),
            qos: QosLimit::UNLIMITED,
        }
    }
}

/// Full testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// Number of back-end SSDs.
    pub ssds: usize,
    /// SSD performance profile.
    pub ssd_profile: PerfProfile,
    /// Whether I/O payload bytes actually move (integrity tests).
    pub data_mode: DataMode,
    /// Host kernel profile.
    pub kernel: KernelProfile,
    /// Tenant devices.
    pub devices: Vec<DeviceSpec>,
    /// RNG seed.
    pub seed: u64,
    /// Apply the kernel's block-layer plug factor to reported latency
    /// (the Table VI fio configuration exhibits it; Table V's does not).
    pub apply_plug_factor: bool,
    /// Overrides the SPDK vhost tuning (defaults by kernel profile).
    pub spdk_config: Option<bm_baselines::spdk::SpdkVhostConfig>,
    /// BM-Store ablation: store-and-forward card-DRAM bandwidth
    /// (`None` = the paper's zero-copy DMA routing).
    pub store_and_forward_bw: Option<f64>,
    /// Scheduled/probabilistic fault injections. The default empty plan
    /// is inert: no events are scheduled and no RNG is drawn, so
    /// fault-free runs are bit-identical to builds without this field.
    pub fault_plan: FaultPlan,
    /// BM-Store engine per-command timeout (`None` = timeouts disarmed,
    /// the paper-default fast path).
    pub command_timeout: Option<SimDuration>,
    /// What the BM-Store engine does after exhausting timeout retries.
    pub engine_fail_policy: FailPolicy,
    /// Fault-injection sabotage knob for crash-journal tests: the
    /// engine silently drops the last journaled span on every crash.
    /// The chaos harness's oracles must catch the resulting lost
    /// command. Never set outside tests.
    #[doc(hidden)]
    pub engine_drop_journal_tail: bool,
    /// Puts a telemetry recorder (per-command spans, tenant
    /// aggregation, trace export) into the testbed's observer. Off by
    /// default: with no recorder every telemetry call is a skipped
    /// branch, so telemetry-off runs are bit-identical to builds
    /// without it.
    pub telemetry: bool,
    /// Puts a metrics registry into the observer and schedules its
    /// periodic sampler (counters, gauges, bounded time series,
    /// bottleneck report). Off, it costs the same skipped branch as
    /// `telemetry`, and runs are bit-identical.
    pub metrics: bool,
    /// Sampling period of the metrics time-series event (ignored when
    /// `metrics` is off).
    pub metrics_interval: SimDuration,
    /// Per-tenant SLO policy: the observer's SLO engine, evaluated on
    /// every sampler tick. `None` leaves it out; setting it implies
    /// `metrics` (alerts are recorded as metric annotations).
    pub slo: Option<SloConfig>,
    /// Puts the wall-clock self-profiler (`bm-prof`) into the observer:
    /// scoped timers around event dispatch, allocation attribution, and
    /// the events/sec sampler. Read-only with respect to the simulation
    /// — profiler-on runs are byte-identical to profiler-off runs (the
    /// property `tests/prof.rs` asserts).
    pub profiler: bool,
}

impl TestbedConfig {
    /// Bare-metal native, one device per SSD.
    pub fn native(ssds: usize) -> Self {
        TestbedConfig {
            scheme: SchemeKind::Native,
            ssds,
            ssd_profile: PerfProfile::p4510_2tb(),
            data_mode: DataMode::TimingOnly,
            kernel: KernelProfile::centos79_310(),
            devices: (0..ssds).map(|i| DeviceSpec::whole_disk(i as u8)).collect(),
            seed: 42,
            apply_plug_factor: false,
            spdk_config: None,
            store_and_forward_bw: None,
            fault_plan: FaultPlan::default(),
            command_timeout: None,
            engine_fail_policy: FailPolicy::AbortToHost,
            engine_drop_journal_tail: false,
            telemetry: false,
            metrics: false,
            metrics_interval: SimDuration::from_us(20),
            slo: None,
            profiler: false,
        }
    }

    /// Bare-metal BM-Store: the §V-B configuration (1536 GB namespace
    /// from one SSD per device).
    pub fn bm_store_bare_metal(ssds: usize) -> Self {
        TestbedConfig {
            scheme: SchemeKind::BmStore { in_vm: false },
            devices: (0..ssds).map(|i| DeviceSpec::whole_disk(i as u8)).collect(),
            ..Self::native(ssds)
        }
    }

    /// Single-VM comparisons (§V-C): one device, chosen scheme.
    pub fn single_vm(scheme: SchemeKind) -> Self {
        TestbedConfig {
            scheme,
            devices: vec![DeviceSpec::whole_disk(0)],
            ..Self::native(1)
        }
    }

    /// Multi-VM BM-Store (§V-D): `vms` round-robin 256 GB namespaces on
    /// 4 SSDs.
    pub fn multi_vm_bm_store(vms: usize) -> Self {
        TestbedConfig {
            scheme: SchemeKind::BmStore { in_vm: true },
            devices: (0..vms).map(|_| DeviceSpec::vm_namespace()).collect(),
            ..Self::native(4)
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the kernel profile.
    pub fn with_kernel(mut self, kernel: KernelProfile) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables full data movement.
    pub fn with_data_mode(mut self, mode: DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Arms the BM-Store engine's per-command timeout.
    pub fn with_command_timeout(mut self, timeout: SimDuration, policy: FailPolicy) -> Self {
        self.command_timeout = Some(timeout);
        self.engine_fail_policy = policy;
        self
    }

    /// Enables the telemetry recorder.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Enables the metrics registry and periodic sampler.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Overrides the metrics sampling period (implies [`Self::with_metrics`]).
    pub fn with_metrics_interval(mut self, interval: SimDuration) -> Self {
        self.metrics = true;
        self.metrics_interval = interval;
        self
    }

    /// Installs a per-tenant SLO policy (implies [`Self::with_metrics`]:
    /// the burn-rate evaluator rides the periodic sampler and records
    /// alerts as metric annotations).
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.metrics = true;
        self.slo = Some(slo);
        self
    }

    /// Enables the wall-clock self-profiler (see
    /// [`TestbedConfig::profiler`]).
    pub fn with_profiler(mut self) -> Self {
        self.profiler = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_shapes() {
        let n = TestbedConfig::native(4);
        assert_eq!(n.devices.len(), 4);
        let b = TestbedConfig::bm_store_bare_metal(1);
        assert!(matches!(b.scheme, SchemeKind::BmStore { in_vm: false }));
        let m = TestbedConfig::multi_vm_bm_store(26);
        assert_eq!(m.devices.len(), 26);
        assert_eq!(m.ssds, 4);
        let s = TestbedConfig::single_vm(SchemeKind::SpdkVhost { cores: 1 });
        assert_eq!(s.devices.len(), 1);
    }
}
