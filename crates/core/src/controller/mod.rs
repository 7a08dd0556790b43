//! The BMS-Controller — the ARM half of BM-Store (paper Fig. 3, §IV-D).
//!
//! Receives management traffic out-of-band: a remote console sends MCTP
//! packets over PCIe; the [`BmsController`] reassembles them, the
//! NVMe-MI protocol analyzer decodes them (standard health polls plus
//! the [`commands::BmsCommand`] vendor verbs), and the controller
//! drives the engine (bindings, QoS, pause/resume) and the back-end
//! SSDs (firmware, health) — all without touching the host OS.

pub mod commands;
pub mod hot_plug;
pub mod hot_upgrade;
pub mod io_monitor;

use crate::controller::commands::BmsCommand;
use crate::controller::hot_plug::{HotPlugReport, HotPlugState};
use crate::controller::hot_upgrade::{UpgradeReport, UpgradeState};
use crate::controller::io_monitor::IoMonitor;
use crate::engine::qos::QosLimit;
use crate::engine::{BmsEngine, EngineAction, Placement};
use bm_nvme::mi::{HealthStatus, MiOpcode, MiRequest, MiResponse, MiStatus};
use bm_nvme::Status;
use bm_pcie::mctp::{Assembler, Eid, MctpMessage, MctpPacket, MessageType};
use bm_pcie::HostMemory;
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use std::collections::BTreeMap;

/// The controller's access to physical SSD admin planes (implemented by
/// the testbed over the real admin rings).
pub trait BackendAdmin {
    /// Streams `image` into the SSD's staging buffer.
    ///
    /// # Errors
    ///
    /// Propagates the SSD's admin status on failure.
    fn firmware_download(&mut self, ssd: SsdId, image: &[u8]) -> Result<(), Status>;

    /// Commits and activates the staged image into `slot`; returns the
    /// device's activation (freeze) duration.
    ///
    /// # Errors
    ///
    /// Propagates the SSD's admin status on failure.
    fn firmware_commit_activate(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        slot: u8,
    ) -> Result<SimDuration, Status>;

    /// The running firmware version string.
    fn firmware_version(&mut self, ssd: SsdId) -> String;

    /// Health snapshot of one SSD.
    fn health(&mut self, ssd: SsdId) -> HealthStatus;
}

/// Timed effects the controller hands back to the harness.
#[derive(Debug)]
pub enum ControllerAction {
    /// Send these MCTP packets back to the console.
    Respond {
        /// The response packets, in order.
        packets: Vec<MctpPacket>,
    },
    /// Call [`BmsController::finish_upgrade`] at `at`.
    FinishUpgrade {
        /// The upgrading SSD.
        ssd: SsdId,
        /// When its activation completes.
        at: SimTime,
    },
    /// Engine actions produced while handling management (e.g. flushes
    /// of buffered I/O on resume).
    Engine(EngineAction),
}

/// The BMS-Controller.
pub struct BmsController {
    eid: Eid,
    assembler: Assembler,
    monitor: IoMonitor,
    upgrades: BTreeMap<u8, UpgradeState>,
    hotplugs: BTreeMap<u8, HotPlugState>,
    upgrade_reports: Vec<UpgradeReport>,
    hotplug_reports: Vec<HotPlugReport>,
    handled: u64,
}

impl std::fmt::Debug for BmsController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BmsController")
            .field("eid", &self.eid)
            .field("handled", &self.handled)
            .finish()
    }
}

impl BmsController {
    /// Creates a controller listening on MCTP endpoint `eid`.
    pub fn new(eid: Eid) -> Self {
        BmsController {
            eid,
            assembler: Assembler::new(),
            monitor: IoMonitor::new(),
            upgrades: BTreeMap::new(),
            hotplugs: BTreeMap::new(),
            upgrade_reports: Vec::new(),
            hotplug_reports: Vec::new(),
            handled: 0,
        }
    }

    /// The controller's MCTP endpoint id.
    pub fn eid(&self) -> Eid {
        self.eid
    }

    /// Management requests handled so far.
    pub fn handled(&self) -> u64 {
        self.handled
    }

    /// Completed upgrade reports (Table IX's raw data).
    pub fn upgrade_reports(&self) -> &[UpgradeReport] {
        &self.upgrade_reports
    }

    /// Completed hot-plug reports.
    pub fn hotplug_reports(&self) -> &[HotPlugReport] {
        &self.hotplug_reports
    }

    /// The MCTP reassembler (the metrics sampler reads its in-progress
    /// partial-assembly gauge).
    pub fn assembler(&self) -> &Assembler {
        &self.assembler
    }

    /// Feeds one MCTP packet from the console. When a full message
    /// assembles, it is parsed and dispatched.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        pkt: MctpPacket,
        engine: &mut BmsEngine,
        backend: &mut dyn BackendAdmin,
        host: &mut HostMemory,
    ) -> Vec<ControllerAction> {
        let src = pkt.src;
        let tag = pkt.tag;
        let msg = match self.assembler.push(pkt) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Vec::new(),
            Err(_) => {
                // Reassembly error: report an internal error frame.
                return vec![self.respond(src, tag, MiResponse::err(MiStatus::InternalError))];
            }
        };
        if msg.mtype != MessageType::NvmeMi {
            return Vec::new(); // control traffic handled elsewhere
        }
        let req = match MiRequest::from_bytes(&msg.body) {
            Ok(req) => req,
            Err(_) => {
                return vec![self.respond(src, tag, MiResponse::err(MiStatus::InvalidParameter))]
            }
        };
        self.handled += 1;
        let (resp, mut actions) = self.dispatch(now, &req, engine, backend, host);
        actions.push(self.respond(src, tag, resp));
        actions
    }

    fn respond(&self, dest: Eid, tag: u8, resp: MiResponse) -> ControllerAction {
        let msg = MctpMessage::new(MessageType::NvmeMi, resp.to_bytes());
        ControllerAction::Respond {
            packets: msg.packetize(self.eid, dest, tag),
        }
    }

    /// The NVMe-MI protocol analyzer: standard opcodes and vendor verbs.
    fn dispatch(
        &mut self,
        now: SimTime,
        req: &MiRequest,
        engine: &mut BmsEngine,
        backend: &mut dyn BackendAdmin,
        host: &mut HostMemory,
    ) -> (MiResponse, Vec<ControllerAction>) {
        match req.opcode {
            MiOpcode::SubsystemHealthPoll | MiOpcode::ControllerHealthPoll => {
                let ssd = SsdId(req.payload.first().copied().unwrap_or(0));
                let h = backend.health(ssd);
                (MiResponse::ok(h.to_bytes().to_vec()), Vec::new())
            }
            MiOpcode::Vendor(_) => match BmsCommand::from_request(req) {
                // The engine and the back end index their per-SSD state
                // by these ids: a verb naming a bay the card lacks stops
                // here.
                Ok(cmd)
                    if cmd
                        .ssds()
                        .into_iter()
                        .flatten()
                        .any(|ssd| usize::from(ssd.0) >= engine.config().ssd_count) =>
                {
                    (MiResponse::err(MiStatus::InvalidParameter), Vec::new())
                }
                Ok(cmd) => self.dispatch_vendor(now, cmd, engine, backend, host),
                Err(_) => (MiResponse::err(MiStatus::InvalidParameter), Vec::new()),
            },
            MiOpcode::ReadDataStructure
            | MiOpcode::ConfigSet
            | MiOpcode::ConfigGet
            | MiOpcode::VpdRead => (MiResponse::err(MiStatus::InvalidParameter), Vec::new()),
        }
    }

    fn dispatch_vendor(
        &mut self,
        now: SimTime,
        cmd: BmsCommand,
        engine: &mut BmsEngine,
        backend: &mut dyn BackendAdmin,
        host: &mut HostMemory,
    ) -> (MiResponse, Vec<ControllerAction>) {
        match cmd {
            BmsCommand::CreateAndBind {
                func,
                size_bytes,
                single_ssd,
            } => {
                let placement = match single_ssd {
                    Some(ssd) => Placement::Single(ssd),
                    None => Placement::RoundRobin,
                };
                match engine.bind_namespace(func, size_bytes, placement) {
                    Ok(()) => (MiResponse::ok(Vec::new()), Vec::new()),
                    Err(crate::engine::BindError::AlreadyBound) => {
                        (MiResponse::err(MiStatus::Busy), Vec::new())
                    }
                    Err(_) => (MiResponse::err(MiStatus::InvalidParameter), Vec::new()),
                }
            }
            BmsCommand::Unbind { func } => {
                if engine.unbind_namespace(func) {
                    (MiResponse::ok(Vec::new()), Vec::new())
                } else {
                    (MiResponse::err(MiStatus::NotFound), Vec::new())
                }
            }
            BmsCommand::SetQos { func, iops, mbps } => {
                let limit = QosLimit {
                    iops: (iops > 0).then_some(iops as f64),
                    bytes_per_sec: (mbps > 0).then_some(mbps as f64 * 1e6),
                };
                if engine.set_qos_limit(func, limit) {
                    (MiResponse::ok(Vec::new()), Vec::new())
                } else {
                    (MiResponse::err(MiStatus::NotFound), Vec::new())
                }
            }
            BmsCommand::QueryStats { func } => {
                let (snap, _) = self.monitor.poll(now, engine, func);
                (
                    MiResponse::ok(IoMonitor::encode_counters(&snap.counters)),
                    Vec::new(),
                )
            }
            BmsCommand::QueryTelemetry { func } => {
                let page = self.monitor.log_page(now, engine, func);
                (MiResponse::ok(page.to_bytes()), Vec::new())
            }
            BmsCommand::HealthPoll { ssd } => {
                let h = backend.health(ssd);
                (MiResponse::ok(h.to_bytes().to_vec()), Vec::new())
            }
            BmsCommand::QueryVersion { ssd } => {
                let v = backend.firmware_version(ssd);
                (MiResponse::ok(v.into_bytes()), Vec::new())
            }
            BmsCommand::FirmwareUpgrade { ssd, slot, image } => {
                if self.upgrades.contains_key(&ssd.0) {
                    return (MiResponse::err(MiStatus::Busy), Vec::new());
                }
                // Quiesce and save I/O context.
                engine.pause_ssd(ssd);
                let ctx = engine.save_io_context(ssd);
                if backend.firmware_download(ssd, &image).is_err() {
                    let actions = engine
                        .resume_ssd(now, ssd, host)
                        .into_iter()
                        .map(ControllerAction::Engine)
                        .collect();
                    return (MiResponse::err(MiStatus::InternalError), actions);
                }
                match backend.firmware_commit_activate(now, ssd, slot) {
                    Ok(activation) => {
                        let state = UpgradeState::begin(
                            now,
                            ssd,
                            activation,
                            ctx.inflight.len() + ctx.buffered,
                        );
                        let resume_at = state.resume_at();
                        self.upgrades.insert(ssd.0, state);
                        (
                            MiResponse::ok(resume_at.as_nanos().to_le_bytes().to_vec()),
                            vec![ControllerAction::FinishUpgrade { ssd, at: resume_at }],
                        )
                    }
                    Err(_) => {
                        let actions = engine
                            .resume_ssd(now, ssd, host)
                            .into_iter()
                            .map(ControllerAction::Engine)
                            .collect();
                        (MiResponse::err(MiStatus::InternalError), actions)
                    }
                }
            }
            BmsCommand::HotPlugPrepare { ssd } => {
                engine.pause_ssd(ssd);
                let ctx = engine.save_io_context(ssd);
                self.hotplugs
                    .insert(ssd.0, HotPlugState::begin(now, ssd, ctx.inflight.len()));
                (MiResponse::ok(Vec::new()), Vec::new())
            }
            BmsCommand::HotPlugComplete { old, new } => {
                let Some(mut state) = self.hotplugs.remove(&old.0) else {
                    return (MiResponse::err(MiStatus::NotFound), Vec::new());
                };
                if now.checked_since(state.pause_start).is_none() {
                    // Completion timestamped before the pause began:
                    // reject without touching engine state.
                    self.hotplugs.insert(old.0, state);
                    return (MiResponse::err(MiStatus::InvalidParameter), Vec::new());
                }
                let retargeted = if old == new {
                    0
                } else if let Some(n) = engine.retarget_ssd(old, new) {
                    n
                } else {
                    // The new bay already holds chunks: migrating onto
                    // it would map two namespaces onto the same chunks.
                    self.hotplugs.insert(old.0, state);
                    return (MiResponse::err(MiStatus::InvalidParameter), Vec::new());
                };
                let mut resumed = engine.resume_ssd(now, new, host);
                if old != new {
                    resumed.extend(engine.resume_ssd(now, old, host));
                }
                let actions = resumed.into_iter().map(ControllerAction::Engine).collect();
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): the transition was validated before the engine was mutated"
                )]
                let report = state
                    .finish(now, new, retargeted)
                    .expect("transition validated before engine mutation");
                self.hotplug_reports.push(report);
                (MiResponse::ok(Vec::new()), actions)
            }
        }
    }

    /// Executes the resume phase of an upgrade (call at the
    /// `FinishUpgrade` action's time). Returns the engine actions that
    /// flush buffered I/O.
    ///
    /// Calling before the activation window has elapsed is a checked
    /// no-op: the upgrade stays pending (and still frozen) and no
    /// buffered I/O is flushed.
    ///
    /// # Panics
    ///
    /// Panics if no upgrade is in flight for `ssd`.
    pub fn finish_upgrade(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        engine: &mut BmsEngine,
        host: &mut HostMemory,
    ) -> Vec<EngineAction> {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): callers schedule FinishUpgrade only after starting an upgrade on this SSD"
        )]
        let mut state = self
            .upgrades
            .remove(&ssd.0)
            .expect("upgrade in flight for this SSD");
        match state.finish(now) {
            Ok(report) => {
                let actions = engine.resume_ssd(now, ssd, host);
                self.upgrade_reports.push(report);
                actions
            }
            Err(_) => {
                // Too early (device still activating): leave the
                // upgrade in flight and the engine quiesced.
                self.upgrades.insert(ssd.0, state);
                Vec::new()
            }
        }
    }
}

/// Convenience for tests and the console side: issue one management
/// request as MCTP packets.
pub fn request_packets(
    console: Eid,
    controller: Eid,
    tag: u8,
    cmd: &BmsCommand,
) -> Vec<MctpPacket> {
    let msg = MctpMessage::new(MessageType::NvmeMi, cmd.to_request().to_bytes());
    msg.packetize(console, controller, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use bm_pcie::FunctionId;

    struct FakeBackend {
        downloads: u64,
        commits: u64,
        fail_download: bool,
    }

    impl BackendAdmin for FakeBackend {
        fn firmware_download(&mut self, _ssd: SsdId, _image: &[u8]) -> Result<(), Status> {
            self.downloads += 1;
            if self.fail_download {
                Err(Status::InvalidFirmwareImage)
            } else {
                Ok(())
            }
        }

        fn firmware_commit_activate(
            &mut self,
            _now: SimTime,
            _ssd: SsdId,
            _slot: u8,
        ) -> Result<SimDuration, Status> {
            self.commits += 1;
            Ok(SimDuration::from_secs_f64(7.0))
        }

        fn firmware_version(&mut self, _ssd: SsdId) -> String {
            "VDV10999".to_string()
        }

        fn health(&mut self, ssd: SsdId) -> HealthStatus {
            HealthStatus {
                temperature_k: 300 + ssd.0 as u16,
                percent_used: 1,
                available_spare: 100,
                critical_warning: 0,
            }
        }
    }

    fn rig() -> (BmsController, BmsEngine, FakeBackend, HostMemory) {
        rig_of(4)
    }

    /// [`rig`] on an engine of `ssds` SSDs.
    fn rig_of(ssds: usize) -> (BmsController, BmsEngine, FakeBackend, HostMemory) {
        (
            BmsController::new(Eid(8)),
            BmsEngine::new(EngineConfig::paper_default(ssds)),
            FakeBackend {
                downloads: 0,
                commits: 0,
                fail_download: false,
            },
            HostMemory::new(1 << 26),
        )
    }

    /// Sends a command end-to-end over MCTP and returns the decoded
    /// response plus other actions.
    fn send(
        ctl: &mut BmsController,
        engine: &mut BmsEngine,
        backend: &mut FakeBackend,
        host: &mut HostMemory,
        cmd: BmsCommand,
    ) -> (MiResponse, Vec<ControllerAction>) {
        let packets = request_packets(Eid(9), ctl.eid(), 1, &cmd);
        let mut resp = None;
        let mut others = Vec::new();
        for pkt in packets {
            for action in ctl.on_packet(SimTime::ZERO, pkt, engine, backend, host) {
                match action {
                    ControllerAction::Respond { packets } => {
                        let mut asm = Assembler::new();
                        let mut msg = None;
                        for p in packets {
                            if let Some(m) = asm.push(p).unwrap() {
                                msg = Some(m);
                            }
                        }
                        resp = Some(MiResponse::from_bytes(&msg.unwrap().body).unwrap());
                    }
                    other => others.push(other),
                }
            }
        }
        (resp.expect("a response"), others)
    }

    #[test]
    fn bind_query_unbind_over_mctp() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let func = FunctionId::new(4).unwrap();
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::CreateAndBind {
                func,
                size_bytes: 256 << 30,
                single_ssd: None,
            },
        );
        assert!(resp.status.is_success());
        assert!(engine.function(func).binding().is_some());

        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::QueryStats { func },
        );
        assert!(resp.status.is_success());
        let counters = IoMonitor::decode_counters(&resp.payload).unwrap();
        assert_eq!(counters.reads, 0);

        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::Unbind { func },
        );
        assert!(resp.status.is_success());
        assert!(engine.function(func).binding().is_none());
        assert_eq!(ctl.handled(), 3);
    }

    #[test]
    fn double_bind_reports_busy() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let func = FunctionId::new(1).unwrap();
        let cmd = BmsCommand::CreateAndBind {
            func,
            size_bytes: 64 << 30,
            single_ssd: Some(SsdId(0)),
        };
        let (r1, _) = send(&mut ctl, &mut engine, &mut backend, &mut host, cmd.clone());
        assert!(r1.status.is_success());
        let (r2, _) = send(&mut ctl, &mut engine, &mut backend, &mut host, cmd);
        assert_eq!(r2.status, MiStatus::Busy);
    }

    #[test]
    fn zero_byte_bind_is_an_invalid_parameter() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let func = FunctionId::new(1).unwrap();
        let cmd = BmsCommand::CreateAndBind {
            func,
            size_bytes: 0,
            single_ssd: None,
        };
        let (resp, _) = send(&mut ctl, &mut engine, &mut backend, &mut host, cmd);
        assert_eq!(resp.status, MiStatus::InvalidParameter);
        assert!(engine.function(func).binding().is_none());
    }

    #[test]
    fn telemetry_query_serves_log_page_over_mctp() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let func = FunctionId::new(2).unwrap();
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::QueryTelemetry { func },
        );
        assert!(resp.status.is_success());
        let page = bm_nvme::log_page::TelemetryLogPage::from_bytes(&resp.payload).unwrap();
        assert_eq!(page.function, 2);
        assert_eq!(page.completions(), 0);
        assert_eq!(page.outstanding, 0);
        // A truncated copy of the same payload is rejected.
        assert!(bm_nvme::log_page::TelemetryLogPage::from_bytes(&resp.payload[..10]).is_err());
    }

    #[test]
    fn health_poll_round_trip() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::HealthPoll { ssd: SsdId(2) },
        );
        let h = HealthStatus::from_bytes(&resp.payload).unwrap();
        assert_eq!(h.temperature_k, 302);
    }

    #[test]
    fn firmware_upgrade_full_cycle() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let (resp, actions) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::FirmwareUpgrade {
                ssd: SsdId(1),
                slot: 2,
                image: vec![1u8; 2048],
            },
        );
        assert!(resp.status.is_success());
        assert!(engine.is_paused(SsdId(1)));
        assert_eq!(backend.downloads, 1);
        assert_eq!(backend.commits, 1);
        let resume_at = match &actions[..] {
            [ControllerAction::FinishUpgrade { ssd, at }] => {
                assert_eq!(*ssd, SsdId(1));
                *at
            }
            other => panic!("expected FinishUpgrade, got {other:?}"),
        };
        // 100 ms processing + 7 s activation.
        assert!((7.0..7.3).contains(&resume_at.as_secs_f64()));
        let _ = ctl.finish_upgrade(resume_at, SsdId(1), &mut engine, &mut host);
        assert!(!engine.is_paused(SsdId(1)));
        let report = ctl.upgrade_reports()[0];
        assert!((6.0..9.0).contains(&report.total().as_secs_f64()));
    }

    #[test]
    fn premature_finish_upgrade_is_a_checked_no_op() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let (resp, actions) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::FirmwareUpgrade {
                ssd: SsdId(1),
                slot: 2,
                image: vec![1u8; 512],
            },
        );
        assert!(resp.status.is_success());
        let resume_at = match &actions[..] {
            [ControllerAction::FinishUpgrade { at, .. }] => *at,
            other => panic!("expected FinishUpgrade, got {other:?}"),
        };
        // Firing the resume while the device is still activating must
        // not resume I/O or fabricate a report.
        let early = SimTime::ZERO + SimDuration::from_ms(200);
        let flushed = ctl.finish_upgrade(early, SsdId(1), &mut engine, &mut host);
        assert!(flushed.is_empty());
        assert!(engine.is_paused(SsdId(1)));
        assert!(ctl.upgrade_reports().is_empty());
        // The on-time resume still works afterwards.
        let _ = ctl.finish_upgrade(resume_at, SsdId(1), &mut engine, &mut host);
        assert!(!engine.is_paused(SsdId(1)));
        assert_eq!(ctl.upgrade_reports().len(), 1);
    }

    #[test]
    fn failed_download_resumes_io() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        backend.fail_download = true;
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::FirmwareUpgrade {
                ssd: SsdId(0),
                slot: 2,
                image: vec![1u8; 64],
            },
        );
        assert_eq!(resp.status, MiStatus::InternalError);
        assert!(!engine.is_paused(SsdId(0)), "I/O resumed after failure");
    }

    #[test]
    fn hot_plug_cross_bay_retargets_mapping() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let func = FunctionId::new(0).unwrap();
        engine
            .bind_namespace(func, 128 << 30, Placement::Single(SsdId(1)))
            .unwrap();
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::HotPlugPrepare { ssd: SsdId(1) },
        );
        assert!(resp.status.is_success());
        assert!(engine.is_paused(SsdId(1)));
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::HotPlugComplete {
                old: SsdId(1),
                new: SsdId(3),
            },
        );
        assert!(resp.status.is_success());
        let report = ctl.hotplug_reports()[0];
        assert_eq!(report.retargeted_entries, 2);
        // The binding now resolves to the new SSD.
        let row = engine.function(func).binding().unwrap().row_base;
        let (ssd, _) = engine.mapping().map(row, bm_nvme::Lba(0)).unwrap();
        assert_eq!(ssd, SsdId(3));
    }

    #[test]
    fn verbs_naming_a_missing_ssd_are_rejected_before_dispatch() {
        let (mut ctl, mut engine, mut backend, mut host) = rig_of(2);
        let func = FunctionId::new(0).unwrap();
        engine
            .bind_namespace(func, 128 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        let mut status = |engine: &mut BmsEngine, cmd| {
            send(&mut ctl, engine, &mut backend, &mut host, cmd)
                .0
                .status
        };
        let prepare = BmsCommand::HotPlugPrepare { ssd: SsdId(0) };
        assert_eq!(status(&mut engine, prepare), MiStatus::Success);
        let b = engine.function(func).binding().unwrap();
        let (row_base, rows) = (b.row_base, b.rows);
        let state = |engine: &BmsEngine| {
            let paused = [0, 1].map(|i| engine.is_paused(SsdId(i)));
            let chunks: Vec<_> = engine.mapping().chunks(row_base, rows).collect();
            (paused, chunks)
        };
        let before = state(&engine);
        for id in [2, 255] {
            let ssd = SsdId(id);
            let verbs = [
                BmsCommand::CreateAndBind {
                    func: FunctionId::new(1).unwrap(),
                    size_bytes: 64 << 30,
                    single_ssd: Some(ssd),
                },
                BmsCommand::HealthPoll { ssd },
                BmsCommand::FirmwareUpgrade {
                    ssd,
                    slot: 2,
                    image: vec![1u8; 64],
                },
                BmsCommand::HotPlugPrepare { ssd },
                BmsCommand::HotPlugComplete {
                    old: SsdId(0),
                    new: ssd,
                },
                BmsCommand::HotPlugComplete {
                    old: ssd,
                    new: SsdId(0),
                },
                BmsCommand::QueryVersion { ssd },
            ];
            for cmd in verbs {
                let got = status(&mut engine, cmd.clone());
                assert_eq!(got, MiStatus::InvalidParameter, "{cmd:?}");
                assert_eq!(state(&engine), before, "{cmd:?}");
            }
        }
        // The hot-plug of SSD 0 is still pending and completes.
        let complete = BmsCommand::HotPlugComplete {
            old: SsdId(0),
            new: SsdId(0),
        };
        assert_eq!(status(&mut engine, complete), MiStatus::Success);
        assert_eq!(backend.downloads, 0);
    }

    #[test]
    fn hot_plug_onto_an_occupied_bay_stays_pending() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        for (f, ssd) in [(0, 1), (1, 3)] {
            engine
                .bind_namespace(
                    FunctionId::new(f).unwrap(),
                    128 << 30,
                    Placement::Single(SsdId(ssd)),
                )
                .unwrap();
        }
        let mut status = |engine: &mut BmsEngine, cmd| {
            send(&mut ctl, engine, &mut backend, &mut host, cmd)
                .0
                .status
        };
        let prepare = BmsCommand::HotPlugPrepare { ssd: SsdId(1) };
        assert_eq!(status(&mut engine, prepare), MiStatus::Success);
        let onto_3 = BmsCommand::HotPlugComplete {
            old: SsdId(1),
            new: SsdId(3),
        };
        assert_eq!(status(&mut engine, onto_3), MiStatus::InvalidParameter);
        assert!(engine.is_paused(SsdId(1)), "the hot-plug stays pending");
        let onto_2 = BmsCommand::HotPlugComplete {
            old: SsdId(1),
            new: SsdId(2),
        };
        assert_eq!(status(&mut engine, onto_2), MiStatus::Success);
        assert!(!engine.is_paused(SsdId(1)));
        assert_eq!(ctl.hotplug_reports()[0].retargeted_entries, 2);
    }

    #[test]
    fn unknown_hot_plug_complete_rejected() {
        let (mut ctl, mut engine, mut backend, mut host) = rig();
        let (resp, _) = send(
            &mut ctl,
            &mut engine,
            &mut backend,
            &mut host,
            BmsCommand::HotPlugComplete {
                old: SsdId(2),
                new: SsdId(2),
            },
        );
        assert_eq!(resp.status, MiStatus::NotFound);
    }
}
