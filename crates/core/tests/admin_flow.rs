//! The transparency claim, exercised the way a stock `nvme` driver
//! would: the host enumerates a BM-Store front-end function purely with
//! standard admin commands through real rings — identify controller,
//! identify namespace, create I/O CQ/SQ — then does I/O on the queue it
//! created. No BM-Store-specific call appears on the host side after
//! admin-queue registration (which models the ACQ/ASQ BAR registers).

use bm_nvme::command::{AdminOpcode, IoOpcode, Sqe};
use bm_nvme::identify::{IdentifyController, IdentifyNamespace};
use bm_nvme::queue::DoorbellLayout;
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::{CompletionQueue, Status, SubmissionQueue};
use bm_pcie::{FunctionId, HostMemory, PciAddr};
use bm_sim::SimTime;
use bm_ssd::SsdId;
use bmstore_core::engine::{BmsEngine, EngineAction, EngineConfig, Placement};

struct HostSide {
    asq: SubmissionQueue,
    acq: CompletionQueue,
    func: FunctionId,
}

impl HostSide {
    /// Submits one admin command and collects the completion status by
    /// applying the engine's actions synchronously (admin commands
    /// complete without touching the back-end).
    fn admin(&mut self, engine: &mut BmsEngine, host: &mut HostMemory, sqe: &Sqe) -> Status {
        self.asq.push(host, sqe).expect("admin ring space");
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            self.func,
            DoorbellLayout::sq_tail_offset(QueueId::ADMIN),
            self.asq.tail() as u32,
            host,
        );
        let mut status = None;
        for action in actions {
            if let EngineAction::HostCompletion {
                qid,
                cid,
                status: st,
                ..
            } = action
            {
                assert_eq!(qid, QueueId::ADMIN);
                assert_eq!(cid, sqe.cid);
                engine.deliver_host_completion(self.func, qid, cid, st, host);
                status = Some(st);
            }
        }
        let cqe = self.acq.poll(host).expect("admin CQE posted");
        assert_eq!(cqe.cid, sqe.cid);
        self.asq.retire();
        status.expect("admin command completed")
    }
}

#[test]
fn stock_driver_enumeration_and_io() {
    let mut engine = BmsEngine::new(EngineConfig::paper_default(2));
    let mut host = HostMemory::new(1 << 30);
    let func = FunctionId::new(3).unwrap();

    // The BMS-Controller bound a namespace out-of-band beforehand.
    engine
        .bind_namespace(func, 256 << 30, Placement::Single(SsdId(1)))
        .unwrap();
    engine.set_function_enabled(func, true);

    // Host driver: set up the admin queue (ACQ/ASQ registers).
    let asq_base = host.alloc(16 * 64).unwrap();
    let acq_base = host.alloc(16 * 16).unwrap();
    engine
        .function_mut(func)
        .register_admin_queues(asq_base, acq_base, 16);
    let mut hs = HostSide {
        asq: SubmissionQueue::new(QueueId::ADMIN, asq_base, 16),
        acq: CompletionQueue::new(QueueId::ADMIN, acq_base, 16),
        func,
    };

    // Identify controller (CNS=1): a standard NVMe identity page.
    let idc_buf = host.alloc(4096).unwrap();
    let st = hs.admin(
        &mut engine,
        &mut host,
        &Sqe::admin(AdminOpcode::Identify, Cid(1), 1, idc_buf),
    );
    assert!(st.is_success());
    let idc = IdentifyController::from_page(&host.read_vec(idc_buf, 4096)).unwrap();
    assert_eq!(idc.model, "BM-Store Virtual NVMe");

    // Identify namespace (CNS=0): the bound 256 GB shows through.
    let idn_buf = host.alloc(4096).unwrap();
    let st = hs.admin(
        &mut engine,
        &mut host,
        &Sqe::admin(AdminOpcode::Identify, Cid(2), 0, idn_buf),
    );
    assert!(st.is_success());
    let idn = IdentifyNamespace::from_page(&host.read_vec(idn_buf, 4096)).unwrap();
    assert_eq!(idn.nsze * idn.block_size, 256 << 30);

    // Create I/O CQ then SQ via admin commands (qid=1, 64 entries).
    let iocq_base = host.alloc(64 * 16).unwrap();
    let iosq_base = host.alloc(64 * 64).unwrap();
    let cdw10 = 1u32 | (63 << 16);
    let st = hs.admin(
        &mut engine,
        &mut host,
        &Sqe::admin(AdminOpcode::CreateIoCq, Cid(3), cdw10, iocq_base),
    );
    assert!(st.is_success());
    let st = hs.admin(
        &mut engine,
        &mut host,
        &Sqe::admin(AdminOpcode::CreateIoSq, Cid(4), cdw10, iosq_base),
    );
    assert!(st.is_success());

    // SQ creation without a prior CQ fails, per the spec.
    let st = hs.admin(
        &mut engine,
        &mut host,
        &Sqe::admin(
            AdminOpcode::CreateIoSq,
            Cid(5),
            2 | (63 << 16),
            PciAddr::new(0x9000),
        ),
    );
    assert_eq!(st, Status::InvalidField);

    // I/O through the queue the driver just created reaches the back end.
    let mut iosq = SubmissionQueue::new(QueueId(1), iosq_base, 64);
    let buf = host.alloc(4096).unwrap();
    let sqe = Sqe::io(
        IoOpcode::Read,
        Cid(9),
        Nsid::new(1).unwrap(),
        Lba(1234),
        1,
        buf,
        PciAddr::NULL,
    );
    iosq.push(&mut host, &sqe).unwrap();
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        func,
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        iosq.tail() as u32,
        &mut host,
    );
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, EngineAction::BackendDoorbell { ssd: SsdId(1), .. })),
        "the read was forwarded to the bound SSD"
    );

    // Firmware commands on a *virtual* controller are refused — the
    // physical firmware belongs to the out-of-band path.
    let st = hs.admin(
        &mut engine,
        &mut host,
        &Sqe::admin(AdminOpcode::FirmwareCommit, Cid(6), 2, PciAddr::NULL),
    );
    assert_eq!(st, Status::InvalidOpcode);
}
