//! SPDK vhost-user-blk target: dedicated host polling cores mediate
//! between guest virtio rings and the backend SSDs. Ring plumbing is
//! the shared [`mediated`](super::mediated) core; this module supplies
//! the [`SpdkVhost`] cost model and reserves the polling cores.

use super::mediated::{self, Mediator};
use super::{BuildCtx, Scheme};
use bm_baselines::spdk::{SpdkVhost, SpdkVhostConfig};
use bm_sim::{SimDuration, SimTime};

impl Mediator for SpdkVhost {
    fn scheme_name(&self) -> &'static str {
        "spdk-vhost"
    }

    fn process_submission(&mut self, now: SimTime, bytes: u64, is_write: bool) -> SimTime {
        SpdkVhost::process_submission(self, now, bytes, is_write)
    }

    fn completion_delay(&self) -> SimDuration {
        SpdkVhost::completion_delay(self)
    }

    fn cpu_busy(&self) -> SimDuration {
        SpdkVhost::cpu_busy(self)
    }
}

/// Builds the SPDK vhost scheme with `cores` reserved polling cores.
pub(crate) fn build(ctx: &mut BuildCtx, cores: usize) -> Box<dyn Scheme> {
    #[expect(
        clippy::expect_used,
        reason = "panic-path debt (ROADMAP item 4): the harness reserves no more polling cores than the host has"
    )]
    let reserved = ctx
        .cpu
        .reserve(cores)
        .expect("enough cores for vhost polling");
    let vhost_cfg = ctx.cfg.spdk_config.clone().unwrap_or_else(|| {
        if ctx.cfg.kernel.name.contains("3.10") {
            SpdkVhostConfig::centos310()
        } else {
            SpdkVhostConfig::modern_kernel()
        }
    });
    let vhost = SpdkVhost::new(vhost_cfg, reserved);
    mediated::build(ctx, vhost, true)
}
