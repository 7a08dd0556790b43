//! SPDK vhost-user-blk target: dedicated host polling cores mediate
//! between guest virtio rings and the backend SSDs. Ring plumbing is
//! the shared [`mediated`] core; this module supplies the [`SpdkVhost`]
//! cost model and its dedicated polling cores.

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

/// Builds the SPDK vhost scheme with `cores` dedicated polling cores.
pub(crate) fn build(ctx: &mut BuildCtx, cores: usize) -> Box<dyn Scheme> {
    let vhost_cfg = ctx.cfg.spdk_config.clone().unwrap_or_else(|| {
        if ctx.cfg.kernel.name.contains("3.10") {
            SpdkVhostConfig::centos310()
        } else {
            SpdkVhostConfig::modern_kernel()
        }
    });
    let vhost = SpdkVhost::new(vhost_cfg, cores);
    mediated::build(ctx, vhost, true)
}
