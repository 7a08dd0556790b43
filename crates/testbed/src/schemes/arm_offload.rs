//! ARM-SoC offload card (LeapIO-like): the card's cores mediate
//! between host rings and the backend SSDs, so the host pays no
//! polling CPU but each I/O crosses the slower SoC. Ring plumbing is
//! the shared [`mediated`] core; this module supplies the
//! [`ArmOffload`] cost model.

use super::mediated::{self, Mediator};
use super::{BuildCtx, Scheme};
use bm_baselines::arm_offload::{ArmOffload, ArmOffloadConfig};
use bm_sim::{SimDuration, SimTime};

impl Mediator for ArmOffload {
    fn scheme_name(&self) -> &'static str {
        "arm-offload"
    }

    fn process_submission(&mut self, now: SimTime, bytes: u64, _is_write: bool) -> SimTime {
        self.process(now, bytes)
    }

    fn completion_delay(&self) -> SimDuration {
        SimDuration::from_us(2)
    }
}

/// Builds the ARM offload scheme (bare-metal host, no VM state).
pub(crate) fn build(ctx: &mut BuildCtx) -> Box<dyn Scheme> {
    mediated::build(ctx, ArmOffload::new(ArmOffloadConfig::leapio_like()), false)
}
