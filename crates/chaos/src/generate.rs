//! Seeded fault-plan generation: one `u64` seed → one mixed schedule.

use crate::ChaosConfig;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::{SimDuration, SimRng, SimTime};
use bmstore_core::FailPolicy;

/// Salt separating the plan-shape RNG stream from the in-sim fault RNG
/// (which `FaultPlan` forks from the bare seed).
const PLAN_SALT: u64 = 0xC4A0_55ED_0DD5_EED5;

/// Derives a fault plan from `seed`, shaped by `cfg`:
///
/// * 1 ..= `cfg.max_events` events, injected inside the churn window
///   (after a 1 ms warm-up, before a 2 ms cool-down) so every fault
///   lands while tenant I/O is in flight.
/// * An [`FaultKind::SsdDeath`] is always paired with a later
///   [`FaultKind::SsdReinsert`] of the same SSD, so dead bays come back
///   before the verify phase.
/// * Under [`FailPolicy::QuiesceReplay`], stalls and swallowed commands
///   are excluded: their timeout escalation quiesces the SSD awaiting a
///   management resume, and chaos runs drive no management plane — the
///   quiesced commands would (correctly, but uninterestingly) strand.
///
/// Same `(cfg, seed)` → same plan, byte for byte.
pub fn generate_plan(cfg: &ChaosConfig, seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from(seed ^ PLAN_SALT);
    let mut plan = FaultPlan::new(seed);
    let lo = SimDuration::from_ms(1).min(cfg.churn / 4);
    let hi = cfg.churn.saturating_sub(SimDuration::from_ms(2));
    let window = hi.saturating_sub(lo).as_nanos().max(1);
    let n = 1 + rng.below(cfg.max_events.max(1) as u64) as usize;
    let quiesce = matches!(cfg.fail_policy, FailPolicy::QuiesceReplay);
    // Kinds 0..=6 are safe under both policies; 7..=8 only when an
    // exhausted timeout aborts to the host.
    let kinds: u64 = if quiesce { 7 } else { 9 };
    for _ in 0..n {
        let at = SimTime::ZERO + lo + SimDuration::from_nanos(rng.below(window));
        let ssd = rng.below(cfg.tenants.max(1) as u64) as usize;
        match rng.below(kinds) {
            0 => plan.push(
                at,
                FaultKind::EngineCrash {
                    restart_after: SimDuration::from_us(200 + rng.below(4_800)),
                },
            ),
            1 => plan.push(
                at,
                FaultKind::PowerLoss {
                    torn_writes: 1 + rng.below(4) as u32,
                },
            ),
            2 => plan.push(
                at,
                FaultKind::SsdLatencySpike {
                    ssd,
                    extra: SimDuration::from_us(50 + rng.below(400)),
                    until: at + SimDuration::from_us(200 + rng.below(2_000)),
                },
            ),
            3 => plan.push(
                at,
                FaultKind::SsdErrorBurst {
                    ssd,
                    probability: 0.02 + rng.unit() * 0.10,
                    until: at + SimDuration::from_us(200 + rng.below(2_000)),
                },
            ),
            4 => plan.push(
                at,
                FaultKind::LinkRetrain {
                    until: at + SimDuration::from_us(20 + rng.below(200)),
                },
            ),
            5 => {
                plan.push(at, FaultKind::SsdDeath { ssd });
                let back = at + SimDuration::from_us(500 + rng.below(3_000));
                plan.push(back, FaultKind::SsdReinsert { ssd });
            }
            6 => plan.push(at, FaultKind::SsdReinsert { ssd }),
            7 => plan.push(
                at,
                FaultKind::SsdDropCommands {
                    ssd,
                    count: 1 + rng.below(2) as u32,
                },
            ),
            _ => plan.push(
                at,
                FaultKind::SsdStall {
                    ssd,
                    until: at + SimDuration::from_us(100 + rng.below(1_500)),
                },
            ),
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = ChaosConfig::default();
        for seed in 0..64u64 {
            let a = generate_plan(&cfg, seed);
            let b = generate_plan(&cfg, seed);
            assert_eq!(a.to_text(), b.to_text(), "seed {seed} not reproducible");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn events_stay_inside_the_churn_window() {
        let cfg = ChaosConfig::default();
        let churn_end = SimTime::ZERO + cfg.churn;
        for seed in 0..128u64 {
            for e in generate_plan(&cfg, seed).events() {
                assert!(e.at < churn_end, "seed {seed}: event at {:?}", e.at);
            }
        }
    }

    #[test]
    fn deaths_are_always_paired_with_a_reinsert() {
        let cfg = ChaosConfig::default();
        for seed in 0..256u64 {
            let plan = generate_plan(&cfg, seed);
            for (i, e) in plan.events().iter().enumerate() {
                if let FaultKind::SsdDeath { ssd } = e.kind {
                    let rescued = plan.events()[i..].iter().any(|later| {
                        later.at >= e.at
                            && matches!(later.kind,
                                FaultKind::SsdReinsert { ssd: s } if s == ssd)
                    });
                    assert!(rescued, "seed {seed}: death of ssd {ssd} never re-inserted");
                }
            }
        }
    }

    #[test]
    fn quiesce_policy_excludes_strandable_kinds() {
        let cfg = ChaosConfig::quiesce_replay();
        for seed in 0..256u64 {
            for e in generate_plan(&cfg, seed).events() {
                assert!(
                    !matches!(
                        e.kind,
                        FaultKind::SsdStall { .. } | FaultKind::SsdDropCommands { .. }
                    ),
                    "seed {seed}: strandable kind {:?} under QuiesceReplay",
                    e.kind
                );
            }
        }
    }
}
