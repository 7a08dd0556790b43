//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is pure data: a list of [`FaultEvent`]s, each an
//! instant plus a [`FaultKind`], and a seed for the probabilistic kinds.
//! The plan itself performs no injection — the testbed's `World`
//! schedules each event on the simulation clock and interprets the kind
//! against the layer it targets (SSD model, MCTP link, PCIe link,
//! engine).  Because the plan is scheduled like any other event and the
//! probabilistic kinds draw from RNG streams forked from the plan's own
//! seed, two runs with identical configuration and identical plans
//! produce identical traces — and a run with an *empty* plan draws no
//! random numbers and schedules no events, so it is byte-identical to a
//! run of a build that has no fault machinery at all.
//!
//! # Event grammar
//!
//! | kind | layer | effect |
//! |------|-------|--------|
//! | [`FaultKind::SsdLatencySpike`] | SSD | adds `extra` to every completion until `until` |
//! | [`FaultKind::SsdStall`] | SSD | freezes the device pipeline until `until` |
//! | [`FaultKind::SsdDeath`] | SSD | device errors every subsequent I/O (surprise removal) |
//! | [`FaultKind::SsdErrorBurst`] | SSD | each I/O fails with `probability` until `until` |
//! | [`FaultKind::SsdDropCommands`] | SSD | silently swallows the next `count` I/O commands |
//! | [`FaultKind::MctpDrop`] | management link | drops the next `count` MCTP packets |
//! | [`FaultKind::LinkRetrain`] | PCIe link | defers bus crossings (doorbells, DMA, interrupts) until `until` |
//! | [`FaultKind::EngineCrash`] | engine | firmware dies, cold-restarts after `restart_after`, losing in-flight pipeline state |
//! | [`FaultKind::PowerLoss`] | host + card | full reset; up to `torn_writes` unflushed writes tear at a sector boundary |
//! | [`FaultKind::SsdReinsert`] | SSD | surprise re-attach of a dead SSD (rings reset, commands replayable) |
//!
//! # Writing a plan
//!
//! ```
//! use bm_sim::faults::{FaultKind, FaultPlan};
//! use bm_sim::{SimDuration, SimTime};
//!
//! let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
//! let plan = FaultPlan::new(0x5EED)
//!     .with(t(10), FaultKind::SsdLatencySpike {
//!         ssd: 0,
//!         extra: SimDuration::from_us(200),
//!         until: t(20),
//!     })
//!     .with(t(15), FaultKind::MctpDrop { count: 1 });
//! assert!(!plan.is_empty());
//! assert_eq!(plan.events().len(), 2);
//! ```
//!
//! # Repro artifacts
//!
//! Plans round-trip through a dependency-free line-oriented text format
//! ([`FaultPlan::to_text`] / [`FaultPlan::from_text`]) so a failing
//! chaos campaign can emit a repro file that replays bit-identically.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One kind of injectable fault. See the [module docs](self) for the
/// layer each kind targets.
///
/// SSDs are addressed by testbed index (position in the configured SSD
/// list); this keeps `bm-sim` free of device-layer dependencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every completion from SSD `ssd` takes `extra` longer, for
    /// commands arriving before `until`.
    SsdLatencySpike {
        /// Testbed index of the target SSD.
        ssd: usize,
        /// Additional latency added to each completion.
        extra: SimDuration,
        /// End of the spike window.
        until: SimTime,
    },
    /// SSD `ssd` stops making progress until `until`; commands issued
    /// meanwhile complete only after the stall lifts.
    SsdStall {
        /// Testbed index of the target SSD.
        ssd: usize,
        /// Instant the device thaws.
        until: SimTime,
    },
    /// SSD `ssd` dies permanently (surprise removal): every subsequent
    /// I/O completes quickly with an internal error status. Only a
    /// hardware swap ([hot-plug]) or a surprise re-attach
    /// ([`FaultKind::SsdReinsert`]) brings the bay back.
    ///
    /// [hot-plug]: ../../bmstore_core/controller/index.html
    SsdDeath {
        /// Testbed index of the target SSD.
        ssd: usize,
    },
    /// Until `until`, each I/O on SSD `ssd` independently fails with
    /// `probability`, sampled from a stream forked from the plan seed.
    SsdErrorBurst {
        /// Testbed index of the target SSD.
        ssd: usize,
        /// Per-command failure probability in `[0, 1]`.
        probability: f64,
        /// End of the burst window.
        until: SimTime,
    },
    /// SSD `ssd` consumes the next `count` I/O submissions without ever
    /// completing them — the stimulus for engine command timeouts.
    SsdDropCommands {
        /// Testbed index of the target SSD.
        ssd: usize,
        /// Number of commands to swallow.
        count: u32,
    },
    /// The management (MCTP-over-SMBus/PCIe-VDM) link drops the next
    /// `count` packets; the reassembler sees the gap and the sender
    /// must retransmit.
    MctpDrop {
        /// Number of packets to drop.
        count: u32,
    },
    /// PCIe link retrain: bus crossings (doorbell MMIO, DMA forwards,
    /// interrupts) that would occur before `until` are deferred to
    /// `until`.
    LinkRetrain {
        /// Instant the link is back at full width/speed.
        until: SimTime,
    },
    /// The BMS-Engine firmware crashes, losing all volatile in-flight
    /// pipeline state, and cold-restarts `restart_after` later. The
    /// journal in the persistent-model region drives replay-or-abort
    /// on restart per the engine's `FailPolicy`.
    EngineCrash {
        /// Delay between the crash and the firmware coming back up.
        restart_after: SimDuration,
    },
    /// Host + card power loss: the engine crashes as in
    /// [`FaultKind::EngineCrash`], every SSD's rings reset, and up to
    /// `torn_writes` of the most recent *unacknowledged* DMA writes may
    /// be torn at a 512-byte sector boundary.
    PowerLoss {
        /// Maximum number of in-flight writes torn by the outage.
        torn_writes: u32,
    },
    /// Surprise re-attach of a dead SSD `ssd` in the same bay: the
    /// device comes back alive with rings reset; the engine reclaims
    /// zombie slots and (under `QuiesceReplay`) replays buffered I/O.
    SsdReinsert {
        /// Testbed index of the target SSD.
        ssd: usize,
    },
}

/// A fault scheduled at an absolute instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault is injected.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, plus the seed feeding the
/// probabilistic kinds.
///
/// An empty (default) plan is inert: interpreters must schedule
/// nothing and draw nothing from any RNG, so the no-fault path is
/// byte-for-byte identical to a fault-free build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultPlan {
    /// Creates an empty plan whose probabilistic faults will draw from
    /// streams forked from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            events: Vec::new(),
            seed,
        }
    }

    /// Inserts an event, builder-style.
    #[must_use]
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Inserts an event in stable `(time, insertion order)` position:
    /// the list stays sorted by time, and equal-time events keep the
    /// order they were pushed in. Two plans holding the same events end
    /// up identical regardless of construction order (up to the
    /// relative order of exactly-equal-time events).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
    }

    /// The scheduled events, sorted by time; equal-time events appear
    /// in insertion order. Interpreters schedule each on the simulation
    /// clock; equal-time ties are then broken by scheduling order, like
    /// every other simulation event.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing — the zero-cost path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The plan's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A deterministic RNG for the probabilistic behaviour of the fault
    /// targeting SSD `ssd`, independent of every other stream in the
    /// simulation (forked from the plan seed, not the testbed seed).
    pub fn rng_for_ssd(&self, ssd: usize) -> SimRng {
        SimRng::seed_from(
            self.seed ^ 0xFA17_0000 ^ (ssd as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Serializes the plan to the line-oriented repro text format:
    ///
    /// ```text
    /// bmstore-fault-plan v1
    /// seed 94
    /// at 10000000 ssd-latency-spike ssd=0 extra=200000 until=20000000
    /// at 15000000 mctp-drop count=1
    /// ```
    ///
    /// Times and durations are nanoseconds; `probability` uses Rust's
    /// `{:?}` float rendering, which round-trips exactly. The format is
    /// dependency-free on purpose: chaos repro artifacts must stay
    /// readable and replayable with nothing but this crate.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Infallible writes to a String; ignore the Result without
        // unwrap so the panic-path lint stays clean.
        let _ = writeln!(out, "bmstore-fault-plan v1");
        let _ = writeln!(out, "seed {}", self.seed);
        for e in &self.events {
            let _ = write!(out, "at {} ", e.at.as_nanos());
            let _ = match e.kind {
                FaultKind::SsdLatencySpike { ssd, extra, until } => writeln!(
                    out,
                    "ssd-latency-spike ssd={} extra={} until={}",
                    ssd,
                    extra.as_nanos(),
                    until.as_nanos()
                ),
                FaultKind::SsdStall { ssd, until } => {
                    writeln!(out, "ssd-stall ssd={} until={}", ssd, until.as_nanos())
                }
                FaultKind::SsdDeath { ssd } => writeln!(out, "ssd-death ssd={ssd}"),
                FaultKind::SsdErrorBurst {
                    ssd,
                    probability,
                    until,
                } => writeln!(
                    out,
                    "ssd-error-burst ssd={} probability={:?} until={}",
                    ssd,
                    probability,
                    until.as_nanos()
                ),
                FaultKind::SsdDropCommands { ssd, count } => {
                    writeln!(out, "ssd-drop-commands ssd={ssd} count={count}")
                }
                FaultKind::MctpDrop { count } => writeln!(out, "mctp-drop count={count}"),
                FaultKind::LinkRetrain { until } => {
                    writeln!(out, "link-retrain until={}", until.as_nanos())
                }
                FaultKind::EngineCrash { restart_after } => writeln!(
                    out,
                    "engine-crash restart_after={}",
                    restart_after.as_nanos()
                ),
                FaultKind::PowerLoss { torn_writes } => {
                    writeln!(out, "power-loss torn_writes={torn_writes}")
                }
                FaultKind::SsdReinsert { ssd } => writeln!(out, "ssd-reinsert ssd={ssd}"),
            };
        }
        out
    }

    /// Parses the text format produced by [`Self::to_text`]. Blank
    /// lines and `#` comment lines are skipped. Returns a description
    /// of the first malformed line on error.
    ///
    /// A plan is outside input (a repro artifact on disk), so the parser
    /// also rejects values the simulator cannot run: an instant or
    /// duration above [`MAX_FAULT_NANOS`] and a probability outside
    /// [0, 1].
    pub fn from_text(text: &str) -> Result<FaultPlan, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some("bmstore-fault-plan v1") => {}
            other => {
                return Err(format!(
                    "bad header: expected `bmstore-fault-plan v1`, got {other:?}"
                ))
            }
        }
        let seed_line = lines.next().ok_or("missing `seed` line")?;
        let seed = seed_line
            .strip_prefix("seed ")
            .ok_or_else(|| format!("bad seed line: {seed_line:?}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad seed value in {seed_line:?}: {e}"))?;
        let mut plan = FaultPlan::new(seed);
        for line in lines {
            let rest = line
                .strip_prefix("at ")
                .ok_or_else(|| format!("bad event line (no `at`): {line:?}"))?;
            let mut words = rest.split_ascii_whitespace();
            let at_nanos = words
                .next()
                .ok_or_else(|| format!("bad event line (no instant): {line:?}"))?
                .parse::<u64>()
                .map_err(|e| format!("bad instant in {line:?}: {e}"))
                .and_then(|at| bounded_nanos("instant", at, line))?;
            let name = words
                .next()
                .ok_or_else(|| format!("bad event line (no kind): {line:?}"))?;
            let fields = Fields::parse(words, line)?;
            let kind = FaultKind::from_name_and_fields(name, &fields, line)?;
            plan.push(SimTime::from_nanos(at_nanos), kind);
        }
        Ok(plan)
    }
}

/// Largest instant or duration a parsed plan may hold: 2^40 − 1 ns,
/// about 18 simulated minutes. A replay adds plan values into the clock
/// and into busy totals once for every command a fault touches, so a
/// bound that only lets two values add up is not enough (two outages or
/// two spiked commands of 2^63 − 1 ns each overflow them); under 2^40
/// ns, 2^24 values add up within 64 bits.
pub const MAX_FAULT_NANOS: u64 = (1 << 40) - 1;

fn bounded_nanos(what: &str, nanos: u64, line: &str) -> Result<u64, String> {
    if nanos > MAX_FAULT_NANOS {
        return Err(format!("{what} {nanos} is 2^40 ns or more in {line:?}"));
    }
    Ok(nanos)
}

/// Parsed `key=value` pairs of one event line.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    line: &'a str,
}

impl<'a> Fields<'a> {
    fn parse(words: impl Iterator<Item = &'a str>, line: &'a str) -> Result<Fields<'a>, String> {
        let mut pairs = Vec::new();
        for w in words {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| format!("bad field {w:?} (expected key=value) in {line:?}"))?;
            pairs.push((k, v));
        }
        Ok(Fields { pairs, line })
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field `{key}` in {:?}", self.line))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.raw(key)?
            .parse::<u64>()
            .map_err(|e| format!("bad `{key}` in {:?}: {e}", self.line))
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.raw(key)?
            .parse::<usize>()
            .map_err(|e| format!("bad `{key}` in {:?}: {e}", self.line))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.raw(key)?
            .parse::<u32>()
            .map_err(|e| format!("bad `{key}` in {:?}: {e}", self.line))
    }

    fn probability(&self, key: &str) -> Result<f64, String> {
        let p = self
            .raw(key)?
            .parse::<f64>()
            .map_err(|e| format!("bad `{key}` in {:?}: {e}", self.line))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("`{key}` {p} is outside [0, 1] in {:?}", self.line));
        }
        Ok(p)
    }

    fn nanos(&self, key: &str) -> Result<u64, String> {
        bounded_nanos(&format!("`{key}`"), self.u64(key)?, self.line)
    }

    fn time(&self, key: &str) -> Result<SimTime, String> {
        Ok(SimTime::from_nanos(self.nanos(key)?))
    }

    fn duration(&self, key: &str) -> Result<SimDuration, String> {
        Ok(SimDuration::from_nanos(self.nanos(key)?))
    }
}

impl FaultKind {
    fn from_name_and_fields(name: &str, f: &Fields<'_>, line: &str) -> Result<FaultKind, String> {
        Ok(match name {
            "ssd-latency-spike" => FaultKind::SsdLatencySpike {
                ssd: f.usize("ssd")?,
                extra: f.duration("extra")?,
                until: f.time("until")?,
            },
            "ssd-stall" => FaultKind::SsdStall {
                ssd: f.usize("ssd")?,
                until: f.time("until")?,
            },
            "ssd-death" => FaultKind::SsdDeath {
                ssd: f.usize("ssd")?,
            },
            "ssd-error-burst" => FaultKind::SsdErrorBurst {
                ssd: f.usize("ssd")?,
                probability: f.probability("probability")?,
                until: f.time("until")?,
            },
            "ssd-drop-commands" => FaultKind::SsdDropCommands {
                ssd: f.usize("ssd")?,
                count: f.u32("count")?,
            },
            "mctp-drop" => FaultKind::MctpDrop {
                count: f.u32("count")?,
            },
            "link-retrain" => FaultKind::LinkRetrain {
                until: f.time("until")?,
            },
            "engine-crash" => FaultKind::EngineCrash {
                restart_after: f.duration("restart_after")?,
            },
            "power-loss" => FaultKind::PowerLoss {
                torn_writes: f.u32("torn_writes")?,
            },
            "ssd-reinsert" => FaultKind::SsdReinsert {
                ssd: f.usize("ssd")?,
            },
            other => return Err(format!("unknown fault kind {other:?} in {line:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.events().is_empty());
    }

    #[test]
    fn push_keeps_time_sorted_order() {
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        let plan = FaultPlan::new(1)
            .with(t(5), FaultKind::MctpDrop { count: 2 })
            .with(t(1), FaultKind::SsdDeath { ssd: 0 });
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].at, t(1));
        assert_eq!(plan.events()[0].kind, FaultKind::SsdDeath { ssd: 0 });
        assert_eq!(plan.events()[1].at, t(5));
    }

    #[test]
    fn construction_order_does_not_matter() {
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        let evs = [
            (t(9), FaultKind::MctpDrop { count: 1 }),
            (t(2), FaultKind::SsdDeath { ssd: 1 }),
            (
                t(2),
                FaultKind::SsdStall {
                    ssd: 0,
                    until: t(4),
                },
            ),
            (t(7), FaultKind::LinkRetrain { until: t(8) }),
        ];
        let forward = evs
            .iter()
            .fold(FaultPlan::new(7), |p, &(at, k)| p.with(at, k));
        // Reversed construction, except the equal-time pair keeps its
        // relative order (insertion order is part of the contract).
        let reorder = [evs[3], evs[1], evs[2], evs[0]];
        let backward = reorder
            .iter()
            .fold(FaultPlan::new(7), |p, &(at, k)| p.with(at, k));
        assert_eq!(forward, backward);
        assert!(forward.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn equal_time_events_keep_insertion_order() {
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        let plan = FaultPlan::new(3)
            .with(t(2), FaultKind::MctpDrop { count: 1 })
            .with(t(2), FaultKind::MctpDrop { count: 2 })
            .with(t(2), FaultKind::MctpDrop { count: 3 });
        let counts: Vec<u32> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::MctpDrop { count } => count,
                _ => 0,
            })
            .collect();
        assert_eq!(counts, [1, 2, 3]);
    }

    #[test]
    fn per_ssd_rng_is_deterministic_and_distinct() {
        let plan = FaultPlan::new(42);
        let mut a1 = plan.rng_for_ssd(0);
        let mut a2 = plan.rng_for_ssd(0);
        let mut b = plan.rng_for_ssd(1);
        let x = a1.next_u64();
        assert_eq!(x, a2.next_u64(), "same ssd, same stream");
        assert_ne!(x, b.next_u64(), "different ssd, different stream");
    }

    #[test]
    fn text_round_trips_every_kind() {
        let t = |us| SimTime::ZERO + SimDuration::from_us(us);
        let plan = FaultPlan::new(0xC4A0_5EED)
            .with(
                t(10),
                FaultKind::SsdLatencySpike {
                    ssd: 2,
                    extra: SimDuration::from_us(150),
                    until: t(90),
                },
            )
            .with(
                t(20),
                FaultKind::SsdStall {
                    ssd: 0,
                    until: t(44),
                },
            )
            .with(t(30), FaultKind::SsdDeath { ssd: 3 })
            .with(
                t(40),
                FaultKind::SsdErrorBurst {
                    ssd: 1,
                    probability: 0.137,
                    until: t(88),
                },
            )
            .with(t(50), FaultKind::SsdDropCommands { ssd: 0, count: 9 })
            .with(t(60), FaultKind::MctpDrop { count: 4 })
            .with(t(70), FaultKind::LinkRetrain { until: t(95) })
            .with(
                t(80),
                FaultKind::EngineCrash {
                    restart_after: SimDuration::from_us(500),
                },
            )
            .with(t(85), FaultKind::PowerLoss { torn_writes: 2 })
            .with(t(92), FaultKind::SsdReinsert { ssd: 3 });
        let text = plan.to_text();
        let parsed = FaultPlan::from_text(&text).expect("round trip parses");
        assert_eq!(parsed, plan);
        // And serializing again is a fixpoint.
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(FaultPlan::from_text("").is_err());
        assert!(FaultPlan::from_text("bmstore-fault-plan v1\n").is_err());
        assert!(FaultPlan::from_text("bmstore-fault-plan v1\nseed x\n").is_err());
        let bad_kind = "bmstore-fault-plan v1\nseed 1\nat 5 not-a-kind\n";
        assert!(FaultPlan::from_text(bad_kind).is_err());
        let missing_field = "bmstore-fault-plan v1\nseed 1\nat 5 mctp-drop\n";
        assert!(FaultPlan::from_text(missing_field).is_err());
    }

    #[test]
    fn from_text_rejects_values_the_clock_cannot_hold() {
        let plan = |event: &str| {
            FaultPlan::from_text(&format!("bmstore-fault-plan v1\nseed 1\n{event}\n"))
        };
        for event in [
            "at 1000000 engine-crash restart_after=18446744073709551615",
            "at 1000000 ssd-latency-spike ssd=0 extra=18446744073709551615 until=3000000",
            "at 9223372036854775807 engine-crash restart_after=1000",
            "at 1000 engine-crash restart_after=9223372036854775807",
            "at 1099511627776 mctp-drop count=1",
            "at 1000 link-retrain until=1099511627776",
            "at 1000 ssd-error-burst ssd=0 probability=7 until=2000",
            "at 1000 ssd-error-burst ssd=0 probability=NaN until=2000",
            "at 1000 ssd-error-burst ssd=0 probability=-0.5 until=2000",
        ] {
            let err = plan(event).expect_err(event);
            assert!(err.contains(event), "{err} does not name {event:?}");
        }
        let largest = "at 1099511627775 engine-crash restart_after=1099511627775";
        let kept = plan(largest).expect("2^40 - 1 fits");
        let ev = kept.events()[0];
        let FaultKind::EngineCrash { restart_after } = ev.kind else {
            panic!("{:?}", ev.kind)
        };
        assert_eq!(ev.at.as_nanos(), MAX_FAULT_NANOS);
        assert_eq!(restart_after.as_nanos(), MAX_FAULT_NANOS);
        assert!(plan("at 0 ssd-error-burst ssd=0 probability=1 until=5").is_ok());
    }

    #[test]
    fn from_text_skips_comments_and_blank_lines() {
        let text = "# repro artifact\nbmstore-fault-plan v1\n\nseed 5\n# one event\nat 100 mctp-drop count=1\n";
        let plan = FaultPlan::from_text(text).expect("parses with comments");
        assert_eq!(plan.seed(), 5);
        assert_eq!(plan.events().len(), 1);
    }
}
