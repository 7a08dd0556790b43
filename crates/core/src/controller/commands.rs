//! BM-Store's out-of-band management verbs.
//!
//! These ride the NVMe-MI vendor opcode space (`0xC0..`) inside MCTP
//! messages from the remote management console (paper Fig. 3: "MCTP
//! console → MCTP endpoint → NVMe MI protocol analyzer"). Each verb has
//! a fixed little-endian payload encoding so the analyzer can be tested
//! byte-for-byte.

use bm_nvme::mi::{MiOpcode, MiRequest};
use bm_pcie::FunctionId;
use bm_ssd::SsdId;
use std::fmt;

/// Placement byte encoding for `CreateAndBind`.
const PLACEMENT_RR: u8 = 0;

/// A decoded management command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmsCommand {
    /// Create a namespace of `size_bytes` and bind it to `func`.
    CreateAndBind {
        /// Target front-end function.
        func: FunctionId,
        /// Namespace size in bytes.
        size_bytes: u64,
        /// `None` = round-robin across SSDs, `Some(ssd)` = single SSD.
        single_ssd: Option<SsdId>,
    },
    /// Unbind (and delete) `func`'s namespace.
    Unbind {
        /// Target front-end function.
        func: FunctionId,
    },
    /// Set QoS limits on `func`'s namespace (0 = unlimited).
    SetQos {
        /// Target front-end function.
        func: FunctionId,
        /// IOPS cap, 0 for none.
        iops: u32,
        /// Bandwidth cap in MB/s, 0 for none.
        mbps: u32,
    },
    /// Read `func`'s I/O counters.
    QueryStats {
        /// Target front-end function.
        func: FunctionId,
    },
    /// Poll one back-end SSD's health.
    HealthPoll {
        /// Target SSD.
        ssd: SsdId,
    },
    /// Hot-upgrade one SSD's firmware with the attached image.
    FirmwareUpgrade {
        /// Target SSD.
        ssd: SsdId,
        /// Firmware slot to commit into.
        slot: u8,
        /// The image bytes.
        image: Vec<u8>,
    },
    /// Quiesce an SSD before physical replacement.
    HotPlugPrepare {
        /// SSD about to be pulled.
        ssd: SsdId,
    },
    /// Replacement inserted: rebind the front-end and resume.
    HotPlugComplete {
        /// The slot that was replaced.
        old: SsdId,
        /// The device now serving it (may differ when migrating to a
        /// spare bay).
        new: SsdId,
    },
    /// Read the running firmware version of an SSD.
    QueryVersion {
        /// Target SSD.
        ssd: SsdId,
    },
    /// Read `func`'s telemetry log page (counters, outstanding gauge,
    /// latency buckets) for out-of-band monitoring.
    QueryTelemetry {
        /// Target front-end function.
        func: FunctionId,
    },
}

/// Decoding failures for vendor payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandError {
    /// Opcode is not a BM-Store vendor verb.
    UnknownVerb(u8),
    /// Payload too short or a field out of range.
    BadPayload,
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::UnknownVerb(v) => write!(f, "unknown management verb {v:#x}"),
            CommandError::BadPayload => write!(f, "malformed management payload"),
        }
    }
}

impl std::error::Error for CommandError {}

impl BmsCommand {
    /// The vendor opcode for this verb.
    pub fn opcode(&self) -> u8 {
        match self {
            BmsCommand::CreateAndBind { .. } => 0xC0,
            BmsCommand::Unbind { .. } => 0xC1,
            BmsCommand::SetQos { .. } => 0xC2,
            BmsCommand::QueryStats { .. } => 0xC3,
            BmsCommand::HealthPoll { .. } => 0xC4,
            BmsCommand::FirmwareUpgrade { .. } => 0xC5,
            BmsCommand::HotPlugPrepare { .. } => 0xC6,
            BmsCommand::HotPlugComplete { .. } => 0xC7,
            BmsCommand::QueryVersion { .. } => 0xC8,
            BmsCommand::QueryTelemetry { .. } => 0xC9,
        }
    }

    /// The back-end SSDs this verb names.
    pub fn ssds(&self) -> [Option<SsdId>; 2] {
        match self {
            BmsCommand::CreateAndBind { single_ssd, .. } => [*single_ssd, None],
            BmsCommand::HealthPoll { ssd }
            | BmsCommand::FirmwareUpgrade { ssd, .. }
            | BmsCommand::HotPlugPrepare { ssd }
            | BmsCommand::QueryVersion { ssd } => [Some(*ssd), None],
            BmsCommand::HotPlugComplete { old, new } => [Some(*old), Some(*new)],
            BmsCommand::Unbind { .. }
            | BmsCommand::SetQos { .. }
            | BmsCommand::QueryStats { .. }
            | BmsCommand::QueryTelemetry { .. } => [None, None],
        }
    }

    /// Encodes into an NVMe-MI request frame.
    pub fn to_request(&self) -> MiRequest {
        let mut p = Vec::new();
        match self {
            BmsCommand::CreateAndBind {
                func,
                size_bytes,
                single_ssd,
            } => {
                p.push(func.index());
                p.extend_from_slice(&size_bytes.to_le_bytes());
                // SSD `s` travels as `s + 1`, saturating: id 255
                // arrives as 254, a bay no card has, never as
                // round-robin.
                p.push(single_ssd.map_or(PLACEMENT_RR, |s| s.0.saturating_add(1)));
            }
            BmsCommand::Unbind { func }
            | BmsCommand::QueryStats { func }
            | BmsCommand::QueryTelemetry { func } => {
                p.push(func.index());
            }
            BmsCommand::SetQos { func, iops, mbps } => {
                p.push(func.index());
                p.extend_from_slice(&iops.to_le_bytes());
                p.extend_from_slice(&mbps.to_le_bytes());
            }
            BmsCommand::HealthPoll { ssd } | BmsCommand::QueryVersion { ssd } => {
                p.push(ssd.0);
            }
            BmsCommand::FirmwareUpgrade { ssd, slot, image } => {
                p.push(ssd.0);
                p.push(*slot);
                p.extend_from_slice(&(image.len() as u32).to_le_bytes());
                p.extend_from_slice(image);
            }
            BmsCommand::HotPlugPrepare { ssd } => p.push(ssd.0),
            BmsCommand::HotPlugComplete { old, new } => {
                p.push(old.0);
                p.push(new.0);
            }
        }
        MiRequest::new(MiOpcode::Vendor(self.opcode()), p)
    }

    /// Decodes a vendor request frame.
    ///
    /// # Errors
    ///
    /// Returns a [`CommandError`] for unknown verbs or short payloads.
    pub fn from_request(req: &MiRequest) -> Result<BmsCommand, CommandError> {
        let MiOpcode::Vendor(verb) = req.opcode else {
            return Err(CommandError::UnknownVerb(req.opcode.code()));
        };
        let p = &req.payload;
        let func_at = |i: usize| -> Result<FunctionId, CommandError> {
            FunctionId::new(*p.get(i).ok_or(CommandError::BadPayload)?)
                .ok_or(CommandError::BadPayload)
        };
        let byte_at = |i: usize| p.get(i).copied().ok_or(CommandError::BadPayload);
        let le_u32 = |at: usize| {
            p.get(at..at + 4)
                .and_then(|s| s.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or(CommandError::BadPayload)
        };
        let le_u64 = |at: usize| {
            p.get(at..at + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or(CommandError::BadPayload)
        };
        match verb {
            0xC0 => {
                if p.len() < 10 {
                    return Err(CommandError::BadPayload);
                }
                let size_bytes = le_u64(1)?;
                let single_ssd = match p[9] {
                    PLACEMENT_RR => None,
                    s => Some(SsdId(s - 1)),
                };
                Ok(BmsCommand::CreateAndBind {
                    func: func_at(0)?,
                    size_bytes,
                    single_ssd,
                })
            }
            0xC1 => Ok(BmsCommand::Unbind { func: func_at(0)? }),
            0xC2 => {
                if p.len() < 9 {
                    return Err(CommandError::BadPayload);
                }
                Ok(BmsCommand::SetQos {
                    func: func_at(0)?,
                    iops: le_u32(1)?,
                    mbps: le_u32(5)?,
                })
            }
            0xC3 => Ok(BmsCommand::QueryStats { func: func_at(0)? }),
            0xC4 => Ok(BmsCommand::HealthPoll {
                ssd: SsdId(byte_at(0)?),
            }),
            0xC5 => {
                if p.len() < 6 {
                    return Err(CommandError::BadPayload);
                }
                let len = le_u32(2)? as usize;
                if p.len() < 6 + len {
                    return Err(CommandError::BadPayload);
                }
                Ok(BmsCommand::FirmwareUpgrade {
                    ssd: SsdId(p[0]),
                    slot: p[1],
                    image: p[6..6 + len].to_vec(),
                })
            }
            0xC6 => Ok(BmsCommand::HotPlugPrepare {
                ssd: SsdId(byte_at(0)?),
            }),
            0xC7 => Ok(BmsCommand::HotPlugComplete {
                old: SsdId(byte_at(0)?),
                new: SsdId(byte_at(1)?),
            }),
            0xC8 => Ok(BmsCommand::QueryVersion {
                ssd: SsdId(byte_at(0)?),
            }),
            0xC9 => Ok(BmsCommand::QueryTelemetry { func: func_at(0)? }),
            other => Err(CommandError::UnknownVerb(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cmd: BmsCommand) {
        let req = cmd.to_request();
        let back = BmsCommand::from_request(&req).unwrap();
        assert_eq!(back, cmd);
    }

    #[test]
    fn all_verbs_round_trip() {
        let f = FunctionId::new(77).unwrap();
        round_trip(BmsCommand::CreateAndBind {
            func: f,
            size_bytes: 256 << 30,
            single_ssd: None,
        });
        round_trip(BmsCommand::CreateAndBind {
            func: f,
            size_bytes: 1536 << 30,
            single_ssd: Some(SsdId(3)),
        });
        round_trip(BmsCommand::Unbind { func: f });
        round_trip(BmsCommand::SetQos {
            func: f,
            iops: 50_000,
            mbps: 800,
        });
        round_trip(BmsCommand::QueryStats { func: f });
        round_trip(BmsCommand::HealthPoll { ssd: SsdId(2) });
        round_trip(BmsCommand::FirmwareUpgrade {
            ssd: SsdId(1),
            slot: 2,
            image: vec![7u8; 1000],
        });
        round_trip(BmsCommand::HotPlugPrepare { ssd: SsdId(0) });
        round_trip(BmsCommand::HotPlugComplete {
            old: SsdId(0),
            new: SsdId(3),
        });
        round_trip(BmsCommand::QueryVersion { ssd: SsdId(1) });
        round_trip(BmsCommand::QueryTelemetry { func: f });
    }

    #[test]
    fn bad_payloads_rejected() {
        let short = MiRequest::new(MiOpcode::Vendor(0xC0), vec![1, 2]);
        assert_eq!(
            BmsCommand::from_request(&short),
            Err(CommandError::BadPayload)
        );
        let unknown = MiRequest::new(MiOpcode::Vendor(0xEE), vec![]);
        assert_eq!(
            BmsCommand::from_request(&unknown),
            Err(CommandError::UnknownVerb(0xEE))
        );
        let std_op = MiRequest::new(MiOpcode::ConfigGet, vec![]);
        assert!(BmsCommand::from_request(&std_op).is_err());
        // Firmware image length lies about its size.
        let mut p = vec![0u8, 1];
        p.extend_from_slice(&100u32.to_le_bytes());
        p.extend_from_slice(&[0u8; 10]);
        let fw = MiRequest::new(MiOpcode::Vendor(0xC5), p);
        assert_eq!(BmsCommand::from_request(&fw), Err(CommandError::BadPayload));
    }

    #[test]
    fn bad_function_id_rejected() {
        let req = MiRequest::new(MiOpcode::Vendor(0xC1), vec![200]);
        assert_eq!(
            BmsCommand::from_request(&req),
            Err(CommandError::BadPayload)
        );
    }
}
