//! NVMe Management Interface framing.
//!
//! NVMe-MI messages ride inside MCTP messages of type `0x04`. The
//! BMS-Controller's protocol analyzer (paper Fig. 3) parses these frames
//! and dispatches them to its management modules. Standard opcodes cover
//! health polling and configuration; the `0xC0`+ vendor range carries
//! BM-Store's own management verbs (namespace create/bind, QoS limits,
//! hot-upgrade, hot-plug), which are defined where they are interpreted,
//! in `bmstore-core`.

use std::fmt;

/// An NVMe-MI opcode: standard values plus the vendor-specific range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MiOpcode {
    /// Read NVMe-MI data structure.
    ReadDataStructure,
    /// NVM subsystem health status poll.
    SubsystemHealthPoll,
    /// Controller health status poll.
    ControllerHealthPoll,
    /// Configuration set.
    ConfigSet,
    /// Configuration get.
    ConfigGet,
    /// VPD read.
    VpdRead,
    /// Vendor-specific opcode (0xC0..=0xFF) — BM-Store's management verbs.
    Vendor(u8),
}

impl MiOpcode {
    /// The wire opcode byte.
    pub fn code(self) -> u8 {
        match self {
            MiOpcode::ReadDataStructure => 0x00,
            MiOpcode::SubsystemHealthPoll => 0x01,
            MiOpcode::ControllerHealthPoll => 0x02,
            MiOpcode::ConfigSet => 0x03,
            MiOpcode::ConfigGet => 0x04,
            MiOpcode::VpdRead => 0x05,
            MiOpcode::Vendor(v) => v,
        }
    }

    /// Decodes the wire byte; vendor range maps to [`MiOpcode::Vendor`].
    pub fn from_code(code: u8) -> Option<MiOpcode> {
        match code {
            0x00 => Some(MiOpcode::ReadDataStructure),
            0x01 => Some(MiOpcode::SubsystemHealthPoll),
            0x02 => Some(MiOpcode::ControllerHealthPoll),
            0x03 => Some(MiOpcode::ConfigSet),
            0x04 => Some(MiOpcode::ConfigGet),
            0x05 => Some(MiOpcode::VpdRead),
            0xC0..=0xFF => Some(MiOpcode::Vendor(code)),
            _ => None,
        }
    }
}

/// NVMe-MI response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MiStatus {
    /// Success.
    #[default]
    Success,
    /// More processing required (used while a hot-upgrade is running).
    InProgress,
    /// A parameter was invalid.
    InvalidParameter,
    /// The addressed object does not exist.
    NotFound,
    /// The controller is busy; retry later.
    Busy,
    /// Internal error.
    InternalError,
}

impl MiStatus {
    /// The wire status byte.
    pub fn code(self) -> u8 {
        match self {
            MiStatus::Success => 0x00,
            MiStatus::InProgress => 0x01,
            MiStatus::InvalidParameter => 0x04,
            MiStatus::NotFound => 0x05,
            MiStatus::Busy => 0x06,
            MiStatus::InternalError => 0x0F,
        }
    }

    /// Decodes the wire byte; unknown values map to `InternalError`.
    pub fn from_code(code: u8) -> MiStatus {
        match code {
            0x00 => MiStatus::Success,
            0x01 => MiStatus::InProgress,
            0x04 => MiStatus::InvalidParameter,
            0x05 => MiStatus::NotFound,
            0x06 => MiStatus::Busy,
            _ => MiStatus::InternalError,
        }
    }

    /// Whether the request succeeded.
    pub fn is_success(self) -> bool {
        self == MiStatus::Success
    }
}

impl fmt::Display for MiStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A request frame: opcode byte + payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiRequest {
    /// The command opcode.
    pub opcode: MiOpcode,
    /// Command payload.
    pub payload: Vec<u8>,
}

impl MiRequest {
    /// Creates a request.
    pub fn new(opcode: MiOpcode, payload: Vec<u8>) -> Self {
        MiRequest { opcode, payload }
    }

    /// Serializes for transport in an MCTP NVMe-MI message body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.payload.len());
        out.push(self.opcode.code());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a transported frame.
    ///
    /// # Errors
    ///
    /// Returns [`MiFrameError`] on empty input or an unknown opcode.
    pub fn from_bytes(bytes: &[u8]) -> Result<MiRequest, MiFrameError> {
        let (&op, rest) = bytes.split_first().ok_or(MiFrameError::Empty)?;
        let opcode = MiOpcode::from_code(op).ok_or(MiFrameError::UnknownOpcode(op))?;
        Ok(MiRequest {
            opcode,
            payload: rest.to_vec(),
        })
    }
}

/// A response frame: status byte + payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiResponse {
    /// Completion status.
    pub status: MiStatus,
    /// Response payload.
    pub payload: Vec<u8>,
}

impl MiResponse {
    /// A success response carrying `payload`.
    pub fn ok(payload: Vec<u8>) -> Self {
        MiResponse {
            status: MiStatus::Success,
            payload,
        }
    }

    /// An error response with no payload.
    pub fn err(status: MiStatus) -> Self {
        MiResponse {
            status,
            payload: Vec::new(),
        }
    }

    /// Serializes for transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.payload.len());
        out.push(self.status.code());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a transported frame.
    ///
    /// # Errors
    ///
    /// Returns [`MiFrameError::Empty`] on empty input.
    pub fn from_bytes(bytes: &[u8]) -> Result<MiResponse, MiFrameError> {
        let (&st, rest) = bytes.split_first().ok_or(MiFrameError::Empty)?;
        Ok(MiResponse {
            status: MiStatus::from_code(st),
            payload: rest.to_vec(),
        })
    }
}

/// Subsystem health snapshot returned by the health-poll commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthStatus {
    /// Composite temperature in Kelvin.
    pub temperature_k: u16,
    /// Percentage of rated endurance used.
    pub percent_used: u8,
    /// Available spare percentage.
    pub available_spare: u8,
    /// Critical warning flags.
    pub critical_warning: u8,
}

impl HealthStatus {
    /// Serializes to the fixed 8-byte wire layout.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0..2].copy_from_slice(&self.temperature_k.to_le_bytes());
        b[2] = self.percent_used;
        b[3] = self.available_spare;
        b[4] = self.critical_warning;
        b
    }

    /// Parses the wire layout.
    ///
    /// # Errors
    ///
    /// Returns [`MiFrameError::Empty`] if fewer than 8 bytes arrive.
    pub fn from_bytes(bytes: &[u8]) -> Result<HealthStatus, MiFrameError> {
        if bytes.len() < 8 {
            return Err(MiFrameError::Empty);
        }
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the length check keeps the 2-byte range in bounds"
        )]
        Ok(HealthStatus {
            temperature_k: u16::from_le_bytes(bytes[0..2].try_into().expect("2 bytes")),
            percent_used: bytes[2],
            available_spare: bytes[3],
            critical_warning: bytes[4],
        })
    }
}

/// Errors parsing MI frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiFrameError {
    /// The frame was empty or truncated.
    Empty,
    /// The opcode byte is not a known MI command.
    UnknownOpcode(u8),
}

impl fmt::Display for MiFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiFrameError::Empty => write!(f, "empty or truncated MI frame"),
            MiFrameError::UnknownOpcode(op) => write!(f, "unknown MI opcode {op:#x}"),
        }
    }
}

impl std::error::Error for MiFrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_round_trip() {
        for op in [
            MiOpcode::ReadDataStructure,
            MiOpcode::SubsystemHealthPoll,
            MiOpcode::ControllerHealthPoll,
            MiOpcode::ConfigSet,
            MiOpcode::ConfigGet,
            MiOpcode::VpdRead,
            MiOpcode::Vendor(0xC0),
            MiOpcode::Vendor(0xFF),
        ] {
            assert_eq!(MiOpcode::from_code(op.code()), Some(op));
        }
        assert_eq!(MiOpcode::from_code(0x60), None);
    }

    #[test]
    fn request_round_trip() {
        let req = MiRequest::new(MiOpcode::Vendor(0xC3), vec![1, 2, 3]);
        assert_eq!(MiRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        assert_eq!(MiRequest::from_bytes(&[]), Err(MiFrameError::Empty));
        assert_eq!(
            MiRequest::from_bytes(&[0x60]),
            Err(MiFrameError::UnknownOpcode(0x60))
        );
    }

    #[test]
    fn response_round_trip() {
        let resp = MiResponse::ok(vec![9, 9]);
        assert_eq!(MiResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
        let err = MiResponse::err(MiStatus::Busy);
        let parsed = MiResponse::from_bytes(&err.to_bytes()).unwrap();
        assert_eq!(parsed.status, MiStatus::Busy);
        assert!(!parsed.status.is_success());
    }

    #[test]
    fn status_codes_round_trip() {
        for s in [
            MiStatus::Success,
            MiStatus::InProgress,
            MiStatus::InvalidParameter,
            MiStatus::NotFound,
            MiStatus::Busy,
            MiStatus::InternalError,
        ] {
            assert_eq!(MiStatus::from_code(s.code()), s);
        }
    }

    #[test]
    fn health_round_trip() {
        let h = HealthStatus {
            temperature_k: 310,
            percent_used: 3,
            available_spare: 100,
            critical_warning: 0,
        };
        assert_eq!(HealthStatus::from_bytes(&h.to_bytes()).unwrap(), h);
        assert_eq!(HealthStatus::from_bytes(&[1, 2]), Err(MiFrameError::Empty));
    }
}
