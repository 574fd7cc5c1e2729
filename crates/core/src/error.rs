//! Session-layer error type.
//!
//! The public entry points of the streaming system used to panic on
//! degenerate inputs — an empty trace handed to `Trace::pose`, a zero
//! frame interval handed to the event simulator, a malformed fault spec.
//! They now surface a [`VolcastError`] instead, so embedding code (the
//! CLI, the bench harness, future servers) can report and recover.

use std::fmt;
use volcast_net::{NetError, WireError};

/// An invalid input to the streaming session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolcastError {
    /// `SessionParams` are out of range (zero frames, zero analysis
    /// points, a non-positive frame interval).
    InvalidParams(String),
    /// The user traces cannot drive a session (no users, an empty trace, a
    /// non-finite pose).
    InvalidTraces(String),
    /// The network substrate rejected its configuration (fault specs,
    /// fault configs, simulator setup).
    Net(NetError),
    /// The wire-format stream handed to the server is malformed.
    Wire(WireError),
}

impl fmt::Display for VolcastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolcastError::InvalidParams(msg) => write!(f, "invalid session params: {msg}"),
            VolcastError::InvalidTraces(msg) => write!(f, "invalid traces: {msg}"),
            VolcastError::Net(e) => write!(f, "{e}"),
            VolcastError::Wire(e) => write!(f, "invalid wire stream: {e}"),
        }
    }
}

impl std::error::Error for VolcastError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VolcastError::Net(e) => Some(e),
            VolcastError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for VolcastError {
    fn from(e: NetError) -> Self {
        VolcastError::Net(e)
    }
}

impl From<WireError> for VolcastError {
    fn from(e: WireError) -> Self {
        VolcastError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = VolcastError::InvalidParams("frames = 0".into());
        assert!(e.to_string().contains("frames = 0"));
        let e: VolcastError = NetError::InvalidSim("zero interval".into()).into();
        assert!(e.to_string().contains("zero interval"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
