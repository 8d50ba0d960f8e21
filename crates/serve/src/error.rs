//! Typed errors for the serving layer.

use rll_core::RllError;
use std::fmt;

/// Errors produced by checkpoint I/O, the inference engine, and the HTTP
/// front-end.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket failure.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint file is not parseable as the documented format.
    MalformedCheckpoint {
        /// Human-readable description.
        reason: String,
    },
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The payload bytes do not hash to the checksum the header promises —
    /// the file is corrupted or truncated.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// A dimension recorded in the header disagrees with the deserialized
    /// network, or a request's feature vector disagrees with the model.
    DimMismatch {
        /// Which dimension disagrees.
        what: &'static str,
        /// Expected value.
        expected: usize,
        /// Actual value.
        actual: usize,
    },
    /// The engine has shut down.
    EngineShutdown,
    /// An inference request was semantically invalid (empty batch, NaN
    /// features, …).
    InvalidRequest {
        /// Human-readable description.
        reason: String,
    },
    /// A configuration value was invalid.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// An upstream RLL component failed.
    Core(RllError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "io error ({context}): {source}"),
            ServeError::MalformedCheckpoint { reason } => {
                write!(f, "malformed checkpoint: {reason}")
            }
            ServeError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads v{supported})"
            ),
            ServeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x} (file corrupted or truncated)"
            ),
            ServeError::DimMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} mismatch: expected {expected}, got {actual}"),
            ServeError::EngineShutdown => write!(f, "inference engine has shut down"),
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServeError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            ServeError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RllError> for ServeError {
    fn from(e: RllError) -> Self {
        ServeError::Core(e)
    }
}

impl ServeError {
    /// Wraps an `io::Error` with a context string.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        ServeError::Io {
            context: context.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ServeError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = ServeError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("corrupted or truncated"));
    }
}
