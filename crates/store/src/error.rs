//! The workspace-wide durable-run error type.
//!
//! Everything that used to `panic!`/`unwrap` on an I/O hiccup in the
//! harness and store paths now surfaces one of these variants instead.
//! The enum is `#[non_exhaustive]`: new failure classes may be added
//! without a breaking release, so downstream matches need a `_` arm.

use std::fmt;

/// Error type shared by the artifact store, the study context and the
/// fault-tolerant experiment runner (re-exported as `mps::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An underlying I/O operation failed (message includes the path).
    Io(String),
    /// A stored artifact failed validation: truncated payload, checksum
    /// mismatch, malformed header or undecodable body. The offending file
    /// is quarantined and the artifact recomputed.
    Corrupt {
        /// Path (or logical name) of the poisoned artifact.
        path: String,
        /// What exactly failed to validate.
        detail: String,
    },
    /// An artifact was written by an incompatible (newer) schema revision.
    SchemaVersion {
        /// Path of the artifact.
        path: String,
        /// Schema number found in the header.
        found: u32,
        /// Highest schema this reader supports.
        supported: u32,
    },
    /// A worker terminated without producing a result (killed run,
    /// disconnected channel, interrupted syscall).
    Interrupted {
        /// What was interrupted.
        what: String,
    },
    /// A caller passed an argument outside the domain the study supports
    /// (e.g. a core count with no defined population).
    InvalidInput(String),
    /// An isolated worker panicked; the payload is the panic message.
    /// Bounded retry may still recover the experiment.
    WorkerPanic {
        /// What panicked.
        what: String,
        /// The panic payload, stringified.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::Corrupt { path, detail } => {
                write!(f, "corrupt artifact {path}: {detail}")
            }
            Error::SchemaVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "artifact {path} has schema {found}, this reader supports <= {supported}"
            ),
            Error::Interrupted { what } => write!(f, "{what} was interrupted"),
            Error::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            Error::WorkerPanic { what, detail } => {
                write!(f, "worker running {what} panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::Interrupted {
            Error::Interrupted {
                what: "i/o operation".to_owned(),
            }
        } else {
            Error::Io(e.to_string())
        }
    }
}

/// Convenience alias used throughout the store and harness.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::SchemaVersion {
            path: "a.mps".into(),
            found: 3,
            supported: 2,
        };
        assert!(e.to_string().contains("schema 3"));
        assert!(e.to_string().contains("<= 2"));
    }

    #[test]
    fn io_errors_convert() {
        let e: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, Error::Io(_)));
        let e: Error = std::io::Error::new(std::io::ErrorKind::Interrupted, "sig").into();
        assert!(matches!(e, Error::Interrupted { .. }));
    }
}
