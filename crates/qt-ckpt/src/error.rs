//! Typed checkpoint errors. Every way a checkpoint can fail to load is a
//! distinct, inspectable variant — recovery code branches on them.

use std::fmt;

/// Error from writing, reading or validating a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// An I/O operation failed (message carries the OS error).
    Io(String),
    /// The file does not start with the `QTCK` magic.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The file ended before a declared length was satisfied.
    Truncated {
        /// Bytes the reader needed.
        expected: u64,
        /// Bytes actually available.
        actual: u64,
    },
    /// A section's payload failed its CRC32 check.
    SectionCrc {
        /// Name of the failing section.
        section: String,
        /// Byte offset of the section's payload within the file — where
        /// a repair tool (or a human with a hex dump) should look.
        offset: u64,
    },
    /// The whole-file CRC32 trailer does not match the contents.
    FileCrc,
    /// A required section is absent.
    MissingSection(String),
    /// A payload decoded but its contents are structurally invalid.
    Malformed(String),
    /// The store has no loadable checkpoint (empty, or every generation
    /// was rejected as corrupt).
    NoCheckpoint,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CkptError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated checkpoint: needed {expected} bytes, have {actual}"
                )
            }
            CkptError::SectionCrc { section, offset } => {
                write!(
                    f,
                    "CRC mismatch in checkpoint section {section:?} (payload at byte offset {offset})"
                )
            }
            CkptError::FileCrc => write!(f, "whole-file CRC mismatch"),
            CkptError::MissingSection(s) => write!(f, "missing checkpoint section {s:?}"),
            CkptError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CkptError::NoCheckpoint => write!(f, "no intact checkpoint available"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}
