//! Typed errors for the training loop.

use std::fmt;

/// Error from the training loop's checkpoint paths.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Saving or restoring a checkpoint failed.
    Ckpt(qt_ckpt::CkptError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Ckpt(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<qt_ckpt::CkptError> for TrainError {
    fn from(e: qt_ckpt::CkptError) -> Self {
        TrainError::Ckpt(e)
    }
}
