//! Integration test host crate; see `tests/` directory.

use std::path::{Path, PathBuf};

/// The artifact a `QT_VALIDATE_*` variable names, or `None` when it is
/// unset. `cargo test` runs each test binary from this package's
/// directory, while CI names the files relative to the workspace root
/// where the bench binaries wrote them, so a relative path is resolved
/// from the workspace root; an absolute one is used as given.
pub fn validate_path(var: &str) -> Option<PathBuf> {
    let path = std::env::var_os(var)?;
    Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(path))
}
