//! Host package for the workspace-level examples (`examples/`) and
//! integration tests (`tests/`), which depend on the crates directly.
