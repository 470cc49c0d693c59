//! Mini journal event definitions for the schema-docs golden tests.

/// What a journal record reports.
#[derive(Debug, Clone)]
pub enum Kind {
    /// A 100 ms counter sample.
    Counter,
    /// A RAPL cap transition.
    CapChange,
}

/// What layer a span describes.
pub enum Scope {
    Study,
    Kernel,
}
