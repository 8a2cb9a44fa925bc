//! Error types for the engine substrate.

use std::fmt;

/// Errors raised by engine-level structures.
///
/// The engine is used in an embedded, pre-validated context, so most hot
/// paths use debug assertions instead; `EngineError` covers the
/// capacity exhaustion a caller can meaningfully react to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An allocation was requested from a [`crate::ram::PortRam`] that does
    /// not have enough free flits.
    RamExhausted {
        /// Flits requested.
        requested: u32,
        /// Flits currently free.
        free: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RamExhausted { requested, free } => write!(
                f,
                "port RAM exhausted: requested {requested} flits but only {free} free"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A parameter value a builder cannot honour: which parameter, and why.
/// The experiment-matrix parser turns `key` into the line that set it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadParam {
    /// The parameter's name, spelt as in a matrix file.
    pub key: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl BadParam {
    /// `key` cannot take its value because of `reason`.
    pub fn new(key: &'static str, reason: impl Into<String>) -> Self {
        Self {
            key,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for BadParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` {}", self.key, self.reason)
    }
}

impl std::error::Error for BadParam {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EngineError::RamExhausted {
            requested: 32,
            free: 4,
        };
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("4"));
    }
}
