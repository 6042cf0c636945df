//! Error type for SSJoin operations.

use std::fmt;

/// Errors raised by SSJoin construction or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsJoinError {
    /// The two collections were built by different builders and do not share
    /// an element universe.
    UniverseMismatch,
    /// Invalid configuration (e.g. zero threads).
    Config(String),
    /// A predicate was structurally invalid.
    Predicate(String),
    /// Failure in the relational-plan formulation.
    Plan(String),
    /// Malformed input data (e.g. custom norms whose arity does not match
    /// the group count, or duplicate element ranks within one set).
    InvalidInput(String),
    /// A relation holds more groups than `u32` ids can address.
    TooManyGroups {
        /// Index of the offending relation in builder insertion order.
        relation: usize,
        /// Number of groups in that relation.
        groups: usize,
    },
    /// The element universe or a collection's tuple arena exceeds the `u32`
    /// id/offset space.
    TooManyElements {
        /// Number of elements that overflowed the id space.
        elements: usize,
    },
}

impl fmt::Display for SsJoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsJoinError::UniverseMismatch => {
                f.write_str("set collections do not share an element universe; build both sides with one SsJoinInputBuilder")
            }
            SsJoinError::Config(m) => write!(f, "invalid configuration: {m}"),
            SsJoinError::Predicate(m) => write!(f, "invalid predicate: {m}"),
            SsJoinError::Plan(m) => write!(f, "relational plan error: {m}"),
            SsJoinError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            SsJoinError::TooManyGroups { relation, groups } => write!(
                f,
                "relation {relation} has {groups} groups, which exceeds the u32 group-id space"
            ),
            SsJoinError::TooManyElements { elements } => write!(
                f,
                "{elements} elements exceed the u32 id/offset space"
            ),
        }
    }
}

impl std::error::Error for SsJoinError {}

/// Result alias.
pub type SsJoinResult<T> = std::result::Result<T, SsJoinError>;
