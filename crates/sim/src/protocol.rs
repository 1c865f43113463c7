use std::fmt;

use lrc_core::Policy;

/// One of the four protocols of the ISCA '92 evaluation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtocolKind {
    /// Lazy release consistency, invalidate policy ("LI").
    LazyInvalidate,
    /// Lazy release consistency, update policy ("LU").
    LazyUpdate,
    /// Eager (Munin write-shared) release consistency, invalidate ("EI").
    EagerInvalidate,
    /// Eager release consistency, update ("EU").
    EagerUpdate,
}

impl ProtocolKind {
    /// All four protocols, in the paper's legend order (LI, LU, EI, EU).
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::LazyInvalidate,
        ProtocolKind::LazyUpdate,
        ProtocolKind::EagerInvalidate,
        ProtocolKind::EagerUpdate,
    ];

    /// The paper's two-letter label.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::LazyInvalidate => "LI",
            ProtocolKind::LazyUpdate => "LU",
            ProtocolKind::EagerInvalidate => "EI",
            ProtocolKind::EagerUpdate => "EU",
        }
    }

    /// True for the lazy pair.
    pub fn is_lazy(self) -> bool {
        matches!(
            self,
            ProtocolKind::LazyInvalidate | ProtocolKind::LazyUpdate
        )
    }

    /// The data-movement policy.
    pub(crate) fn policy(self) -> Policy {
        match self {
            ProtocolKind::LazyInvalidate | ProtocolKind::EagerInvalidate => Policy::Invalidate,
            ProtocolKind::LazyUpdate | ProtocolKind::EagerUpdate => Policy::Update,
        }
    }

    /// Parses a paper label (case-insensitive).
    pub fn from_label(label: &str) -> Option<ProtocolKind> {
        match label.to_ascii_uppercase().as_str() {
            "LI" => Some(ProtocolKind::LazyInvalidate),
            "LU" => Some(ProtocolKind::LazyUpdate),
            "EI" => Some(ProtocolKind::EagerInvalidate),
            "EU" => Some(ProtocolKind::EagerUpdate),
            _ => None,
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(
            ProtocolKind::from_label("li"),
            Some(ProtocolKind::LazyInvalidate)
        );
        assert_eq!(ProtocolKind::from_label("xx"), None);
    }

    #[test]
    fn classification() {
        assert!(ProtocolKind::LazyInvalidate.is_lazy());
        assert!(!ProtocolKind::EagerUpdate.is_lazy());
        assert_eq!(ProtocolKind::LazyUpdate.policy(), Policy::Update);
        assert_eq!(ProtocolKind::EagerInvalidate.policy(), Policy::Invalidate);
    }

    #[test]
    fn display_uses_label() {
        assert_eq!(ProtocolKind::EagerUpdate.to_string(), "EU");
    }
}
