//! Process identifiers.

use std::fmt;

/// The transport-level address of a process in a [`World`](crate::world::World)
/// or on the threads runtime (`fastreg_rt`).
///
/// Identifiers are assigned densely from zero in the order actors are added.
/// Protocol-level role mappings (writer, reader *i*, server *j*) are layered
/// on top by the `fastreg` crate and are not the concern of the transport.
///
/// # Examples
///
/// ```
/// use fastreg_simnet::id::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "p3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// A reserved pseudo-address representing the external environment
    /// (operation invocations injected by the test driver arrive "from"
    /// this id).
    pub const EXTERNAL: ProcessId = ProcessId(u32::MAX);

    /// Creates a process id from a dense index.
    pub fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the dense index of this process.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns `true` if this is the reserved external environment id.
    pub fn is_external(self) -> bool {
        self == Self::EXTERNAL
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_external() {
            write!(f, "ext")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        assert_eq!(ProcessId::new(7).index(), 7);
    }

    #[test]
    fn external_is_flagged() {
        assert!(ProcessId::EXTERNAL.is_external());
        assert!(!ProcessId::new(0).is_external());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ProcessId::new(2)), "p2");
        assert_eq!(format!("{}", ProcessId::EXTERNAL), "ext");
        assert_eq!(format!("{:?}", ProcessId::new(2)), "p2");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
        assert!(ProcessId::new(5) < ProcessId::EXTERNAL);
    }

    #[test]
    fn from_u32() {
        let p: ProcessId = 4u32.into();
        assert_eq!(p.index(), 4);
    }
}
