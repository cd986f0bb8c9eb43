//! Sparse capabilities (§5.1.1).
//!
//! "Segments are designated by sparse capabilities (similar to
//! Amoeba's), containing the mapper's port name and a key. The key is
//! opaque data of the mapper, allowing it to manage and protect segment
//! access."

use core::fmt;

/// A port name: the globally unique address of a message queue.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortName(pub u64);

impl fmt::Debug for PortName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A sparse capability designating a segment: the mapper's port plus an
/// opaque key only the mapper can interpret.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Capability {
    /// The mapper's request port.
    pub port: PortName,
    /// Opaque, unguessable key (the sparseness of the capability).
    pub key: u64,
}

impl Capability {
    /// Builds a capability from its parts.
    pub fn new(port: PortName, key: u64) -> Capability {
        Capability { port, key }
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cap({:?},{:#x})", self.port, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::FxHashSet;

    #[test]
    fn capabilities_are_value_types() {
        let a = Capability::new(PortName(1), 0xDEAD);
        let b = Capability::new(PortName(1), 0xDEAD);
        let c = Capability::new(PortName(1), 0xBEEF);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = FxHashSet::default();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn debug_formats() {
        let a = Capability::new(PortName(7), 0x10);
        assert_eq!(format!("{a:?}"), "cap(port7,0x10)");
    }
}
