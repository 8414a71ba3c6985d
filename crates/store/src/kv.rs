//! The key–value operation alphabet of the store.

use std::fmt;

/// A key in the store's keyspace.
///
/// Keys are plain 64-bit identifiers; the [`Router`](crate::router::Router)
/// mixes them before partitioning, so sequential keys (`0, 1, 2, …`) spread
/// across shards as evenly as random ones.
pub type Key = u64;

/// What an operation does to its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOpKind {
    /// Read the key's current value.
    Get,
    /// Write a new value to the key.
    Put {
        /// The value being written.
        value: u64,
    },
}

/// One key–value operation, as submitted by a store client.
///
/// `client` identifies the *store-level* client issuing the operation; the
/// shard maps it onto the key's register deployment (puts go to writer
/// `client % W`, gets to reader `client % R`). Two operations by the same
/// client against the same key are never in flight simultaneously — the
/// shard splits such batches into waves, preserving the paper's
/// well-formedness assumption (§2.1: one outstanding operation per
/// client).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// The key the operation addresses.
    pub key: Key,
    /// The issuing store client.
    pub client: u32,
    /// Read or write.
    pub kind: KvOpKind,
}

impl KvOp {
    /// A `get(key)` by `client`.
    pub fn get(client: u32, key: Key) -> Self {
        KvOp {
            key,
            client,
            kind: KvOpKind::Get,
        }
    }

    /// A `put(key, value)` by `client`.
    pub fn put(client: u32, key: Key, value: u64) -> Self {
        KvOp {
            key,
            client,
            kind: KvOpKind::Put { value },
        }
    }
}

impl fmt::Display for KvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            KvOpKind::Get => write!(f, "c{}:get({})", self.client, self.key),
            KvOpKind::Put { value } => write!(f, "c{}:put({}, {})", self.client, self.key, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let g = KvOp::get(3, 17);
        let p = KvOp::put(0, 17, 9);
        assert_eq!(g.to_string(), "c3:get(17)");
        assert_eq!(p.to_string(), "c0:put(17, 9)");
    }
}
