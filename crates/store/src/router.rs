//! Deterministic key → shard routing.

use crate::kv::Key;

/// The finalizing mix of splitmix64 — a measured, well-dispersing 64-bit
/// permutation. Shared by the router (key → shard) and the shard layer
/// (shard world and per-key register seeds), and **stable by contract**: changing these
/// constants would silently re-partition every existing keyspace, so they
/// are pinned by tests.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps keys to shards deterministically and stably.
///
/// The mapping is a pure function of `(key, shard count)`: it does not
/// depend on insertion order, thread count, process, or run — the same
/// key lands on the same shard forever (for a fixed shard count), which
/// is what makes per-key histories meaningful across batches.
///
/// Keys are mixed through a splitmix64 finalizer before
/// the modulo, so *any* keyspace shape — sequential ids, timestamps,
/// hashes — spreads near-uniformly: the balance property (no shard above
/// 2× the mean load for uniform keys) is pinned by the
/// `router_properties` proptest suite.
///
/// # Examples
///
/// ```
/// use fastreg_store::router::Router;
///
/// let router = Router::new(8);
/// let shard = router.shard_of(42);
/// assert!(shard < 8);
/// assert_eq!(shard, Router::new(8).shard_of(42), "stable across instances");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Router {
    shards: u32,
}

impl Router {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a store needs at least one shard");
        Router { shards }
    }

    /// Number of shards routed over.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `key` (always `< shards`).
    pub fn shard_of(&self, key: Key) -> u32 {
        (mix64(key) % self.shards as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        Router::new(0);
    }

    #[test]
    fn mapping_is_in_range_and_total() {
        for shards in [1u32, 2, 3, 8, 13] {
            let r = Router::new(shards);
            assert_eq!(r.shards(), shards);
            for key in 0..200u64 {
                assert!(r.shard_of(key) < shards);
            }
        }
    }

    #[test]
    fn mapping_is_pinned() {
        // The mixing constants are a compatibility surface: a change
        // re-partitions every keyspace. These concrete values pin them.
        let r = Router::new(8);
        let got: Vec<u32> = (0..8).map(|k| r.shard_of(k)).collect();
        assert_eq!(got, vec![7, 1, 6, 5, 2, 2, 0, 7]);
    }

    #[test]
    fn sequential_keys_spread_over_every_shard() {
        let r = Router::new(4);
        let mut hit = [false; 4];
        for key in 0..64u64 {
            hit[r.shard_of(key) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 sequential keys cover 4 shards");
    }
}
