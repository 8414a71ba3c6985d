//! # fastreg_store
//!
//! A sharded, multi-register key–value store built from the paper's
//! register protocols: the step from *one atomic cell* (what Fig. 2 /
//! Fig. 5 implement, and what the rest of the workspace serves) to *a
//! keyspace* — the shape a production register-based storage system
//! actually has.
//!
//! ```text
//!            KvOp stream (many simulated clients)
//!                          │
//!                 ┌────────▼────────┐
//!                 │ BatchedFrontend │   window of pending ops
//!                 └────────┬────────┘
//!                          │ flush: group by shard
//!              ┌───────────┼───────────────┐
//!       Router │shard_of(k)│               │     (shards share
//!              ▼           ▼               ▼      nothing; each
//!         ┌─────────┐ ┌─────────┐    ┌─────────┐  applies its own
//!         │ Shard 0 │ │ Shard 1 │ …  │ Shard S │  sub-batch, shard
//!         │fast-crash│ │  abd    │    │fast-byz │  i on worker i mod w)
//!         └────┬────┘ └────┬────┘    └────┬────┘
//!              │ one DynCluster per key   │
//!              ▼           ▼              ▼
//!        key → [W|R|S…] simulated register deployments
//!                          │
//!                 ┌────────▼────────┐
//!                 │  StoreChecker   │  global history → per-key
//!                 └─────────────────┘  sub-histories → verdicts
//! ```
//!
//! * [`router::Router`] hash-partitions the keyspace: a pure, stable
//!   `key → shard` map (splitmix64-mixed, pinned by property tests).
//! * Each [`shard::Shard`] owns an independent register deployment
//!   ([`DynCluster`](fastreg::harness::DynCluster)) **per key**, built
//!   through [`ClusterBuilder`](fastreg::harness::ClusterBuilder) from
//!   the shard's [`ProtocolId`](fastreg::protocols::registry::ProtocolId)
//!   — shards may run *different* protocols behind one router
//!   (heterogeneous backends).
//! * The [`frontend::BatchedFrontend`] coalesces an operation stream
//!   into per-shard batches, and every flush runs the hit shards on `w =
//!   min(threads, cores, shards)` workers: the caller's thread and `w −
//!   1` helper threads the store keeps for its life
//!   ([`fastreg_rt::threaded::Crew`]), shard `i` always on worker `i mod
//!   w`. Shards share nothing, and the checker's fan-out preserves key
//!   order, so verdicts, histories and the store fingerprint are
//!   **identical at any thread count**. The fingerprint folds each key's full-run trace
//!   digest: a key's world stores no trace and hashes every event as it
//!   happens, so a hot key's millionth event counts as much as its
//!   first. It is an in-process identity; only rendered trace
//!   fingerprints may be persisted.
//! * The [`checker::StoreChecker`] projects the store's global history
//!   onto per-key sub-histories and grades each with the online checker
//!   for its shard's contract (atomicity / linearizability /
//!   regularity), reporting stable
//!   [`Verdict`](fastreg_atomicity::verdict::Verdict) codes — every
//!   registry protocol instantly becomes a KV backend with its contract
//!   checked per key.
//!
//! ## Quickstart
//!
//! ```
//! use fastreg::config::ClusterConfig;
//! use fastreg::protocols::registry::ProtocolId;
//! use fastreg_store::prelude::*;
//!
//! let cfg = ClusterConfig::crash_stop(5, 1, 2)?;
//! let store = StoreBuilder::new(cfg)
//!     .shards(4)
//!     .seed(7)
//!     .backends(vec![ProtocolId::FastCrash, ProtocolId::Abd])
//!     .build()?;
//!
//! let mut frontend = BatchedFrontend::new(store, 2, 16);
//! for i in 0..40u64 {
//!     let key = i % 10;
//!     frontend.submit(if i % 4 == 0 {
//!         KvOp::put(0, key, i + 1)
//!     } else {
//!         KvOp::get((i % 2) as u32, key)
//!     })?;
//! }
//! let (store, stats) = frontend.finish()?;
//! assert_eq!(stats.ops, 40);
//!
//! let report = StoreChecker::check(&store);
//! assert!(report.is_clean(), "every key upholds its contract");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod frontend;
pub mod kv;
pub mod router;
pub mod shard;
pub mod store;

pub use checker::{KeyVerdict, KvHistory, KvRecord, StoreCheckReport, StoreChecker};
pub use frontend::{BatchedFrontend, FrontendStats};
pub use kv::{Key, KvOp, KvOpKind};
pub use router::Router;
pub use shard::{Shard, ShardBatch, StoreError};
pub use store::{BatchStats, ShardedStore, StoreBuilder};

/// Commonly used items, re-exported for examples and tests.
pub mod prelude {
    pub use crate::checker::{KeyVerdict, KvHistory, StoreCheckReport, StoreChecker};
    pub use crate::frontend::{BatchedFrontend, FrontendStats};
    pub use crate::kv::{Key, KvOp, KvOpKind};
    pub use crate::router::Router;
    pub use crate::shard::{Shard, ShardBatch, StoreError};
    pub use crate::store::{BatchStats, ShardedStore, StoreBuilder};
}
