//! # emap-cluster — the sharded EMAP cloud
//!
//! The paper's cloud is one mega-database server; this crate scales it
//! horizontally without changing a byte of the edge protocol. A corpus
//! is partitioned across N shard servers by a stable [`Placement`]
//! (hash of the global set ID, or class colocation), each shard is a
//! plain [`emap_cloud::CloudServer`] over its partition, and a
//! [`Coordinator`] fronts them. The coordinator is a `CloudServer` too —
//! the same reactor core, admission and reply builders — whose
//! [`emap_cloud::Backend`] is a scatter instead of a store: it fans every
//! search out to all shards over pooled upstream connections (at most one
//! set per server worker, however many edges are connected) and selects
//! the **exact** global top-K from the per-shard top-Ks — same hits, same
//! `ω` values, same tie order a single-store sweep produces (pinned by
//! the equivalence proptests in `tests/`).
//!
//! Every shard runs on ≥1 replicas. The coordinator prefers the replica
//! that answered last, fails over when it dies or exhausts its retry
//! budget, and — only when *every* replica of some shard is down —
//! serves a degraded answer flagged with
//! [`emap_search::SearchWork::partial`] so edges know coverage is
//! incomplete. Writes are journaled per shard; a replica that rejoins
//! after downtime is replayed the ingests it missed through the normal
//! ingest path before it serves another search.
//!
//! [`LoopbackCluster`] boots the whole topology in-process for tests,
//! benches, and quick experiments; `emap cluster serve` / `emap shard
//! serve` are the deployment faces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod harness;
mod placement;

pub use coordinator::{Coordinator, CoordinatorConfig, ShardSpec};
pub use harness::{loopback_upstream, LoopbackCluster};
pub use placement::Placement;
