//! # mnd-serve — the multi-tenant MST-as-a-service job plane
//!
//! The workspace's engines answer *one* query over the simulated cluster.
//! This crate is the layer the roadmap's "serving heavy traffic" north
//! star needs on top: many concurrent MST/CC/BFS jobs from many tenants,
//! multiplexed over the cluster's ranks on the same deterministic virtual
//! clock the engines charge. Four pieces:
//!
//! * **Jobs and tenants** ([`job`], [`tenant`]) — timed submissions with
//!   per-tenant admission control (bounded queues reject overload) and
//!   weighted fair shares.
//! * **The scheduler** ([`scheduler`]) — start-time fair queueing over
//!   per-tenant FIFO queues with rank-demand packing and backfill;
//!   latencies (queueing + execution) land on the simulated clock, and
//!   reports carry per-tenant p50/p95/p99 and throughput.
//! * **The result cache** ([`cache`]) — keyed by the stable 128-bit
//!   [`mnd_graph::Fingerprint`] of the canonical input, so a repeat
//!   submission of the same weighted graph costs a frontend lookup
//!   instead of a cluster run, while isomorphic-but-relabelled inputs
//!   (whose answers differ in id space) never false-hit. An update
//!   session's forest is keyed lazily: by the first look-up on a graph
//!   with the session's vertex and edge counts, never per batch.
//! * **Incremental MSF sessions** ([`incremental`]) — streaming edge
//!   insertions (cycle-max replacement, found by walking a rooted forest
//!   to the LCA) and deletions (replacement-edge search over the smaller
//!   side of the cut) maintained against the cached forest, exact under
//!   the workspace's strict `(w, u, v)` edge order and verified
//!   edge-for-edge against full recomputes in the tests.
//!
//! Backends ([`backend`]) wrap any registered [`mnd_engine::Engine`] in a
//! [`mnd_engine::Service`] per granted rank count, so reports show
//! backend utilisation next to tenant latency. `repro serve-sweep`
//! drives mixed query/update workloads through all of this; see
//! EXPERIMENTS.md.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use mnd_graph::gen;
//! use mnd_serve::backend::EngineBackend;
//! use mnd_serve::job::{JobKind, JobSpec};
//! use mnd_serve::scheduler::{ServeConfig, ServePlane};
//! use mnd_serve::tenant::TenantSpec;
//!
//! let graph = Arc::new(gen::gnm(300, 1500, 7));
//! let mut plane = ServePlane::new(
//!     ServeConfig::new(4),
//!     Box::new(EngineBackend::mnd_mst(1.0)),
//!     vec![TenantSpec::new("alice", 2.0, 8), TenantSpec::new("bob", 1.0, 8)],
//! );
//! let jobs = vec![
//!     JobSpec { tenant: 0, kind: JobKind::Mst, graph: graph.clone(), submit: 0.0 },
//!     JobSpec { tenant: 1, kind: JobKind::Mst, graph: graph.clone(), submit: 0.0 },
//! ];
//! let report = plane.run(jobs);
//! assert_eq!(report.completed(), 2);
//! // Same fingerprint: the second submission hit the cache.
//! assert_eq!(report.cache.hits, 1);
//! ```

pub mod backend;
pub mod cache;
pub mod incremental;
pub mod job;
pub mod scheduler;
pub mod tenant;

pub use backend::{Backend, EngineBackend};
pub use cache::{CacheKey, CacheStats, ResultCache, Variant};
pub use incremental::IncrementalMsf;
pub use job::{Completion, JobKind, JobResult, JobSpec, ServedBy};
pub use scheduler::{ServeConfig, ServePlane, ServeReport, UpdateMode, WallRow, CACHE_HIT_SECONDS};
pub use tenant::{percentile, TenantReport, TenantSpec};
