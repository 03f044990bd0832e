//! The job model: what tenants submit and what comes back.

use std::sync::Arc;

use mnd_graph::types::{VertexId, WEdge};
use mnd_graph::EdgeList;
use mnd_kernels::msf::MsfResult;

/// What a job asks the plane to compute.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Minimum spanning forest of the job's graph.
    Mst,
    /// Connected-component labels (derived from the MSF, so an MSF cache
    /// hit makes this a frontend-only job).
    Cc,
    /// Single-source BFS hop distances.
    Bfs {
        /// Source vertex (must be `< num_vertices`).
        source: VertexId,
    },
    /// Streaming mutation of the tenant's incremental-MSF session:
    /// canonical weighted insertions and `(u, v)` deletions, applied in
    /// order (inserts first). Returns the updated forest.
    Update {
        /// Edges to insert (an existing `(u, v)` pair is re-weighted).
        inserts: Vec<WEdge>,
        /// Endpoint pairs to delete (absent pairs are no-ops).
        deletes: Vec<(VertexId, VertexId)>,
    },
}

impl JobKind {
    /// Short label for traces and tables.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Mst => "mst",
            JobKind::Cc => "cc",
            JobKind::Bfs { .. } => "bfs",
            JobKind::Update { .. } => "update",
        }
    }

    /// Number of mutation operations (0 for queries).
    pub fn num_ops(&self) -> usize {
        match self {
            JobKind::Update { inserts, deletes } => inserts.len() + deletes.len(),
            _ => 0,
        }
    }
}

/// A submitted job: which tenant, what to compute, over which graph, when
/// (in simulated seconds). For `Update` jobs the graph identifies the
/// tenant's session base — the first update seeds the session from it.
#[derive(Clone)]
pub struct JobSpec {
    /// Index into the plane's tenant list.
    pub tenant: usize,
    /// The query or mutation.
    pub kind: JobKind,
    /// Input graph (shared; the plane never mutates it).
    pub graph: Arc<EdgeList>,
    /// Submission time on the simulated clock.
    pub submit: f64,
}

/// How a completed job was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// Result cache hit: frontend lookup only, no cluster compute.
    Cache,
    /// Cold run on the backend engine.
    Backend,
    /// Incremental MSF maintenance on the frontend.
    Incremental,
    /// Full recompute of the session graph (the incremental path's
    /// comparison arm).
    Recompute,
}

/// The payload a completed job hands back.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// Forest for `Mst` and `Update` jobs.
    Msf(Arc<MsfResult>),
    /// Labels for `Cc` jobs (smallest vertex id per component).
    Cc {
        /// Component label per vertex.
        labels: Arc<Vec<VertexId>>,
        /// Number of connected components.
        num_components: usize,
    },
    /// Hop distances for `Bfs` jobs (`u64::MAX` = unreachable).
    Bfs(Arc<Vec<u64>>),
}

/// Completion record: the scheduling history plus the result.
#[derive(Clone)]
pub struct Completion {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Tenant index.
    pub tenant: usize,
    /// `JobKind::label()` of the job.
    pub kind: &'static str,
    /// Serving path taken.
    pub served_by: ServedBy,
    /// Ranks the job occupied while executing.
    pub ranks: usize,
    /// Submission time.
    pub submit: f64,
    /// Dispatch time (start of execution).
    pub start: f64,
    /// Completion time.
    pub finish: f64,
    /// Simulated execution seconds (`finish - start`).
    pub exec_seconds: f64,
    /// Host nanoseconds the plane spent executing the job (backend run,
    /// cache look-up, session mutation, label derivation). The one field
    /// of a completion that is *not* deterministic: replay comparisons
    /// leave it out.
    pub wall_ns: u64,
    /// The result payload.
    pub result: JobResult,
}

impl Completion {
    /// Queueing + execution latency the tenant observed.
    pub fn latency(&self) -> f64 {
        self.finish - self.submit
    }
}
