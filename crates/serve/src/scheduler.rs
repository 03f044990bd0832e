//! The job plane: weighted fair queueing of multi-tenant jobs over the
//! simulated cluster's ranks, with result caching and incremental-MSF
//! update sessions.
//!
//! The scheduler is start-time fair queueing (SFQ) over per-tenant FIFO
//! queues: each admitted job gets a start tag `max(V, tenant's last
//! finish tag)` and a finish tag `start + cost / weight`, where `V` is
//! the plane's virtual time (the start tag of the last dispatched job)
//! and cost is a size estimate (edges for queries, operations for
//! updates). Dispatch picks the queue head with the smallest finish tag
//! that fits in the free ranks; heads that do not fit are skipped, so
//! small jobs backfill around a wide job waiting for space. Every
//! latency is charged on the deterministic simulated clock — queueing
//! from admission to dispatch, execution from the backend's simulated
//! makespan (or the frontend's CPU model for cache hits and incremental
//! updates).
//!
//! Results are materialised at *dispatch* time: the backend runs — and
//! the result cache and update sessions are populated — the moment a
//! job is dispatched; only the charged finish time is deferred to the
//! sim clock. Consequently a duplicate job dispatched while its
//! producer is still "running" is served from the cache at
//! [`CACHE_HIT_SECONDS`] and can even retire before the job that
//! computed the result. A real system would park the duplicate on the
//! in-flight computation; modelling that would need cache inserts
//! deferred to retirement. Serve-sweep workloads space duplicate
//! submissions apart, so this is a documented modelling assumption, not
//! an accuracy term in the reported latencies.
//!
//! One population is deferred: an update job's forest is *owed* to the
//! cache at dispatch and keyed into it by the first MSF look-up it could
//! answer — one on a graph with the session's current vertex and edge
//! counts. The key is a hash of the session's whole edge set, host work
//! the simulated clock never charged, and most session versions are
//! superseded by the next batch before anyone asks for them. Every
//! simulated number is what eager keying would give, with one exception:
//! a version superseded *before* any look-up could match it is never
//! keyed, so a later query on that stale graph is a backend miss (correct,
//! and charged as one) where eager keying would have hit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mnd_graph::components::forest_labels;
use mnd_graph::fingerprint::Fingerprint;
use mnd_graph::types::VertexId;
use mnd_graph::EdgeList;
use mnd_kernels::msf::MsfResult;

use crate::backend::Backend;
use crate::cache::{CacheKey, CacheStats, CachedValue, ResultCache, Variant};
use crate::incremental::IncrementalMsf;
use crate::job::{Completion, JobKind, JobResult, JobSpec, ServedBy};
use crate::tenant::{percentile, TenantReport, TenantSpec};

/// How `Update` jobs are executed — the serve-sweep's comparison axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMode {
    /// Maintain the session forest incrementally (cycle-max replacement
    /// on insert, replacement-edge search on delete), charging only the
    /// frontend work the searches actually did.
    Incremental,
    /// Apply the mutation to the session graph, then charge a full
    /// backend MSF recompute of the updated graph.
    Recompute,
}

/// Plane-wide configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ranks the plane multiplexes jobs over.
    pub nranks: usize,
    /// Rank-demand sizing: a job over `E` edges asks for
    /// `ceil(E / edges_per_rank)` ranks, clamped to `[1, nranks]`.
    pub edges_per_rank: u64,
    /// How update jobs execute.
    pub update_mode: UpdateMode,
}

impl ServeConfig {
    /// A plane over `nranks` ranks with caching and incremental updates.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks >= 1);
        ServeConfig {
            nranks,
            edges_per_rank: 2048,
            update_mode: UpdateMode::Incremental,
        }
    }

    /// Sets the rank-demand divisor.
    pub fn with_edges_per_rank(mut self, edges_per_rank: u64) -> Self {
        self.edges_per_rank = edges_per_rank.max(1);
        self
    }

    /// Sets the update execution mode.
    pub fn with_update_mode(mut self, mode: UpdateMode) -> Self {
        self.update_mode = mode;
        self
    }
}

/// Outcome of a serve run.
pub struct ServeReport {
    /// Every completed job, in completion order.
    pub completions: Vec<Completion>,
    /// Per-tenant latency/throughput summaries (index-aligned with the
    /// plane's tenant list).
    pub tenants: Vec<TenantReport>,
    /// Cache counters.
    pub cache: CacheStats,
    /// Time the last job completed (0 for an empty run).
    pub makespan: f64,
    /// Jobs refused at admission: every tenant's, plus the jobs that named
    /// a tenant the plane does not have.
    pub rejected: usize,
    /// Backend utilisation rows `(ranks, jobs, busy_seconds)`.
    pub backend: Vec<(usize, u64, f64)>,
    /// Rank-seconds of execution over `makespan * nranks` capacity.
    pub utilisation: f64,
}

impl ServeReport {
    /// Total jobs completed.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// Where the host's time went: completions and their summed
    /// [`Completion::wall_ns`] per `(kind, served_by)`, in order of first
    /// completion. Wall time, so — unlike everything else in the report —
    /// not reproducible.
    pub fn wall_ledger(&self) -> Vec<WallRow> {
        let mut rows: Vec<WallRow> = Vec::new();
        for c in &self.completions {
            let path = (c.kind, c.served_by);
            match rows.iter_mut().find(|r| (r.kind, r.served_by) == path) {
                Some(row) => {
                    row.jobs += 1;
                    row.wall_ns += c.wall_ns;
                }
                None => rows.push(WallRow {
                    kind: c.kind,
                    served_by: c.served_by,
                    jobs: 1,
                    wall_ns: c.wall_ns,
                }),
            }
        }
        rows
    }
}

/// One row of [`ServeReport::wall_ledger`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallRow {
    /// `JobKind::label()` of the jobs.
    pub kind: &'static str,
    /// Serving path they took.
    pub served_by: ServedBy,
    /// How many completed.
    pub jobs: usize,
    /// Host nanoseconds spent executing them.
    pub wall_ns: u64,
}

/// Cache-hit execution cost: a metadata lookup on the frontend, matching
/// the storage model's fixed sync constant. The point of the cache is
/// that this does not scale with the graph.
pub const CACHE_HIT_SECONDS: f64 = 1e-4;

/// A queued (admitted, not yet dispatched) job.
struct Queued {
    /// Index into the submitted batch.
    job: usize,
    /// SFQ finish tag.
    finish_tag: f64,
    /// SFQ start tag (becomes the plane's virtual time at dispatch).
    start_tag: f64,
    /// Ranks the job asks for.
    demand: usize,
}

/// An executing job, keyed by completion time in the event heap.
struct Running {
    /// Tie-break: dispatch sequence number (deterministic).
    seq: u64,
    ranks: usize,
    completion: Completion,
}

/// Total-order f64 key for the completion heap.
#[derive(PartialEq)]
struct Tf64(f64);
impl Eq for Tf64 {}
impl PartialOrd for Tf64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tf64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The multi-tenant serving plane. Owns the backend, the result cache,
/// and one incremental-MSF session per tenant; [`ServePlane::run`]
/// drives a batch of timed submissions to completion.
pub struct ServePlane {
    cfg: ServeConfig,
    backend: Box<dyn Backend>,
    tenants: Vec<TenantSpec>,
    cache: ResultCache,
    /// Incremental session per tenant, seeded by the tenant's first
    /// `Update` job.
    sessions: BTreeMap<usize, IncrementalMsf>,
    /// Fingerprint of every submitted graph, by the address of its `Arc`'s
    /// allocation — an `O(E)` hash paid once per graph, not once per
    /// look-up. The `Arc` is retained beside the value so the address
    /// cannot be reused while the entry lives, and the list behind a
    /// shared `Arc` cannot change.
    fingerprints: HashMap<usize, (Arc<EdgeList>, Fingerprint)>,
    /// Update results owed to the cache: `(tenant, forest, charged
    /// seconds)`, oldest first, at most one per tenant (a newer update
    /// supersedes the tenant's entry). Keying one costs a walk over the
    /// session's whole edge set, so it waits for an MSF look-up on a graph
    /// with the session's current vertex and edge counts — the only
    /// look-ups its key can answer — and a version superseded before any
    /// such look-up is never keyed at all.
    unpublished: Vec<(usize, Arc<MsfResult>, f64)>,
    /// Vertex count of each tenant's session, known from the admission of
    /// its seeding update on (the session itself exists from dispatch on).
    session_vertices: BTreeMap<usize, VertexId>,
}

impl ServePlane {
    /// A plane over the given backend and tenants.
    pub fn new(cfg: ServeConfig, backend: Box<dyn Backend>, tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "a plane needs at least one tenant");
        ServePlane {
            cfg,
            backend,
            tenants,
            cache: ResultCache::new(),
            sessions: BTreeMap::new(),
            fingerprints: HashMap::new(),
            unpublished: Vec::new(),
            session_vertices: BTreeMap::new(),
        }
    }

    /// The tenant list (index space of [`JobSpec::tenant`]).
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// The fingerprint of a submitted graph, hashed on first sight.
    fn fingerprint_of(&mut self, graph: &Arc<EdgeList>) -> Fingerprint {
        self.fingerprints
            .entry(Arc::as_ptr(graph) as usize)
            .or_insert_with(|| (graph.clone(), graph.fingerprint()))
            .1
    }

    /// Ranks a job over `edges` edges asks for.
    fn demand(&self, edges: usize) -> usize {
        ((edges as u64).div_ceil(self.cfg.edges_per_rank) as usize).clamp(1, self.cfg.nranks)
    }

    /// Edges an `Update` job actually works over: the tenant's live
    /// session if one exists (the stream has grown or shrunk it), else
    /// the spec's base graph (the seeding job).
    fn update_edges(&self, spec: &JobSpec) -> usize {
        self.sessions
            .get(&spec.tenant)
            .map(|s| s.num_edges())
            .unwrap_or(spec.graph.len())
    }

    /// SFQ cost estimate: proportional to input size, never zero. For
    /// recompute-mode updates the input is the session's *current* edge
    /// list, not the base graph the spec carries.
    fn cost_estimate(&self, spec: &JobSpec) -> f64 {
        match (&spec.kind, self.cfg.update_mode) {
            (JobKind::Update { .. }, UpdateMode::Incremental) => (spec.kind.num_ops() + 1) as f64,
            (JobKind::Update { .. }, UpdateMode::Recompute) => {
                (self.update_edges(spec) + spec.kind.num_ops() + 1) as f64
            }
            _ => (spec.graph.len() + 1) as f64,
        }
    }

    /// Whether every vertex id the job's payload names exists: a BFS
    /// source in the job's graph, an update's endpoints in the tenant's
    /// session (which the tenant's first admitted update sizes). A job that
    /// fails this is refused at admission — dispatching it would index
    /// past a vertex column.
    fn payload_in_range(&self, spec: &JobSpec) -> bool {
        match &spec.kind {
            JobKind::Mst | JobKind::Cc => true,
            JobKind::Bfs { source } => *source < spec.graph.num_vertices(),
            JobKind::Update { inserts, deletes } => {
                let n = self.session_vertices.get(&spec.tenant).copied();
                let n = n.unwrap_or(spec.graph.num_vertices());
                inserts.iter().all(|e| e.u < n && e.v < n)
                    && deletes.iter().all(|&(u, v)| u < n && v < n)
            }
        }
    }

    /// Runs a batch of submissions to completion and reports. The batch
    /// is processed in `(submit, index)` order; everything downstream of
    /// the specs is deterministic, so a fixed batch always produces the
    /// same report. A job naming a tenant the plane does not have is
    /// refused at admission like any other: no completion, counted in
    /// [`ServeReport::rejected`].
    pub fn run(&mut self, jobs: Vec<JobSpec>) -> ServeReport {
        let nt = self.tenants.len();
        // Arrival order: (submit, batch index).
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| jobs[a].submit.total_cmp(&jobs[b].submit).then(a.cmp(&b)));
        let mut arrivals = order.into_iter().peekable();

        let mut queues: Vec<VecDeque<Queued>> = (0..nt).map(|_| VecDeque::new()).collect();
        let mut running: BinaryHeap<Reverse<(Tf64, u64, usize)>> = BinaryHeap::new();
        let mut in_flight: BTreeMap<u64, Running> = BTreeMap::new();
        let mut last_finish_tag = vec![0.0f64; nt];
        let mut virtual_time = 0.0f64;
        let mut submitted = vec![0usize; nt];
        let mut rejected = vec![0usize; nt];
        let mut unknown_tenant = 0usize;
        let mut completions: Vec<Completion> = Vec::new();
        let mut clock = 0.0f64;
        let mut free = self.cfg.nranks;
        let mut seq = 0u64;
        let mut busy_rank_seconds = 0.0f64;

        loop {
            // Admit everything that has arrived by now.
            while let Some(&idx) = arrivals.peek() {
                if jobs[idx].submit > clock {
                    break;
                }
                arrivals.next();
                let spec = &jobs[idx];
                if spec.tenant >= nt {
                    unknown_tenant += 1;
                    continue;
                }
                submitted[spec.tenant] += 1;
                if queues[spec.tenant].len() >= self.tenants[spec.tenant].max_queue
                    || !self.payload_in_range(spec)
                {
                    rejected[spec.tenant] += 1;
                    continue;
                }
                if let JobKind::Update { .. } = spec.kind {
                    // Per-tenant FIFO: the first admitted update is the
                    // one that will seed the session.
                    self.session_vertices
                        .entry(spec.tenant)
                        .or_insert(spec.graph.num_vertices());
                }
                let start_tag = virtual_time.max(last_finish_tag[spec.tenant]);
                let finish_tag =
                    start_tag + self.cost_estimate(spec) / self.tenants[spec.tenant].weight;
                last_finish_tag[spec.tenant] = finish_tag;
                let demand = match (&spec.kind, self.cfg.update_mode) {
                    // Incremental updates run on the frontend only.
                    (JobKind::Update { .. }, UpdateMode::Incremental) => 1,
                    // Recompute runs over the session's current edge
                    // list, which diverges from the base graph as the
                    // stream applies — size the rank ask accordingly.
                    (JobKind::Update { .. }, UpdateMode::Recompute) => {
                        self.demand(self.update_edges(spec))
                    }
                    _ => self.demand(spec.graph.len()),
                };
                queues[spec.tenant].push_back(Queued {
                    job: idx,
                    finish_tag,
                    start_tag,
                    demand,
                });
            }

            // Dispatch queue heads in finish-tag order while ranks fit;
            // a head that does not fit is skipped (backfill), not a
            // barrier.
            loop {
                let mut pick: Option<usize> = None;
                for (t, q) in queues.iter().enumerate() {
                    let Some(head) = q.front() else { continue };
                    if head.demand > free {
                        continue;
                    }
                    let better = match pick {
                        None => true,
                        Some(p) => {
                            head.finish_tag
                                .total_cmp(&queues[p].front().unwrap().finish_tag)
                                == std::cmp::Ordering::Less
                        }
                    };
                    if better {
                        pick = Some(t);
                    }
                }
                let Some(t) = pick else { break };
                let q = queues[t].pop_front().unwrap();
                virtual_time = virtual_time.max(q.start_tag);
                free -= q.demand;
                let completion = self.execute(&jobs[q.job], q.job, q.demand, clock);
                let finish = completion.finish;
                busy_rank_seconds += completion.exec_seconds * q.demand as f64;
                running.push(Reverse((Tf64(finish), seq, q.demand)));
                in_flight.insert(
                    seq,
                    Running {
                        seq,
                        ranks: q.demand,
                        completion,
                    },
                );
                seq += 1;
            }

            // Advance to the next event: completion or arrival.
            let next_completion = running.peek().map(|Reverse((t, _, _))| t.0);
            let next_arrival = arrivals.peek().map(|&idx| jobs[idx].submit);
            clock = match (next_completion, next_arrival) {
                (Some(c), Some(a)) if a.total_cmp(&c).is_lt() => a,
                (None, Some(a)) => a,
                (Some(c), _) => c,
                (None, None) => break,
            };
            // Retire every completion at or before the new clock.
            while let Some(Reverse((t, s, ranks))) = running.peek() {
                if t.0 > clock {
                    break;
                }
                let (_, s, ranks) = (t.0, *s, *ranks);
                running.pop();
                free += ranks;
                let run = in_flight.remove(&s).expect("running job tracked");
                debug_assert_eq!(run.seq, s);
                debug_assert_eq!(run.ranks, ranks);
                completions.push(run.completion);
            }
        }

        let makespan = completions.iter().map(|c| c.finish).fold(0.0f64, f64::max);
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let lat: Vec<f64> = completions
                    .iter()
                    .filter(|c| c.tenant == t)
                    .map(|c| c.latency())
                    .collect();
                let hits = completions
                    .iter()
                    .filter(|c| c.tenant == t && c.served_by == ServedBy::Cache)
                    .count();
                TenantReport {
                    name: spec.name.clone(),
                    submitted: submitted[t],
                    completed: lat.len(),
                    rejected: rejected[t],
                    cache_hits: hits,
                    p50: percentile(&lat, 50.0),
                    p95: percentile(&lat, 95.0),
                    p99: percentile(&lat, 99.0),
                    mean_latency: if lat.is_empty() {
                        0.0
                    } else {
                        lat.iter().sum::<f64>() / lat.len() as f64
                    },
                    throughput: if makespan > 0.0 {
                        lat.len() as f64 / makespan
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        ServeReport {
            completions,
            tenants,
            cache: self.cache.stats(),
            makespan,
            rejected: rejected.iter().sum::<usize>() + unknown_tenant,
            backend: self.backend.utilisation(),
            utilisation: if makespan > 0.0 {
                busy_rank_seconds / (makespan * self.cfg.nranks as f64)
            } else {
                0.0
            },
        }
    }

    /// Executes one dispatched job at simulated time `now` and returns
    /// its completion record.
    fn execute(&mut self, spec: &JobSpec, job: usize, ranks: usize, now: f64) -> Completion {
        let started = Instant::now();
        let (served_by, exec_seconds, result) = match &spec.kind {
            JobKind::Mst => self.exec_msf(&spec.graph, ranks),
            JobKind::Cc => self.exec_cc(&spec.graph, ranks),
            JobKind::Bfs { source } => self.exec_bfs(&spec.graph, *source, ranks),
            JobKind::Update { inserts, deletes } => {
                self.exec_update(spec.tenant, &spec.graph, inserts, deletes, ranks)
            }
        };
        Completion {
            job,
            tenant: spec.tenant,
            kind: spec.kind.label(),
            served_by,
            ranks,
            submit: spec.submit,
            start: now,
            finish: now + exec_seconds,
            exec_seconds,
            wall_ns: started.elapsed().as_nanos() as u64,
            result,
        }
    }

    /// MSF with caching: a hit costs [`CACHE_HIT_SECONDS`]; a miss runs
    /// the backend and populates the cache.
    fn exec_msf(&mut self, graph: &Arc<EdgeList>, ranks: usize) -> (ServedBy, f64, JobResult) {
        let (msf, served_by, secs) = self.msf_of(graph, ranks);
        (served_by, secs, JobResult::Msf(msf))
    }

    /// CC labels derive from the forest on the frontend, so the heavy
    /// part shares the MSF cache entry.
    fn exec_cc(&mut self, graph: &Arc<EdgeList>, ranks: usize) -> (ServedBy, f64, JobResult) {
        let (msf, served_by, msf_secs) = self.msf_of(graph, ranks);
        let derive_work = graph.num_vertices() as u64 + msf.edges.len() as u64;
        let secs = msf_secs + self.backend.frontend_seconds(derive_work);
        let labels = forest_labels(graph.num_vertices(), &msf.edges);
        (
            served_by,
            secs,
            JobResult::Cc {
                labels: Arc::new(labels),
                num_components: msf.num_components,
            },
        )
    }

    fn exec_bfs(
        &mut self,
        graph: &Arc<EdgeList>,
        source: VertexId,
        ranks: usize,
    ) -> (ServedBy, f64, JobResult) {
        let key = CacheKey {
            fp: self.fingerprint_of(graph),
            variant: Variant::Bfs(source),
        };
        if let Some(hit) = self.cache.lookup(key) {
            if let CachedValue::Bfs(dist) = hit.value {
                return (ServedBy::Cache, CACHE_HIT_SECONDS, JobResult::Bfs(dist));
            }
        }
        let (dist, secs) = self.backend.bfs(graph, source, ranks);
        let dist = Arc::new(dist);
        self.cache.insert(key, CachedValue::Bfs(dist.clone()), secs);
        (ServedBy::Backend, secs, JobResult::Bfs(dist))
    }

    /// Applies a mutation batch to the tenant's session. The first
    /// update seeds the session from the job's graph (its base forest is
    /// obtained like any MSF query, cache included); later updates
    /// ignore the job's graph and mutate the session.
    fn exec_update(
        &mut self,
        tenant: usize,
        graph: &Arc<EdgeList>,
        inserts: &[mnd_graph::types::WEdge],
        deletes: &[(VertexId, VertexId)],
        ranks: usize,
    ) -> (ServedBy, f64, JobResult) {
        let mut seed_seconds = 0.0;
        if !self.sessions.contains_key(&tenant) {
            let (msf, _, secs) = self.msf_of(graph, ranks);
            seed_seconds = secs;
            self.sessions
                .insert(tenant, IncrementalMsf::new(graph, &msf));
        }
        let session = self.sessions.get_mut(&tenant).expect("seeded above");
        for e in inserts {
            session.insert(e.u, e.v, e.w);
        }
        for &(u, v) in deletes {
            session.delete(u, v);
        }
        let work = session.drain_work();
        let (served_by, msf, cold_seconds, secs) = match self.cfg.update_mode {
            UpdateMode::Incremental => {
                let secs = seed_seconds + self.backend.frontend_seconds(work);
                (ServedBy::Incremental, session.msf(), secs, secs)
            }
            UpdateMode::Recompute => {
                let (msf, secs) = self.backend.msf(&session.edge_list(), ranks);
                (ServedBy::Recompute, msf, secs, seed_seconds + secs)
            }
        };
        let msf = Arc::new(msf);
        // The updated graph's MSF is now known: future queries on it are
        // owed a hit (`msf_of` keys it when one could match).
        self.unpublished.retain(|owed| owed.0 != tenant);
        self.unpublished.push((tenant, msf.clone(), cold_seconds));
        (served_by, secs, JobResult::Msf(msf))
    }

    /// Shared MSF-with-cache path.
    fn msf_of(&mut self, graph: &Arc<EdgeList>, ranks: usize) -> (Arc<MsfResult>, ServedBy, f64) {
        // Key every owed update result this look-up could be answered by:
        // equal graphs have equal vertex and edge counts.
        let (sessions, cache) = (&self.sessions, &mut self.cache);
        self.unpublished.retain(|(tenant, msf, cold_seconds)| {
            let session = &sessions[tenant];
            if (session.num_vertices(), session.num_edges()) != (graph.num_vertices(), graph.len())
            {
                return true;
            }
            let key = CacheKey {
                fp: session.fingerprint(),
                variant: Variant::Msf,
            };
            cache.insert(key, CachedValue::Msf(msf.clone()), *cold_seconds);
            false
        });
        let key = CacheKey {
            fp: self.fingerprint_of(graph),
            variant: Variant::Msf,
        };
        if let Some(hit) = self.cache.lookup(key) {
            if let CachedValue::Msf(msf) = hit.value {
                return (msf, ServedBy::Cache, CACHE_HIT_SECONDS);
            }
        }
        let (msf, secs) = self.backend.msf(graph, ranks);
        let msf = Arc::new(msf);
        self.cache.insert(key, CachedValue::Msf(msf.clone()), secs);
        (msf, ServedBy::Backend, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EngineBackend;
    use mnd_graph::gen;
    use mnd_graph::types::WEdge;
    use mnd_kernels::kruskal_msf;

    fn plane(nranks: usize, tenants: Vec<TenantSpec>) -> ServePlane {
        ServePlane::new(
            ServeConfig::new(nranks).with_edges_per_rank(1024),
            Box::new(EngineBackend::mnd_mst(1.0)),
            tenants,
        )
    }

    fn one_tenant(nranks: usize) -> ServePlane {
        plane(nranks, vec![TenantSpec::new("t0", 1.0, 64)])
    }

    fn mst(tenant: usize, graph: &Arc<EdgeList>, submit: f64) -> JobSpec {
        JobSpec {
            tenant,
            kind: JobKind::Mst,
            graph: graph.clone(),
            submit,
        }
    }

    #[test]
    fn repeat_submissions_hit_the_cache_at_constant_cost() {
        let g = Arc::new(gen::gnm(400, 2400, 11));
        let mut p = one_tenant(4);
        let report = p.run(vec![mst(0, &g, 0.0), mst(0, &g, 1e6), mst(0, &g, 2e6)]);
        assert_eq!(report.completed(), 3);
        let cold = &report.completions[0];
        assert_eq!(cold.served_by, ServedBy::Backend);
        for hit in &report.completions[1..] {
            assert_eq!(hit.served_by, ServedBy::Cache);
            assert_eq!(hit.exec_seconds, CACHE_HIT_SECONDS);
            assert!(hit.exec_seconds < cold.exec_seconds / 10.0);
            match (&hit.result, &cold.result) {
                (JobResult::Msf(a), JobResult::Msf(b)) => assert_eq!(**a, **b),
                _ => panic!("MST jobs return forests"),
            }
        }
        assert_eq!(report.cache.hits, 2);
        assert!(report.cache.saved_seconds > 0.0);
    }

    #[test]
    fn cc_shares_the_msf_cache_entry_and_bfs_caches_per_source() {
        let g = Arc::new(gen::gnm(300, 1500, 13));
        let mut p = one_tenant(4);
        let jobs = vec![
            mst(0, &g, 0.0),
            JobSpec {
                tenant: 0,
                kind: JobKind::Cc,
                graph: g.clone(),
                submit: 1e6,
            },
            JobSpec {
                tenant: 0,
                kind: JobKind::Bfs { source: 0 },
                graph: g.clone(),
                submit: 2e6,
            },
            JobSpec {
                tenant: 0,
                kind: JobKind::Bfs { source: 0 },
                graph: g.clone(),
                submit: 3e6,
            },
            JobSpec {
                tenant: 0,
                kind: JobKind::Bfs { source: 5 },
                graph: g.clone(),
                submit: 4e6,
            },
        ];
        let report = p.run(jobs);
        let by_job: BTreeMap<usize, &Completion> =
            report.completions.iter().map(|c| (c.job, c)).collect();
        // CC found the forest cached and only paid frontend derivation.
        assert_eq!(by_job[&1].served_by, ServedBy::Cache);
        match &by_job[&1].result {
            JobResult::Cc { labels, .. } => assert_eq!(labels.len(), 300),
            _ => panic!("CC returns labels"),
        }
        // BFS: cold per source, cached per (graph, source).
        assert_eq!(by_job[&2].served_by, ServedBy::Backend);
        assert_eq!(by_job[&3].served_by, ServedBy::Cache);
        assert_eq!(by_job[&4].served_by, ServedBy::Backend);
        // The wall ledger has one row per (kind, path), first completion
        // first, and accounts for every completion's host time.
        let ledger = report.wall_ledger();
        let paths: Vec<_> = ledger
            .iter()
            .map(|r| (r.kind, r.served_by, r.jobs))
            .collect();
        assert_eq!(
            paths,
            [
                ("mst", ServedBy::Backend, 1),
                ("cc", ServedBy::Cache, 1),
                ("bfs", ServedBy::Backend, 2),
                ("bfs", ServedBy::Cache, 1),
            ]
        );
        let wall: u64 = report.completions.iter().map(|c| c.wall_ns).sum();
        assert_eq!(ledger.iter().map(|r| r.wall_ns).sum::<u64>(), wall);
        assert!(by_job[&0].wall_ns > 0, "a backend run takes host time");
    }

    #[test]
    fn admission_control_rejects_burst_overflow() {
        let mut p = plane(1, vec![TenantSpec::new("bursty", 1.0, 2)]);
        // Five distinct graphs at t=0 against a queue bound of 2: the
        // burst lands before anything dispatches, so two are admitted
        // and three bounce.
        let jobs: Vec<JobSpec> = (0..5)
            .map(|i| mst(0, &Arc::new(gen::gnm(500, 3000, 100 + i)), 0.0))
            .collect();
        let report = p.run(jobs);
        assert_eq!(report.rejected, 3);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.tenants[0].submitted, 5);
        assert_eq!(report.tenants[0].rejected, 3);
    }

    #[test]
    fn weighted_fair_queueing_favors_the_heavier_tenant() {
        // One rank, both tenants flood distinct graphs at t=0: jobs
        // serialize, and the weight-4 tenant's finish tags interleave 4x
        // as densely, so its latency percentiles come out lower.
        let mut p = plane(
            1,
            vec![
                TenantSpec::new("gold", 4.0, 64),
                TenantSpec::new("best-effort", 1.0, 64),
            ],
        );
        let mut jobs = Vec::new();
        for i in 0..8 {
            jobs.push(mst(0, &Arc::new(gen::gnm(300, 1500, 200 + i)), 0.0));
            jobs.push(mst(1, &Arc::new(gen::gnm(300, 1500, 300 + i)), 0.0));
        }
        let report = p.run(jobs);
        assert_eq!(report.completed(), 16);
        let gold = &report.tenants[0];
        let best_effort = &report.tenants[1];
        assert!(
            gold.mean_latency < best_effort.mean_latency,
            "gold {} vs best-effort {}",
            gold.mean_latency,
            best_effort.mean_latency
        );
        assert!(gold.p95 <= best_effort.p95);
    }

    #[test]
    fn incremental_updates_match_recompute_and_cost_less() {
        let base = Arc::new(gen::gnm(600, 3600, 23));
        let mut stream: Vec<JobKind> = Vec::new();
        let mut seed = 77u64;
        let mut rng = move || {
            seed = mnd_graph::edgelist::splitmix64(seed);
            seed
        };
        for _ in 0..6 {
            let inserts: Vec<WEdge> = (0..5)
                .map(|_| {
                    WEdge::new(
                        (rng() % 600) as u32,
                        (rng() % 600) as u32,
                        (rng() % 10_000) as u32 + 1,
                    )
                })
                .collect();
            let deletes: Vec<(u32, u32)> = (0..3)
                .map(|_| ((rng() % 600) as u32, (rng() % 600) as u32))
                .collect();
            stream.push(JobKind::Update { inserts, deletes });
        }
        let run_mode = |mode: UpdateMode| {
            let mut p = ServePlane::new(
                ServeConfig::new(4).with_update_mode(mode),
                Box::new(EngineBackend::mnd_mst(1.0)),
                vec![TenantSpec::new("updates", 1.0, 64)],
            );
            p.run(
                stream
                    .iter()
                    .enumerate()
                    .map(|(i, kind)| JobSpec {
                        tenant: 0,
                        kind: kind.clone(),
                        graph: base.clone(),
                        submit: i as f64,
                    })
                    .collect(),
            )
        };
        let inc = run_mode(UpdateMode::Incremental);
        let full = run_mode(UpdateMode::Recompute);
        assert_eq!(inc.completed(), full.completed());
        // Identical forests job-for-job (both are the unique MSF of the
        // updated graph), and the incremental path is cheaper after the
        // first job's session seeding.
        let mut inc_exec = 0.0;
        let mut full_exec = 0.0;
        for (a, b) in inc.completions.iter().zip(&full.completions) {
            assert_eq!(a.job, b.job);
            match (&a.result, &b.result) {
                (JobResult::Msf(x), JobResult::Msf(y)) => assert_eq!(**x, **y),
                _ => panic!("updates return forests"),
            }
            inc_exec += a.exec_seconds;
            full_exec += b.exec_seconds;
        }
        assert!(
            inc_exec < full_exec / 2.0,
            "incremental {inc_exec} vs recompute {full_exec}"
        );
        // The oracle agrees with the final forest.
        let last = inc.completions.last().unwrap();
        let mut oracle_inc = IncrementalMsf::from_graph(&base);
        for kind in &stream {
            if let JobKind::Update { inserts, deletes } = kind {
                for e in inserts {
                    oracle_inc.insert(e.u, e.v, e.w);
                }
                for &(u, v) in deletes {
                    oracle_inc.delete(u, v);
                }
            }
        }
        let oracle = kruskal_msf(&oracle_inc.edge_list());
        match &last.result {
            JobResult::Msf(m) => assert_eq!(**m, oracle),
            _ => panic!("updates return forests"),
        }
    }

    /// An update leaves one record owed to the cache per tenant; a look-up
    /// on a graph of other counts leaves it owed, one on the session's
    /// counts keys it.
    #[test]
    fn update_results_are_keyed_by_the_first_look_up_that_could_match() {
        let base = Arc::new(gen::gnm(120, 500, 3));
        let update = |submit: f64| JobSpec {
            tenant: 0,
            kind: JobKind::Update {
                inserts: vec![WEdge::new(1, 2, 3), WEdge::new(4, 90, 1)],
                deletes: Vec::new(),
            },
            graph: base.clone(),
            submit,
        };
        let mut p = one_tenant(2);
        p.run(vec![update(0.0), update(1.0), mst(0, &base, 2.0)]);
        assert_eq!(
            p.unpublished.len(),
            1,
            "the second batch superseded the first"
        );
        assert_eq!(p.cache.len(), 1, "only the base graph is keyed");
        let current = Arc::new(p.sessions[&0].edge_list());
        let report = p.run(vec![mst(0, &current, 0.0)]);
        assert!(p.unpublished.is_empty());
        assert_eq!(report.completions[0].served_by, ServedBy::Cache);
    }

    #[test]
    fn fixed_workload_is_deterministic() {
        let build_jobs = || {
            let a = Arc::new(gen::gnm(300, 1500, 31));
            let b = Arc::new(gen::gnm(200, 900, 32));
            vec![
                mst(0, &a, 0.0),
                mst(1, &b, 0.0),
                JobSpec {
                    tenant: 0,
                    kind: JobKind::Bfs { source: 3 },
                    graph: a.clone(),
                    submit: 0.5,
                },
                mst(1, &a, 1.0),
                JobSpec {
                    tenant: 1,
                    kind: JobKind::Update {
                        inserts: vec![WEdge::new(1, 2, 3)],
                        deletes: vec![(0, 1)],
                    },
                    graph: b.clone(),
                    submit: 1.5,
                },
            ]
        };
        let run = || {
            let mut p = plane(
                2,
                vec![TenantSpec::new("a", 2.0, 8), TenantSpec::new("b", 1.0, 8)],
            );
            p.run(build_jobs())
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.completed(), r2.completed());
        assert_eq!(r1.makespan, r2.makespan);
        for (x, y) in r1.completions.iter().zip(&r2.completions) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.start, y.start);
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.served_by, y.served_by);
        }
        for (x, y) in r1.tenants.iter().zip(&r2.tenants) {
            assert_eq!(x.p50, y.p50);
            assert_eq!(x.p95, y.p95);
            assert_eq!(x.p99, y.p99);
        }
    }
}
