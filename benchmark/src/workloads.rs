//! The five workloads: seed-derived inputs, their oracles, and one timed
//! pass over each.
//!
//! The program under test receives only the generated `EdgeList`s and
//! `JobSpec`s; oracles are computed here with the plain single-threaded
//! Kruskal and compared outside every timer.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use mnd::engines::{registry, EngineParams};
use mnd_engine::{Engine, EngineReport};
use mnd_graph::edgelist::splitmix64;
use mnd_graph::gen::{gnm, GeoPreset};
use mnd_graph::presets::Preset;
use mnd_graph::types::{VertexId, WEdge, Weight};
use mnd_graph::EdgeList;
use mnd_kernels::kruskal_msf;
use mnd_kernels::msf::MsfResult;
use mnd_serve::{
    EngineBackend, JobKind, JobResult, JobSpec, ServeConfig, ServePlane, ServeReport, TenantSpec,
};

/// Ranks every engine run uses: the paper's group size. Ranks are the
/// program's own threads; the harness adds none.
pub const NRANKS: usize = 4;

/// Rejections the serve mix is built to produce: the batch tenant bursts
/// six jobs at t=0 into a queue bound of three.
pub const SERVE_REJECTIONS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CrawlDnc,
    ScrambleDnc,
    RoadRounds,
    GeoKnn,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CrawlDnc,
        Workload::ScrambleDnc,
        Workload::RoadRounds,
        Workload::GeoKnn,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrawlDnc => "crawl-dnc",
            Workload::ScrambleDnc => "scramble-dnc",
            Workload::RoadRounds => "road-rounds",
            Workload::GeoKnn => "geo-knn",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scale divisor of the workload graph at full size (the road graph
    /// of `serve-mix`); also the simulation scale of its engine runs.
    fn base_div(self) -> u64 {
        match self {
            Workload::CrawlDnc => 256,
            Workload::ScrambleDnc => 2048,
            Workload::RoadRounds => 32,
            Workload::GeoKnn => 128,
            Workload::ServeMix => 256,
        }
    }

    /// Engines one pass runs over the workload graph, in order (none for
    /// `serve-mix`, whose pass is one `ServePlane::run`).
    pub fn engines(self) -> &'static [&'static str] {
        match self {
            Workload::CrawlDnc | Workload::ScrambleDnc => &["mnd-mst"],
            Workload::RoadRounds => &["mnd-mst", "bsp", "spmsf"],
            Workload::GeoKnn => &["mnd-mst", "spmsf"],
            Workload::ServeMix => &[],
        }
    }
}

/// Input size: `Full` is the benchmark; `Smoke` divides every input by 64
/// so the whole harness can be walked in seconds. Smoke numbers are not
/// comparable with anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// Factor every input size is divided by.
    pub fn shrink(self) -> u64 {
        match self {
            Size::Full => 1,
            Size::Smoke => 64,
        }
    }
}

/// The serve plane's traffic: tenants, timed submissions, and a mirror of
/// the update session's graph after every mutation (the oracle input).
pub struct ServeMix {
    pub tenants: Vec<TenantSpec>,
    pub jobs: Vec<JobSpec>,
    pub final_graph: EdgeList,
}

impl ServeMix {
    /// The mix restricted to query jobs (`updates == false`) or to update
    /// jobs (`updates == true`); tenants unchanged.
    pub fn only(&self, updates: bool) -> Vec<JobSpec> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Update { .. }) == updates)
            .cloned()
            .collect()
    }
}

/// Everything one workload run feeds the program.
pub struct Inputs {
    pub workload: Workload,
    /// The workload graph: input of the engine runs and of every layer
    /// probe (for `serve-mix`, the road graph its interactive tenant
    /// queries).
    pub graph: Arc<EdgeList>,
    /// Simulation scale of every engine run and of the serve backend.
    pub sim_scale: f64,
    /// The serve traffic (`serve-mix` only).
    pub serve: Option<ServeMix>,
    /// Edges generated in total (all graphs of a serve mix).
    pub gen_edges: u64,
}

/// Reference answers, computed by Kruskal outside every timer.
pub struct Oracle {
    /// MSF of the workload graph.
    pub graph_msf: MsfResult,
    /// MSF of the update session's final graph (`serve-mix` only).
    pub session_msf: Option<MsfResult>,
}

/// Generates a workload's inputs from the seed, every size divided by
/// `shrink` (see [`Size::shrink`]).
pub fn generate(workload: Workload, seed: u64, shrink: u64) -> Inputs {
    let div = workload.base_div() * shrink;
    let graph = match workload {
        Workload::CrawlDnc => Preset::Arabic2005.generate(div, seed),
        Workload::ScrambleDnc => Preset::Gsh2015Tpd.generate(div, seed),
        Workload::RoadRounds | Workload::ServeMix => Preset::RoadUsa.generate(div, seed),
        Workload::GeoKnn => GeoPreset::Cluster3d.generate_with_k(div, seed).0,
    };
    let graph = Arc::new(graph);
    let serve = (workload == Workload::ServeMix).then(|| serve_mix(&graph, seed));
    let gen_edges = match &serve {
        Some(mix) => distinct_graph_edges(&mix.jobs),
        None => graph.len() as u64,
    };
    Inputs {
        workload,
        graph,
        sim_scale: div as f64,
        serve,
        gen_edges,
    }
}

/// Total edges over the distinct graphs a job list references.
fn distinct_graph_edges(jobs: &[JobSpec]) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    jobs.iter()
        .filter(|j| seen.insert(Arc::as_ptr(&j.graph)))
        .map(|j| j.graph.len() as u64)
        .sum()
}

impl Oracle {
    /// Drops one edge from every reference forest, so that every checked
    /// output must fail: the harness's own failure path, for
    /// `--corrupt-oracle` and the self-tests.
    pub fn corrupt(&mut self) {
        self.graph_msf.edges.pop();
        if let Some(session) = &mut self.session_msf {
            session.edges.pop();
        }
    }
}

/// Computes the oracles for generated inputs.
pub fn oracle(inputs: &Inputs) -> Oracle {
    Oracle {
        graph_msf: kruskal_msf(&inputs.graph),
        session_msf: inputs.serve.as_ref().map(|s| kruskal_msf(&s.final_graph)),
    }
}

/// Builds the three-tenant serve mix over `road`:
///
/// * *interactive* (weight 4): 27 waves of {Mst, Cc, Bfs} on the same road
///   graph, 0.25 simulated seconds apart — wave 1 is cold, every later
///   job is a cache hit;
/// * *batch* (weight 1, queue bound 3): six distinct `gnm` graphs at t=0,
///   so three are refused by design;
/// * *updates* (weight 2): 16 batches of 16 inserts + 8 deletes on an
///   incremental session over a dense `gnm(sn, 16·sn)` graph.
fn serve_mix(road: &Arc<EdgeList>, seed: u64) -> ServeMix {
    const WAVES: usize = 27;
    const BATCH_GRAPHS: u64 = 6;
    const UPDATE_BATCHES: usize = 16;
    const INSERTS: usize = 16;
    const DELETES: usize = 8;

    let tenants = vec![
        // Deep enough to hold every interactive job while the admitted
        // batch graphs occupy the ranks: only the batch tenant refuses.
        TenantSpec::new("interactive", 4.0, 128),
        TenantSpec::new("batch", 1.0, SERVE_REJECTIONS),
        TenantSpec::new("updates", 2.0, 16),
    ];
    let mut jobs = Vec::new();
    for wave in 0..WAVES {
        let t = wave as f64 * 0.25;
        for (dt, kind) in [
            (0.0, JobKind::Mst),
            (0.05, JobKind::Cc),
            (0.1, JobKind::Bfs { source: 0 }),
        ] {
            jobs.push(JobSpec {
                tenant: 0,
                kind,
                graph: road.clone(),
                submit: t + dt,
            });
        }
    }
    let sn = (road.num_vertices() / 2).max(64);
    for i in 0..BATCH_GRAPHS {
        jobs.push(JobSpec {
            tenant: 1,
            kind: JobKind::Mst,
            graph: Arc::new(gnm(sn, sn as u64 * 3, seed ^ (0xB0B0 + i))),
            submit: 0.0,
        });
    }

    let session = Arc::new(gnm(sn, sn as u64 * 16, seed ^ 0xD1CE));
    // The mirror tracks the session graph exactly as the plane mutates it
    // (inserts before deletes within a batch); `keys` lets a delete pick a
    // present pair uniformly without walking the map.
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
        session.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let mut keys: Vec<(VertexId, VertexId)> = mirror.keys().copied().collect();
    let mut z = seed ^ 0x5EED_CAFE;
    let mut next = move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(z)
    };
    for batch in 0..UPDATE_BATCHES {
        let mut inserts = Vec::with_capacity(INSERTS);
        let mut deletes = Vec::with_capacity(DELETES);
        for _ in 0..INSERTS {
            let u = (next() % sn as u64) as VertexId;
            let mut v = (next() % sn as u64) as VertexId;
            if v == u {
                v = (v + 1) % sn;
            }
            let e = WEdge::new(u, v, (next() % 1_000_000) as Weight);
            if mirror.insert((e.u, e.v), e.w).is_none() {
                keys.push((e.u, e.v));
            }
            inserts.push(e);
        }
        for _ in 0..DELETES {
            if keys.is_empty() {
                break;
            }
            let k = keys.swap_remove((next() % keys.len() as u64) as usize);
            mirror.remove(&k);
            deletes.push(k);
        }
        jobs.push(JobSpec {
            tenant: 2,
            kind: JobKind::Update { inserts, deletes },
            graph: session.clone(),
            submit: 0.5 + 0.4 * batch as f64,
        });
    }
    let final_graph = EdgeList::from_raw(
        sn,
        mirror
            .iter()
            .map(|(&(u, v), &w)| WEdge::new(u, v, w))
            .collect(),
    );
    ServeMix {
        tenants,
        jobs,
        final_graph,
    }
}

/// The engines a workload's pass runs, built from defaults only:
/// `EngineParams::new(4).with_sim_scale(scale)`.
pub fn engines_for(inputs: &Inputs, nranks: usize) -> Vec<Box<dyn Engine>> {
    registry(&EngineParams::new(nranks).with_sim_scale(inputs.sim_scale))
}

/// One engine run inside a pass.
pub struct EngineRun {
    pub engine: &'static str,
    pub wall_s: f64,
    /// `None` if the run panicked.
    pub report: Option<EngineReport>,
}

/// What one pass over a workload produced.
pub struct Pass {
    /// Wall seconds of the pass's operations (oracle comparison excluded).
    pub wall_s: f64,
    /// Simulated seconds: sum of the engines' `total_time`, or the serve
    /// plane's makespan.
    pub sim_time_s: f64,
    /// Simulated seconds from submission to result, one per operation; a
    /// refused or panicked operation is `+∞`.
    pub sim_latencies: Vec<f64>,
    /// Operations attempted (engine runs, or serve submissions).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Per-engine detail (engine workloads).
    pub runs: Vec<EngineRun>,
    /// The plane's report (`serve-mix`; `None` if the plane panicked).
    pub serve: Option<ServeReport>,
}

/// Runs one pass of an engine workload: each engine of the workload once
/// over the workload graph, back to back, one caller. `run_one` performs
/// the call (the traced run substitutes an observed one); the timer wraps
/// exactly that call.
pub fn engine_pass(
    inputs: &Inputs,
    oracle: &Oracle,
    engines: &[Box<dyn Engine>],
    mut run_one: impl FnMut(&dyn Engine, &EdgeList) -> EngineReport,
) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        sim_time_s: 0.0,
        sim_latencies: Vec::new(),
        attempted: 0,
        failed: 0,
        runs: Vec::new(),
        serve: None,
    };
    for engine in engines {
        if !inputs.workload.engines().contains(&engine.name()) {
            continue;
        }
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_one(engine.as_ref(), std::hint::black_box(&inputs.graph))
        }));
        let wall_s = start.elapsed().as_secs_f64();
        pass.wall_s += wall_s;
        pass.attempted += 1;
        let report = outcome.ok();
        match &report {
            Some(r) => {
                pass.sim_time_s += r.total_time;
                pass.sim_latencies.push(r.total_time);
                if r.msf != oracle.graph_msf {
                    pass.failed += 1;
                }
            }
            None => {
                pass.sim_latencies.push(f64::INFINITY);
                pass.failed += 1;
            }
        }
        pass.runs.push(EngineRun {
            engine: engine.name(),
            wall_s,
            report,
        });
    }
    pass
}

/// Runs `jobs` through a fresh serve plane (empty cache, no sessions) on
/// the default backend and returns the report with its wall seconds.
/// `None` if the plane panicked.
pub fn serve_run(mix: &ServeMix, jobs: Vec<JobSpec>, sim_scale: f64) -> (Option<ServeReport>, f64) {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut plane = ServePlane::new(
            ServeConfig::new(NRANKS),
            Box::new(EngineBackend::mnd_mst(sim_scale)),
            mix.tenants.clone(),
        );
        plane.run(std::hint::black_box(jobs))
    }));
    (outcome.ok(), start.elapsed().as_secs_f64())
}

/// Runs one pass of `serve-mix`: one `ServePlane::run` over the whole mix.
/// Open loop on the virtual clock: submit times are fixed by the mix and
/// latency counts from submission.
pub fn serve_pass(inputs: &Inputs, oracle: &Oracle) -> Pass {
    let mix = inputs.serve.as_ref().expect("serve-mix carries a mix");
    let submitted = mix.jobs.len() as u64;
    let (report, wall_s) = serve_run(mix, mix.jobs.clone(), inputs.sim_scale);
    let mut pass = Pass {
        wall_s,
        sim_time_s: 0.0,
        sim_latencies: vec![f64::INFINITY; submitted as usize],
        attempted: submitted,
        failed: submitted,
        runs: Vec::new(),
        serve: None,
    };
    let Some(report) = report else {
        return pass;
    };
    pass.sim_time_s = report.makespan;
    for (slot, c) in pass.sim_latencies.iter_mut().zip(&report.completions) {
        *slot = c.latency();
    }
    pass.failed = serve_failures(mix, oracle, &report);
    pass.serve = Some(report);
    pass
}

/// Counts the serve submissions whose outcome failed a check. Lost jobs
/// or a wrong refusal count void the whole run; otherwise every `Mst`
/// answer on the road graph must equal its oracle, and a wrong final
/// session forest fails every update.
fn serve_failures(mix: &ServeMix, oracle: &Oracle, report: &ServeReport) -> u64 {
    let submitted = mix.jobs.len();
    if report.completed() + report.rejected != submitted || report.rejected != SERVE_REJECTIONS {
        return submitted as u64;
    }
    let mut failed = 0;
    let mut last_update: Option<&mnd_serve::Completion> = None;
    let mut updates = 0;
    for c in &report.completions {
        match (c.kind, &c.result) {
            ("mst", JobResult::Msf(msf)) if c.tenant == 0 && **msf != oracle.graph_msf => {
                failed += 1;
            }
            ("update", _) => {
                updates += 1;
                if last_update.is_none_or(|l| c.job > l.job) {
                    last_update = Some(c);
                }
            }
            _ => {}
        }
    }
    let session_ok = matches!(
        (last_update.map(|c| &c.result), &oracle.session_msf),
        (Some(JobResult::Msf(got)), Some(want)) if **got == *want
    );
    if !session_ok {
        failed += updates;
    }
    failed
}

/// One untraced pass of any workload.
pub fn pass(inputs: &Inputs, oracle: &Oracle, engines: &[Box<dyn Engine>]) -> Pass {
    match inputs.workload {
        Workload::ServeMix => serve_pass(inputs, oracle),
        _ => engine_pass(inputs, oracle, engines, |e, el| e.run(el)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// Every generator is a function of the seed: equal seeds give equal
    /// inputs, different seeds different ones.
    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let prints = |seed| {
                let inputs = generate(w, seed, Size::Smoke.shrink());
                let mut fps = vec![inputs.graph.fingerprint()];
                if let Some(mix) = &inputs.serve {
                    fps.push(mix.final_graph.fingerprint());
                    fps.extend(mix.jobs.iter().map(|j| j.graph.fingerprint()));
                    // Update payloads are inputs too.
                    for j in &mix.jobs {
                        if let JobKind::Update { inserts, .. } = &j.kind {
                            fps.push(EdgeList::from_raw(u32::MAX, inserts.clone()).fingerprint());
                        }
                    }
                }
                fps
            };
            assert_eq!(prints(42), prints(42), "{}: same seed", w.name());
            assert_ne!(prints(42), prints(7), "{}: other seed", w.name());
        }
    }

    #[test]
    fn serve_mix_has_the_designed_shape() {
        let inputs = generate(Workload::ServeMix, 42, Size::Smoke.shrink());
        let mix = inputs.serve.as_ref().unwrap();
        assert_eq!(mix.jobs.len(), 103);
        assert_eq!(mix.only(true).len(), 16);
        assert_eq!(mix.only(false).len(), 87);
        // road + session + six batch graphs.
        assert!(inputs.gen_edges > inputs.graph.len() as u64);
    }

    /// A correct program passes every check; a deliberately corrupted
    /// oracle fails every operation of every workload.
    #[test]
    fn corrupted_oracle_fails_every_operation() {
        for w in Workload::ALL {
            let inputs = generate(w, 42, Size::Smoke.shrink());
            let engines = engines_for(&inputs, NRANKS);
            let good = oracle(&inputs);
            let p = pass(&inputs, &good, &engines);
            assert_eq!(p.failed, 0, "{}: clean pass", w.name());
            assert!(p.attempted >= 1);

            let mut bad = oracle(&inputs);
            bad.corrupt();
            let p = pass(&inputs, &bad, &engines);
            if w == Workload::ServeMix {
                // Forest oracles reach the 27 Mst answers and the 16
                // updates; Cc/Bfs/batch answers have no oracle here.
                assert_eq!((p.failed, p.attempted), (43, 103));
            } else {
                assert_eq!(p.failed, p.attempted, "{}: corrupted oracle", w.name());
            }
        }
    }

    /// Lost jobs or a wrong refusal count void the whole serve run.
    #[test]
    fn serve_bookkeeping_failure_voids_the_run() {
        let mut inputs = generate(Workload::ServeMix, 42, Size::Smoke.shrink());
        let good = oracle(&inputs);
        // A batch queue deep enough for the burst: nothing is refused.
        inputs.serve.as_mut().unwrap().tenants[1].max_queue = 6;
        let p = serve_pass(&inputs, &good);
        assert_eq!((p.failed, p.attempted), (103, 103));
    }

    #[test]
    fn serve_checks_localise_a_wrong_forest() {
        let inputs = generate(Workload::ServeMix, 42, Size::Smoke.shrink());
        let mut bad = oracle(&inputs);
        bad.session_msf.as_mut().unwrap().edges.pop();
        let p = serve_pass(&inputs, &bad);
        assert_eq!(p.failed, 16, "only the update stream fails");
        let mut bad = oracle(&inputs);
        bad.graph_msf.edges.pop();
        let p = serve_pass(&inputs, &bad);
        assert_eq!(p.failed, 27, "only the interactive Mst answers fail");
    }
}
