//! The three workloads, their set-up, and the metrics each run reports.
//!
//! * `read-curated` — steady-state serving: a closed loop of one client
//!   thread per core issuing `SparqlServer::query` with bindings drawn
//!   from every curated class of all six BSBM templates. Execution,
//!   `plan_class` and rebind do nearly all the work; cold prepare and the
//!   commit path do none.
//! * `write-durable` — the write-beside-read mix: one closed-loop thread
//!   replays seeded mixed read/write sessions against a durable server.
//!   Every commit clones, applies, journals, fsyncs and publishes, and
//!   clears the plan cache, so every read re-prepares: the cache cannot
//!   hold this workload's working set, unlike `read-curated`'s.
//! * `restart` — crash recovery and warm start: snapshot load and journal
//!   replay do all the work, execution almost none. Latencies are taken
//!   with a warm OS page cache, not a device's. It runs on request but is
//!   not among the workloads `BENCHMARK.json` gates: on a shared 2-core
//!   host the quartile distance of its recovery median over ten seeds was
//!   0.22–0.28 of that median, at or past the 0.25 bound, where the other
//!   two measured 0.05–0.13 in the same hour. Its layers (snapshot load,
//!   journal scan and replay) are still traced on `write-durable`, whose
//!   last session is reopened and replayed.
//!
//! Every workload reports every end-to-end metric from its own
//! operations: `read_*` over its reads (on `restart` a read begins with
//! opening the snapshot, i.e. it is the warm start), `op_p50_ms` over its
//! headline operation (read, durable commit, crash recovery).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parambench_datagen::{MixedWorkload, MixedWorkloadConfig, WorkloadStep};
use parambench_rdf::wal::{self, LoggedOp, Wal};
use parambench_rdf::Dataset;
use parambench_sparql::engine::QueryOutput;
use parambench_sparql::serve::{
    ServeConfig, ServeStats, SparqlServer, JOURNAL_FILE, SNAPSHOT_FILE,
};
use parambench_sparql::{Binding, Engine, ExecConfig, QueryError, QueryTemplate};

use crate::fixture::{self, Counters, Fixture};
use crate::summary::{self, median, quantile};
use crate::trace::{self, Recorder, Span, SpanId};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadCurated,
    WriteDurable,
    Restart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read-curated" => Some(Workload::ReadCurated),
            "write-durable" => Some(Workload::WriteDurable),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCurated => "read-curated",
            Workload::WriteDurable => "write-durable",
            Workload::Restart => "restart",
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Reads every pass serves at least, so that `read_p90_ms` has ten
/// samples beyond it.
pub const MIN_READS: usize = 100;

/// The exact counters are summed over the first this many reads of a
/// pass, which every pass of a seed serves identically.
pub const EXACT_READS: usize = 50;

/// Recoveries every `restart` pass times at least, so that its
/// `op_p50_ms` is a median of at least ten: one recovery of the session
/// varies by up to a third from the next on a shared host.
const MIN_RECOVERIES: usize = 10;

/// Warm starts timed after every recovery on `restart`: the ratio at
/// which a pass meets both sample minimums ([`MIN_READS`] warm starts,
/// [`MIN_RECOVERIES`] recoveries) in the same round. It sets how the
/// pass's time splits between the two paths, and so `read_qps` there.
const WARM_PER_RECOVERY: usize = MIN_READS / MIN_RECOVERIES;

/// A pass stops here even when its sample minimums are not met.
const HARD_CAP: Duration = Duration::from_secs(45);

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Operations attempted and failed (errors plus output mismatches).
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Counts one operation; a `false` outcome counts as failed.
    pub fn check(&self, ok: bool) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Counts one operation that returned an error.
    pub fn error(&self, what: &str, e: impl std::fmt::Display) {
        eprintln!("error: {what}: {e}");
        self.check(false);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// What one run produced.
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    /// Provenance key/value pairs.
    pub provenance: Vec<(String, String)>,
    /// Human-readable lines (the per-class report of a traced run).
    pub notes: Vec<String>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

/// A read as its client saw it.
struct Served {
    output: QueryOutput,
    cache_hit: bool,
    ms: f64,
}

/// Serves one read: `query` call → last row drained. The three spans
/// split it into the serving layer's call (admission, plan cache,
/// pipeline construction), the first row, and the rest of the drain.
fn serve_read(
    server: &SparqlServer,
    template: &QueryTemplate,
    binding: &Binding,
    rec: &Recorder,
    parent: Option<SpanId>,
    request: u64,
) -> Result<Served, QueryError> {
    let t0 = Instant::now();
    let mut stream =
        rec.time("serve.query", parent, request, || server.query(template, binding))?;
    let first = rec.time("engine.first_row", parent, request, || stream.next_row())?;
    let cache_hit = stream.cache_hit();
    let mut output = rec.time("engine.drain", parent, request, || stream.collect())?.output;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(row) = first {
        output.results.rows.insert(0, row);
    }
    Ok(Served { output, cache_hit, ms })
}

/// In a traced pass, the engine-side replicas of one read: `plan_class`,
/// a cold prepare, a rebind and the execution itself, each `Engine::…`
/// called on the served store with the same binding and configuration.
fn replicate(
    server: &SparqlServer,
    template: &QueryTemplate,
    binding: &Binding,
    rec: &Recorder,
    request: u64,
    tally: &Tally,
) {
    if !rec.enabled() {
        return;
    }
    let exec = server.exec_config();
    let engine = Engine::with_exec_config(server.dataset(), exec);
    let root = rec.begin("engine.replica", None, request);
    let replicas = || -> Result<(), QueryError> {
        rec.time("engine.plan_class", Some(root), request, || {
            engine.plan_class(template, binding)
        })?;
        let prepared = rec.time("engine.prepare_cold", Some(root), request, || {
            engine.prepare_template(template, binding)
        })?;
        rec.time("engine.rebind", Some(root), request, || {
            engine.rebind(&prepared, template, binding)
        })?;
        rec.time("engine.exec", Some(root), request, || {
            engine.stream(&prepared, &exec).and_then(|s| s.collect_output())
        })?;
        Ok(())
    };
    if let Err(e) = replicas() {
        tally.error("engine replica", e);
    }
    rec.end(root);
}

/// Per-read bookkeeping of a pass.
#[derive(Debug, Clone, Copy)]
struct ReadMeta {
    request: u64,
    template: usize,
    cache_hit: bool,
}

/// One measured pass over a workload.
#[derive(Default)]
struct Pass {
    /// Read latencies, ms (on `restart`: warm starts).
    reads: Vec<f64>,
    /// Headline operation latencies, ms.
    ops: Vec<f64>,
    elapsed_s: f64,
    exact: Counters,
    meta: Vec<ReadMeta>,
    serve: ServeTotals,
    overlay_peak: usize,
    commits: u64,
    journal_bytes: u64,
    user_triples: u64,
    records_replayed: u64,
    /// The execution configuration requests ran under (on `restart`: that
    /// of the first warm-started server).
    exec: Option<ExecConfig>,
}

/// Serving-layer counters summed over a pass's servers.
#[derive(Debug, Default, Clone, Copy)]
struct ServeTotals {
    hits: u64,
    misses: u64,
    invalidations: u64,
    queue_wait_ms: f64,
}

impl ServeTotals {
    /// Adds a server's counters since `before` (since creation if `None`).
    fn add(&mut self, before: Option<&ServeStats>, after: &ServeStats) {
        let (hits, misses, invalidations, wait) = before.map_or((0, 0, 0, Duration::ZERO), |b| {
            (b.cache_hits, b.cache_misses, b.plan_invalidations, b.queue_wait)
        });
        self.hits += after.cache_hits - hits;
        self.misses += after.cache_misses - misses;
        self.invalidations += after.plan_invalidations - invalidations;
        self.queue_wait_ms += (after.queue_wait - wait).as_secs_f64() * 1e3;
    }
}

/// Whether a pass may stop: its time is up and every sample minimum met.
fn done(start: Instant, budget: Duration, minimums_met: bool) -> bool {
    let elapsed = start.elapsed();
    elapsed >= HARD_CAP || (elapsed >= budget && minimums_met)
}

/// The workload's state after set-up.
enum State {
    /// The warmed-up server of `read-curated`.
    Read(SparqlServer),
    /// `write-durable`'s directory and the durable server set-up created
    /// there for the first session.
    Write { server: Option<SparqlServer>, dir: PathBuf },
    /// `restart`'s durable directory and the triple count it recovers to.
    Restart { dir: PathBuf, triples: usize },
}

/// Timings of every set-up of a run.
#[derive(Debug, Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    curate_ms: Vec<f64>,
    save_ms: Vec<f64>,
}

impl SetupTimes {
    fn extend(&mut self, other: SetupTimes) {
        self.setup_s.extend(other.setup_s);
        self.generate_ms.extend(other.generate_ms);
        self.curate_ms.extend(other.curate_ms);
        self.save_ms.extend(other.save_ms);
    }
}

/// Everything set-up produced.
struct Setup {
    fx: Fixture,
    seed: u64,
    /// The configuration every server of the run is built with.
    config: ServeConfig,
    /// Curated request order (indices into `fx.requests`), seeded.
    order: Vec<usize>,
    state: State,
    times: SetupTimes,
    snapshot_bytes: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Creates a durable store directory over the fixture's store, returning
/// the server and the creation time (snapshot save plus empty journal).
fn create_durable(
    fx: &Fixture,
    dir: &Path,
    config: ServeConfig,
) -> Result<(SparqlServer, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    let server = SparqlServer::create_durable(Arc::clone(&fx.store), dir, config)
        .map_err(|e| format!("create_durable: {e}"))?;
    Ok((server, t0.elapsed().as_secs_f64() * 1e3))
}

/// Session `k` of a seed's mixed read/write traffic: the program's own
/// reference session (`MixedWorkloadConfig::default()`: 60 steps, a read
/// every third step, a compaction every twentieth, eight offers per
/// insert), whose journal the durability phase of `bench_trajectory` also
/// recovers, drawn with its own seed. `write-durable` replays sessions one
/// after another, each on a fresh durable directory over the set-up store,
/// so every session does the same kind of work however many a pass gets
/// through; a single script would grow the store and the overlay for as
/// long as the host is fast enough to keep going. `restart` recovers the
/// journal of session 0.
fn session_script(fx: &Fixture, seed: u64, k: u64) -> MixedWorkload {
    let config = MixedWorkloadConfig {
        seed: fixture::mix(seed, 0x5752_4954 + k),
        ..MixedWorkloadConfig::default()
    };
    MixedWorkload::generate(&fx.bsbm, &config)
}

/// Applies one write step through the commit path, timing the update
/// closure as a child span. Returns the triples it changed.
fn commit(
    server: &mut SparqlServer,
    step: &WorkloadStep,
    rec: &Recorder,
    parent: Option<SpanId>,
    request: u64,
) -> Result<usize, QueryError> {
    server.try_update(|ds| match step {
        WorkloadStep::Insert(batch) => {
            rec.time("store.apply", parent, request, || ds.insert_batch(batch.iter().cloned()))
        }
        WorkloadStep::Delete(batch) => {
            rec.time("store.apply", parent, request, || ds.delete_batch(batch.iter().cloned()))
        }
        WorkloadStep::Compact => rec.time("store.compact", parent, request, || {
            ds.compact();
            0
        }),
        WorkloadStep::Query { .. } => unreachable!("a query step is not a commit"),
    })
}

/// One set-up: dataset generation, curation, request draws and oracle,
/// then the workload's server or durable directory. On `read-curated` it
/// ends with a warm-up pass over the whole mix that fills the plan cache;
/// that pass counts in set-up time, not in the measured loop.
fn setup_once(
    workload: Workload,
    seed: u64,
    scale: usize,
    dir: PathBuf,
    tally: &Tally,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let fx = Fixture::build(scale, seed)?;
    let mut order: Vec<usize> = (0..fx.requests.len()).collect();
    fixture::shuffle(&mut order, fixture::mix(seed, 0x4f52_4445));
    let config = ServeConfig::default();
    let mut save_ms = Vec::new();
    let state = match workload {
        Workload::ReadCurated => {
            let server = SparqlServer::new(Arc::clone(&fx.store), config);
            let off = Recorder::new(false);
            for (i, &r) in order.iter().enumerate() {
                let req = &fx.requests[r];
                let template = &fx.templates[req.template];
                match serve_read(&server, template, &req.binding, &off, None, i as u64) {
                    Ok(sv) => {
                        tally.check(fixture::matches(&fx.expected[r].output, &sv.output));
                    }
                    Err(e) => tally.error("warm-up read", e),
                }
            }
            State::Read(server)
        }
        Workload::WriteDurable => {
            let (server, ms) = create_durable(&fx, &dir, config)?;
            save_ms.push(ms);
            State::Write { server: Some(server), dir }
        }
        Workload::Restart => {
            let script = session_script(&fx, seed, 0);
            let (mut server, ms) = create_durable(&fx, &dir, config)?;
            save_ms.push(ms);
            let off = Recorder::new(false);
            for step in &script.steps {
                if !matches!(step, WorkloadStep::Query { .. }) {
                    commit(&mut server, step, &off, None, 0)
                        .map_err(|e| format!("restart set-up commit: {e}"))?;
                }
            }
            let triples = server.dataset().stats().total_triples;
            // Dropped without a checkpoint: recovery must replay the journal.
            drop(server);
            State::Restart { dir, triples }
        }
    };
    let times = SetupTimes {
        setup_s: vec![t0.elapsed().as_secs_f64()],
        generate_ms: vec![fx.generate_ms],
        curate_ms: vec![fx.curate_ms],
        save_ms,
    };
    let snapshot_bytes = match &state {
        State::Write { dir, .. } | State::Restart { dir, .. } => file_len(&dir.join(SNAPSHOT_FILE)),
        State::Read(_) => 0,
    };
    Ok(Setup { fx, seed, config, order, state, times, snapshot_bytes })
}

/// Sets the workload up [`SETUPS`] times, keeping the last set-up; the
/// earlier ones contribute only their timings.
fn setup(
    workload: Workload,
    seed: u64,
    scale: usize,
    work: &Path,
    tally: &Tally,
) -> Result<Setup, String> {
    let mut times = SetupTimes::default();
    let mut kept: Option<Setup> = None;
    for k in 0..SETUPS {
        // Release the previous set-up, directory included, before the next.
        if let Some(mut prev) = kept.take() {
            times.extend(std::mem::take(&mut prev.times));
            drop(prev);
            let _ = std::fs::remove_dir_all(work.join(format!("setup-{}", k - 1)));
        }
        kept = Some(setup_once(workload, seed, scale, work.join(format!("setup-{k}")), tally)?);
    }
    let mut s = kept.expect("at least one set-up");
    times.extend(std::mem::take(&mut s.times));
    s.times = times;
    Ok(s)
}

/// `read-curated`'s measured loop: one closed-loop client per core, each
/// taking the next request of the seeded curated order.
fn read_pass(
    fx: &Fixture,
    order: &[usize],
    server: &SparqlServer,
    budget: Duration,
    rec: &Recorder,
    tally: &Tally,
) -> Pass {
    let next = AtomicUsize::new(0);
    let before = server.stats();
    let start = Instant::now();
    let clients: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..parambench_sparql::available_parallelism())
            .map(|_| {
                scope.spawn(|| {
                    let mut p = Pass::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= MIN_READS && done(start, budget, true) {
                            return p;
                        }
                        let r = order[i % order.len()];
                        let req = &fx.requests[r];
                        let template = &fx.templates[req.template];
                        let (id, exact) = (i as u64, i < EXACT_READS);
                        match timed_read(server, template, &req.binding, rec, id) {
                            Ok(sv) => {
                                tally.check(fixture::matches(&fx.expected[r].output, &sv.output));
                                p.record_read(&sv, sv.ms, req.template, id, exact);
                            }
                            Err(e) => tally.error("read", e),
                        }
                        replicate(server, template, &req.binding, rec, id, tally);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut pass = Pass { elapsed_s: start.elapsed().as_secs_f64(), ..Pass::default() };
    for p in clients {
        pass.reads.extend(p.reads);
        pass.meta.extend(p.meta);
        pass.exact.merge(&p.exact);
    }
    pass.ops = pass.reads.clone();
    pass.serve.add(Some(&before), &server.stats());
    pass.exec = Some(server.exec_config());
    pass
}

/// A read under its own root span.
fn timed_read(
    server: &SparqlServer,
    template: &QueryTemplate,
    binding: &Binding,
    rec: &Recorder,
    request: u64,
) -> Result<Served, QueryError> {
    let root = rec.begin("serve.read", None, request);
    let served = serve_read(server, template, binding, rec, Some(root), request);
    rec.end(root);
    served
}

impl Pass {
    fn record_read(&mut self, sv: &Served, ms: f64, template: usize, request: u64, exact: bool) {
        self.reads.push(ms);
        if exact {
            self.exact.add(&sv.output);
        }
        self.meta.push(ReadMeta { request, template, cache_hit: sv.cache_hit });
    }
}

/// `write-durable`'s measured loop: one closed-loop thread replays the
/// seed's sessions in order, each on a fresh durable directory created
/// untimed before it, and stops at the end of the session in which its
/// time runs out. Every read is checked against a cold engine on the
/// served store once its timing has stopped; the last session's directory
/// is reopened and must equal its live store.
#[allow(clippy::too_many_arguments)]
fn write_pass(
    fx: &Fixture,
    seed: u64,
    mut server: Option<SparqlServer>,
    config: ServeConfig,
    dir: &Path,
    budget: Duration,
    rec: &Recorder,
    tally: &Tally,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let (mut busy, mut id, mut k) = (Duration::ZERO, 0u64, 0u64);
    let start = Instant::now();
    let server = loop {
        let mut live = match server.take() {
            Some(live) => live,
            None => create_durable(fx, dir, config)?.0,
        };
        p.exec.get_or_insert(live.exec_config());
        let script = session_script(fx, seed, k);
        k += 1;
        let template_index: Vec<usize> = script
            .templates
            .iter()
            .map(|t| {
                fx.templates.iter().position(|f| f.name() == t.name()).expect("a BSBM template")
            })
            .collect();
        let before = live.stats();
        let journal_before = live.journal_len();
        for step in &script.steps {
            id += 1;
            if let WorkloadStep::Query { template, binding } = step {
                let t = &script.templates[*template];
                match timed_read(&live, t, binding, rec, id) {
                    Ok(sv) => {
                        busy += Duration::from_secs_f64(sv.ms / 1e3);
                        let oracle = Engine::new(live.dataset()).run_template(t, binding);
                        tally.check(oracle.is_ok_and(|o| fixture::matches(&o, &sv.output)));
                        let exact = p.reads.len() < EXACT_READS;
                        p.record_read(&sv, sv.ms, template_index[*template], id, exact);
                    }
                    Err(e) => tally.error("read", e),
                }
                replicate(&live, t, binding, rec, id, tally);
                continue;
            }
            let root = rec.begin("serve.commit", None, id);
            let t0 = Instant::now();
            let committed = commit(&mut live, step, rec, Some(root), id);
            let took = t0.elapsed();
            rec.end(root);
            match committed {
                Ok(changed) => {
                    tally.check(true);
                    busy += took;
                    p.ops.push(took.as_secs_f64() * 1e3);
                    p.commits += 1;
                    p.user_triples += changed as u64;
                }
                Err(e) => tally.error("commit", e),
            }
            if rec.enabled() {
                let copy = rec.time("store.clone", None, id, || Dataset::clone(live.dataset()));
                drop(copy);
            }
            let overlay = live.dataset().overlay();
            p.overlay_peak = p.overlay_peak.max(overlay.adds_len() + overlay.dels_len());
        }
        p.journal_bytes += live.journal_len() - journal_before;
        p.serve.add(Some(&before), &live.stats());
        if done(start, budget, p.reads.len() >= MIN_READS) {
            break live;
        }
    };
    // Only the time the client spent in reads and commits, not in the
    // checks between them or in creating the next session's directory.
    p.elapsed_s = busy.as_secs_f64();

    // A reopen of the directory must equal the live store's visible set.
    match SparqlServer::open_durable(dir, config) {
        Ok(reopened) => {
            tally.check(visible(reopened.dataset()) == visible(server.dataset()));
            p.records_replayed = reopened.recovered_records();
        }
        Err(e) => tally.error("reopen", e),
    }
    if rec.enabled() {
        if let Err(e) = recovery_replicas(dir, rec, id + 1) {
            tally.error("recovery replica", e);
        }
    }
    Ok(p)
}

/// The decoded visible triple set of a store, independent of ids.
fn visible(ds: &Dataset) -> std::collections::BTreeSet<String> {
    ds.scan([None, None, None])
        .map(|[s, p, o]| format!("{:?}\t{:?}\t{:?}", ds.decode(s), ds.decode(p), ds.decode(o)))
        .collect()
}

/// The traced run's replicas of recovery's layers, each called on the
/// same directory: `Dataset::load`, `Wal::open` (the journal scan) and
/// `wal::replay`, record by record, with each record that holds a
/// compaction in a child span of its own.
fn recovery_replicas(dir: &Path, rec: &Recorder, request: u64) -> Result<(), String> {
    let root = rec.begin("restart.replica", None, request);
    let mut ds = rec
        .time("snapshot.load", Some(root), request, || Dataset::load(&dir.join(SNAPSHOT_FILE)))
        .map_err(|e| e.to_string())?;
    let (journal, records) = rec
        .time("wal.scan", Some(root), request, || Wal::open(&dir.join(JOURNAL_FILE)))
        .map_err(|e| e.to_string())?;
    let replay = rec.begin("wal.replay", Some(root), request);
    for record in &records {
        let one = std::slice::from_ref(record);
        if record.ops.iter().any(|op| matches!(op, LoggedOp::Compact)) {
            rec.time("wal.replay.compact", Some(replay), request, || wal::replay(&mut ds, one));
        } else {
            wal::replay(&mut ds, one);
        }
    }
    rec.end(replay);
    rec.end(root);
    drop(journal);
    Ok(())
}

/// `restart`'s measured loop: a crash recovery of the durable directory,
/// then [`WARM_PER_RECOVERY`] warm starts (snapshot open plus one curated
/// read drained), round after round.
#[allow(clippy::too_many_arguments)]
fn restart_pass(
    fx: &Fixture,
    order: &[usize],
    config: ServeConfig,
    dir: &Path,
    triples: usize,
    budget: Duration,
    rec: &Recorder,
    tally: &Tally,
) -> Pass {
    let snapshot = dir.join(SNAPSHOT_FILE);
    let mut p = Pass::default();
    let (mut busy, mut id) = (0.0, 0u64);
    let start = Instant::now();
    while !done(start, budget, p.reads.len() >= MIN_READS && p.ops.len() >= MIN_RECOVERIES) {
        id += 1;
        let root = rec.begin("serve.recover", None, id);
        let t0 = Instant::now();
        let recovered = SparqlServer::open_durable(dir, config);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.end(root);
        match recovered {
            Ok(server) => {
                tally.check(server.dataset().stats().total_triples == triples);
                busy += ms;
                p.ops.push(ms);
                p.records_replayed = server.recovered_records();
                let overlay = server.dataset().overlay();
                p.overlay_peak = p.overlay_peak.max(overlay.adds_len() + overlay.dels_len());
            }
            Err(e) => tally.error("recovery", e),
        }
        if rec.enabled() {
            if let Err(e) = recovery_replicas(dir, rec, id) {
                tally.error("recovery replica", e);
            }
        }
        for _ in 0..WARM_PER_RECOVERY {
            id += 1;
            let n = p.reads.len();
            let r = order[n % order.len()];
            let req = &fx.requests[r];
            let template = &fx.templates[req.template];
            let root = rec.begin("serve.warm_start", None, id);
            let t0 = Instant::now();
            let warm = rec
                .time("serve.open", Some(root), id, || SparqlServer::open(&snapshot, config))
                .and_then(|server| {
                    let sv = serve_read(&server, template, &req.binding, rec, Some(root), id)?;
                    Ok((server, sv))
                });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            rec.end(root);
            match warm {
                Ok((server, sv)) => {
                    tally.check(fixture::matches(&fx.expected[r].output, &sv.output));
                    busy += ms;
                    p.record_read(&sv, ms, req.template, id, n < EXACT_READS);
                    p.serve.add(None, &server.stats());
                    p.exec.get_or_insert(server.exec_config());
                    replicate(&server, template, &req.binding, rec, id, tally);
                }
                Err(e) => tally.error("warm start", e),
            }
        }
    }
    // Only the time spent in recoveries and warm starts (see `write_pass`).
    p.elapsed_s = busy / 1e3;
    p
}

/// Runs one measured pass. On `write-durable` the first session of the
/// first pass uses the server set-up created.
fn measure(s: &mut Setup, budget: Duration, rec: &Recorder, tally: &Tally) -> Result<Pass, String> {
    let (fx, order, config) = (&s.fx, &s.order, s.config);
    Ok(match &mut s.state {
        State::Read(server) => read_pass(fx, order, server, budget, rec, tally),
        State::Restart { dir, triples } => {
            restart_pass(fx, order, config, dir, *triples, budget, rec, tally)
        }
        State::Write { server, dir } => {
            write_pass(fx, s.seed, server.take(), config, dir, budget, rec, tally)?
        }
    })
}

/// Makes the allocator keep the memory a run frees instead of handing it
/// back to the kernel: no allocation is served by its own `mmap`, and the
/// heap is never trimmed on `free`. A guest that reports free pages to its
/// host (virtio-balloon free page reporting) otherwise pays a host page
/// fault for every page it touches again, at a cost that depends on the
/// host's load and on how long ago the page was freed rather than on the
/// program. Call before the first allocation of any size that matters.
pub fn retain_freed_memory() {
    // glibc's, declared by hand: the build has no `libc` crate.
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only changes allocator tuning parameters.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Resets this process's resident-memory high-water mark (`VmHWM`) so
/// that [`peak_rss_mib`] covers only what follows: the measured pass, on
/// top of the data set-up leaves live (store, requests, oracle), without
/// the set-ups' transient peaks. Free heap memory the allocator still
/// holds from those set-ups is first returned to the system; how much it
/// kept varies from run to run and would otherwise stay counted.
fn reset_peak_rss() -> Result<(), String> {
    // glibc's, declared by hand: the build has no `libc` crate.
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases memory the allocator owns and
    // no live allocation points into.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident memory of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(s: &Setup, a: &Pass) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&s.times.setup_s), "s"),
        metric("read_p50_ms", median(&a.reads), "ms"),
        metric("read_p90_ms", quantile(&a.reads, 0.9), "ms"),
        metric("read_qps", a.reads.len() as f64 / a.elapsed_s, "1/s"),
        metric("op_p50_ms", median(&a.ops), "ms"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run: `a` is its untraced pass, `b`
/// its traced pass and `spans` what `b` recorded. Also checks that the
/// exact counters of both passes agree.
fn per_layer(s: &Setup, a: &Pass, b: &Pass, spans: &[Span], tally: &Tally) -> Vec<Metric> {
    // Records replayed are exact on `restart` only: `write-durable`'s
    // reopen replays however many commits its pass had time for.
    let records_exact =
        !matches!(s.state, State::Restart { .. }) || a.records_replayed == b.records_replayed;
    if !tally.check(a.exact == b.exact && records_exact) {
        eprintln!(
            "error: exact counters differ between the untraced and traced passes: {:?} / {} vs {:?} / {}",
            a.exact, a.records_replayed, b.exact, b.records_replayed
        );
    }
    let selfs = trace::self_times(spans);
    let at: HashMap<(u64, &str), f64> =
        spans.iter().map(|sp| ((sp.request, sp.name), sp.nanos() as f64 / 1e6)).collect();
    let ms = |request: u64, name: &str| at.get(&(request, name)).copied().unwrap_or(0.0);
    let us_p50 = |name: &str| median(&trace::durations_ms(spans, name)) * 1e3;
    let ms_p50 = |name: &str| median(&trace::durations_ms(spans, name));

    // Served time (serving call, first row, drain) minus the engine's own
    // work for the same binding (class key, rebind or cold prepare, and
    // execution).
    let overhead: Vec<f64> = b
        .meta
        .iter()
        .map(|m| {
            let served = ms(m.request, "serve.query")
                + ms(m.request, "engine.first_row")
                + ms(m.request, "engine.drain");
            let prepare = if m.cache_hit { "engine.rebind" } else { "engine.prepare_cold" };
            served
                - ms(m.request, "engine.plan_class")
                - ms(m.request, prepare)
                - ms(m.request, "engine.exec")
        })
        .collect();
    let remainder: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(sp, _)| sp.name == "serve.commit")
        .map(|(sp, &own)| own as f64 / 1e6 - ms(sp.request, "store.clone"))
        .collect();

    let d = s.fx.diagnostics();
    let e = &b.exact;
    let reads = (b.serve.hits + b.serve.misses).max(1) as f64;
    let headline = median(&a.ops);
    let mut out = vec![
        metric("datagen.generate_ms", median(&s.times.generate_ms), "ms"),
        metric("curation.curate_ms", median(&s.times.curate_ms), "ms"),
        metric("curation.classes", s.fx.classes() as f64, "count"),
        metric("curation.bindings_profiled", s.fx.bindings_profiled() as f64, "count"),
        metric("curation.class_runtime_cv_max", d.class_runtime_cv_max, "ratio"),
        metric("curation.pearson_cout_runtime", d.pearson_cout_runtime, "ratio"),
        metric("serve.cache_hit_ratio", b.serve.hits as f64 / reads, "ratio"),
        metric("serve.plan_invalidations", b.serve.invalidations as f64, "count"),
        metric("serve.queue_wait_ms_total", b.serve.queue_wait_ms, "ms"),
        metric("serve.overhead_ms_p50", median(&overhead), "ms"),
        metric("engine.plan_class_us_p50", us_p50("engine.plan_class"), "us"),
        metric("engine.rebind_us_p50", us_p50("engine.rebind"), "us"),
        metric("engine.prepare_cold_us_p50", us_p50("engine.prepare_cold"), "us"),
        metric("engine.first_row_ms_p50", ms_p50("engine.first_row"), "ms"),
        metric("engine.drain_ms_p50", ms_p50("engine.drain"), "ms"),
    ];
    for (t, template) in s.fx.templates.iter().enumerate() {
        let exec: Vec<f64> = b
            .meta
            .iter()
            .filter(|m| m.template == t)
            .map(|m| ms(m.request, "engine.exec"))
            .collect();
        out.push(metric(format!("engine.exec_ms_p50.{}", template.name()), median(&exec), "ms"));
    }
    out.extend([
        metric("engine.cout", e.cout as f64, "count"),
        metric("engine.scanned", e.scanned as f64, "count"),
        metric("engine.rows", e.rows as f64, "count"),
        metric("engine.peak_tuples", e.peak_tuples as f64, "count"),
        metric("engine.sorted_rows", e.sorted_rows as f64, "count"),
        metric("engine.build_rows", e.build_rows as f64, "count"),
        metric("engine.spilled_rows", e.spilled_rows as f64, "count"),
        metric("engine.rows_per_scanned", e.rows as f64 / e.scanned.max(1) as f64, "ratio"),
        metric("cardinality.qerror_p50", d.qerror_p50, "ratio"),
        metric("cardinality.qerror_max", d.qerror_max, "ratio"),
        metric("store.clone_ms_p50", ms_p50("store.clone"), "ms"),
        metric("store.apply_ms_p50", ms_p50("store.apply"), "ms"),
        metric("store.compact_ms_p50", ms_p50("store.compact"), "ms"),
        metric("store.overlay_peak_entries", b.overlay_peak as f64, "count"),
        metric("wal.commit_remainder_ms_p50", median(&remainder), "ms"),
        metric("wal.bytes_per_commit", b.journal_bytes as f64 / b.commits.max(1) as f64, "B"),
        metric(
            "wal.bytes_per_user_triple",
            b.journal_bytes as f64 / b.user_triples.max(1) as f64,
            "B",
        ),
        metric("wal.scan_ms", ms_p50("wal.scan"), "ms"),
        metric("wal.replay_ms", ms_p50("wal.replay"), "ms"),
        metric("wal.records_replayed", b.records_replayed as f64, "count"),
        metric("snapshot.load_ms_p50", ms_p50("snapshot.load"), "ms"),
        metric("snapshot.save_ms", median(&s.times.save_ms), "ms"),
        metric("snapshot.bytes", s.snapshot_bytes as f64, "B"),
        metric("trace.overhead_frac", (median(&b.ops) - headline) / headline, "ratio"),
    ]);
    out
}

/// How the traced recovery replicas split between recovery's layers: for
/// each layer, the median over replicas of its share of the replica.
fn recovery_split(spans: &[Span]) -> Option<String> {
    const LAYERS: [&str; 4] = ["snapshot.load", "wal.scan", "wal.replay", "wal.replay.compact"];
    let mut per: HashMap<u64, [f64; 5]> = HashMap::new();
    for sp in spans {
        let slot = match sp.name {
            "restart.replica" => 0,
            name => match LAYERS.iter().position(|&l| l == name) {
                Some(i) => i + 1,
                None => continue,
            },
        };
        per.entry(sp.request).or_default()[slot] += sp.nanos() as f64;
    }
    let replicas: Vec<[f64; 5]> = per.into_values().filter(|t| t[0] > 0.0).collect();
    if replicas.is_empty() {
        return None;
    }
    // Replay's own share excludes the compaction records inside it.
    let share = |f: fn(&[f64; 5]) -> f64| {
        let shares: Vec<f64> = replicas.iter().map(|t| f(t) / t[0]).collect();
        format!("{:.1}%", median(&shares) * 100.0)
    };
    Some(format!(
        "recovery split over {} traced replicas (median share): snapshot.load {}, wal.scan {}, \
         wal.replay of insert/delete records {}, wal.replay of compaction records {}",
        replicas.len(),
        share(|t| t[1]),
        share(|t| t[2]),
        share(|t| t[3] - t[4]),
        share(|t| t[4]),
    ))
}

/// Where the numbers came from, plus each timing's sample count and the
/// highest percentile its samples support.
fn provenance(s: &Setup, seed: u64, a: &Pass) -> Vec<(String, String)> {
    let support = |n: usize| {
        summary::highest_supported(n, &[50, 90, 99])
            .map_or_else(|| "none".to_string(), |p| format!("p{p}"))
    };
    vec![
        ("seed".into(), seed.to_string()),
        ("triples".into(), s.fx.store.len().to_string()),
        ("curated_requests".into(), s.fx.requests.len().to_string()),
        ("serve_config".into(), format!("{:?}", s.config)),
        ("exec_config".into(), a.exec.map_or_else(|| "none".into(), |e| format!("{e:?}"))),
        ("setups".into(), s.times.setup_s.len().to_string()),
        ("read_samples".into(), format!("{} (supports {})", a.reads.len(), support(a.reads.len()))),
        ("op_samples".into(), format!("{} (supports {})", a.ops.len(), support(a.ops.len()))),
        ("measured_s".into(), format!("{:.3}", a.elapsed_s)),
    ]
}

/// Runs one workload: set-up, then one untraced pass of `seconds`; a
/// traced run splits `seconds` between an untraced and a traced pass.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: usize,
    work: &Path,
    tally: &Tally,
) -> Result<RunOutput, String> {
    let mut s = setup(workload, seed, scale, work, tally)?;
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    reset_peak_rss()?;
    let a = measure(&mut s, budget, &Recorder::new(false), tally)?;
    let mut out = RunOutput {
        metrics: end_to_end(&s, &a),
        provenance: provenance(&s, seed, &a),
        notes: Vec::new(),
        spans: Vec::new(),
    };
    if traced {
        let rec = Recorder::new(true);
        let b = measure(&mut s, budget, &rec, tally)?;
        out.spans = rec.spans();
        out.metrics = per_layer(&s, &a, &b, &out.spans, tally);
        out.notes = s.fx.class_report(seed);
        out.notes.extend([
            format!(
                "base serve.cache_hit_ratio: {} hits of {} served reads",
                b.serve.hits,
                b.serve.hits + b.serve.misses
            ),
            "derived wal.commit_remainder_ms_p50: commit self time (commit minus its update \
             closure) minus the clone replica of the same commit"
                .into(),
            "derived serve.overhead_ms_p50: serving call, first row and drain minus the \
             replicas' plan_class, rebind (cache hit) or cold prepare (miss), and execution"
                .into(),
            format!(
                "exact counters over the first {EXACT_READS} reads of each pass: {:?}",
                b.exact
            ),
        ]);
        out.notes.extend(recovery_split(&out.spans));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parambench_rdf::Term;
    use parambench_sparql::OutVal;

    /// A small store keeps the tests quick; the logic is scale-free.
    const SMALL: usize = 4_000;

    fn small_setup(workload: Workload, seed: u64, work: &Path) -> Setup {
        setup_once(workload, seed, SMALL, work.join("setup"), &Tally::default())
            .expect("small set-up succeeds")
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_tmp")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn read_once(s: &mut Setup, tally: &Tally) -> Pass {
        let State::Read(server) = &s.state else { panic!("a read-curated set-up") };
        read_pass(&s.fx, &s.order, server, Duration::ZERO, &Recorder::new(false), tally)
    }

    #[test]
    fn a_wrong_expected_row_counts_as_a_failed_read() {
        let work = scratch("gate");
        let mut s = small_setup(Workload::ReadCurated, 3, &work);
        let clean = Tally::default();
        read_once(&mut s, &clean);
        assert_eq!(clean.failed(), 0, "every read matches its oracle");

        let r = s.order[..MIN_READS.min(s.order.len())]
            .iter()
            .copied()
            .find(|&i| !s.fx.expected[i].output.results.rows.is_empty())
            .expect("an early curated request returns rows");
        s.fx.expected[r].output.results.rows[0][0] = OutVal::Term(Term::iri("urn:wrong"));
        let tally = Tally::default();
        let pass = read_once(&mut s, &tally);
        let served_r = (0..pass.reads.len()).filter(|&i| s.order[i % s.order.len()] == r).count();
        assert!(served_r > 0);
        assert_eq!(tally.failed(), served_r as u64, "each read of the corrupted request fails");
        assert_eq!(tally.attempted(), pass.reads.len() as u64);
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn the_same_seed_gives_the_same_script_and_exact_counters() {
        let work = scratch("seed");
        let mut a = small_setup(Workload::ReadCurated, 11, &work);
        let mut b = small_setup(Workload::ReadCurated, 11, &work);
        assert_eq!(a.fx.requests, b.fx.requests);
        assert_eq!(a.order, b.order);
        let (ta, tb) = (Tally::default(), Tally::default());
        let (pa, pb) = (read_once(&mut a, &ta), read_once(&mut b, &tb));
        assert_eq!(pa.exact, pb.exact);
        assert!(pa.exact.cout > 0 && pa.exact.rows > 0);

        let script = |seed| format!("{:?}", session_script(&a.fx, seed, 0).steps);
        assert_eq!(script(11), script(11));
        assert_ne!(script(11), script(12), "the seed drives the write script");
        let c = small_setup(Workload::ReadCurated, 12, &work);
        assert_ne!(a.order, c.order, "the seed drives the request order");
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn write_pass_commits_durably_and_reopens_to_the_live_store() {
        let work = scratch("write");
        let mut s = small_setup(Workload::WriteDurable, 5, &work);
        let tally = Tally::default();
        let pass =
            measure(&mut s, Duration::ZERO, &Recorder::new(true), &tally).expect("pass runs");
        assert_eq!(tally.failed(), 0);
        assert!(pass.reads.len() >= MIN_READS && pass.commits > 0);
        assert!(pass.records_replayed > 0, "commits were journaled");
        assert!(pass.records_replayed <= pass.commits, "an empty commit journals nothing");
        let _ = std::fs::remove_dir_all(&work);
    }
}
