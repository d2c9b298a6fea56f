//! `store_edits`: one-task WCET edits to a durable system store.
//!
//! The store holds a few named distributed pipelines (tens of
//! resources, the delta-suite shape) and some uniprocessor systems, on
//! `DirIo` with per-put fsync off (it would measure the disk) and
//! snapshots at the default cadence. One op is a `store_put` of an edit
//! with a dedup id, then a `store_analyze` of that name. At the end the
//! store is reopened and the recovery timed.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use twca_api::{
    AnalysisRequest, DirIo, DmmPoint, LatencyOutcome, PersistPolicy, Query, QueryOutcome,
    RequestOptions, Session, StoreAnalyzeOutcome, StoredBody, SystemStore, Target,
};
use twca_dist::{
    analyze_with_memo, parse_distributed, render_distributed, DistOptions, HolisticMemo,
};
use twca_model::{parse_system, render_system};

use super::{rng, write_spans, CacheOps, Cpus, SetUps};
use crate::report::Report;
use crate::stats::{ms, us, Fastest, Samples};
use crate::trace::{Tracer, OP};
use crate::Ctx;

const W: &str = "store_edits";

/// Ingest WCETs of a pipeline stage stay in this range: at 60 a stage
/// runs at ~0.9975 utilization, so no edit can overload it.
const INGEST_WCETS: std::ops::RangeInclusive<u64> = 50..=60;

/// Per-task WCET ranges of the uniprocessor entries.
const UNI_WCETS: [std::ops::RangeInclusive<u64>; 5] = [10..=20, 15..=30, 20..=40, 20..=40, 20..=60];

#[derive(Debug, Clone)]
enum Body {
    /// Ingest WCET per pipeline stage.
    Pipeline(Vec<u64>),
    /// WCET per task of the uniprocessor template.
    Uni([u64; 5]),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    body: Body,
    /// The last acknowledged version.
    version: u64,
}

impl Entry {
    fn text(&self) -> String {
        match &self.body {
            Body::Pipeline(wcets) => pipeline_text(wcets),
            Body::Uni(w) => format!(
                "chain control periodic=200 deadline=200 sync {{ task sense prio=6 wcet={} task act prio=2 wcet={} }}\n\
                 chain logger periodic=500 deadline=500 async {{ task log prio=4 wcet={} task flush prio=1 wcet={} }}\n\
                 chain burst sporadic=2000 overload {{ task fix prio=5 wcet={} }}\n",
                w[0], w[1], w[2], w[3], w[4]
            ),
        }
    }

    /// Tasks one edit may change: the ingest task of every stage, or
    /// every task of the uniprocessor template.
    fn slots(&self) -> usize {
        match &self.body {
            Body::Pipeline(wcets) => wcets.len(),
            Body::Uni(wcets) => wcets.len(),
        }
    }

    /// Changes the WCET of task `at` to another value of its range.
    fn edit(&mut self, at: usize, rng: &mut ChaCha8Rng) {
        let (slot, range) = match &mut self.body {
            Body::Pipeline(wcets) => (&mut wcets[at], INGEST_WCETS),
            Body::Uni(wcets) => (&mut wcets[at], UNI_WCETS[at].clone()),
        };
        let old = *slot;
        while *slot == old {
            *slot = rng.gen_range(range.clone());
        }
    }

    fn is_dist(&self) -> bool {
        matches!(self.body, Body::Pipeline(_))
    }
}

/// A pipeline of linked stages: a top-priority `flow` chain linked
/// stage to stage, with local chains pushing each stage to ~0.99
/// utilization so every holistic row costs real busy-window work.
fn pipeline_text(ingest: &[u64]) -> String {
    let mut text = String::new();
    for (i, wcet) in ingest.iter().enumerate() {
        text.push_str(&format!(
            "resource r{i} {{\n\
             chain flow periodic=1000 deadline=1000 sync {{ task ingest prio=100 wcet={wcet} task emit prio=90 wcet=40 }}\n\
             chain telemetry periodic=400 deadline=400 async {{ task sample prio=30 wcet=90 task pack prio=20 wcet=55 }}\n\
             chain housekeeping sporadic=1000 {{ task scrub prio=5 wcet=535 }}\n}}\n"
        ));
    }
    for i in 1..ingest.len() {
        text.push_str(&format!("link r{}/flow -> r{i}/flow\n", i - 1));
    }
    text
}

fn put_request(entry: &Entry, id: String) -> AnalysisRequest {
    let text = entry.text();
    let (system, dist) = if entry.is_dist() {
        (None, Some(text))
    } else {
        (Some(text), None)
    };
    AnalysisRequest {
        id: Some(id.clone()),
        target: Target::Service,
        queries: vec![Query::StorePut {
            name: entry.name.clone(),
            system,
            dist,
            dedup: Some(id),
        }],
        options: RequestOptions::default(),
    }
}

fn analyze_request(name: &str, ks: &[u64]) -> AnalysisRequest {
    AnalysisRequest {
        id: None,
        target: Target::Service,
        queries: vec![Query::StoreAnalyze {
            name: name.to_owned(),
            ks: ks.to_vec(),
        }],
        options: RequestOptions::default(),
    }
}

/// The store's directory, removed when the state is dropped.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct State {
    session: Session,
    entries: Vec<Entry>,
    rng: ChaCha8Rng,
    puts: u64,
    io: Arc<DirIo>,
    memos: Vec<HolisticMemo>,
    // Declared last: the directory outlives the store using it.
    _dir: Dir,
}

impl State {
    /// Puts the entry's current body; returns the acked version.
    fn put(&mut self, index: usize) -> Result<u64, String> {
        self.puts += 1;
        let id = format!("put-{}", self.puts);
        let response = self.session.analyze(&put_request(&self.entries[index], id));
        match response.outcome.as_deref() {
            Ok([QueryOutcome::StorePut(put)])
                if put.version == self.entries[index].version + 1 && !put.deduped =>
            {
                self.entries[index].version = put.version;
                Ok(put.version)
            }
            other => Err(format!(
                "store_put of {} answered {other:?}",
                self.entries[index].name
            )),
        }
    }

    fn analyze(&self, index: usize, ks: &[u64]) -> Result<StoreAnalyzeOutcome, String> {
        let entry = &self.entries[index];
        match self
            .session
            .analyze(&analyze_request(&entry.name, ks))
            .outcome
        {
            Ok(mut outcomes) => match outcomes.pop() {
                Some(QueryOutcome::StoreAnalyze(out))
                    if out.version == entry.version
                        && out.dmm.iter().all(|d| d.error.is_none()) =>
                {
                    Ok(out)
                }
                other => Err(format!(
                    "store_analyze of {} answered {other:?}",
                    entry.name
                )),
            },
            Err(e) => Err(format!("store_analyze of {} failed: {e:?}", entry.name)),
        }
    }
}

fn policy(ctx: &Ctx) -> PersistPolicy {
    PersistPolicy {
        snapshot_every: ctx.spec.param(W, "snapshot_every"),
        sync_every: ctx.spec.param(W, "sync_every"),
    }
}

fn set_up_state(ctx: &Ctx, attempt: u64, ks: &[u64]) -> State {
    let spec = &ctx.spec;
    let dir =
        Dir(PathBuf::from(".bench_work").join(format!("store-{}-{attempt}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let io = Arc::new(DirIo::open(&dir.0).expect("create the store directory"));
    let (store, _) = SystemStore::durable(io.clone(), policy(ctx)).expect("open an empty store");
    let mut rng = rng(ctx, 4);
    let mut entries = Vec::new();
    for p in 0..spec.param(W, "pipelines") {
        let stages = spec.param(W, "pipeline_resources") as usize;
        entries.push(Entry {
            name: format!("pipeline{p}"),
            body: Body::Pipeline((0..stages).map(|_| rng.gen_range(INGEST_WCETS)).collect()),
            version: 0,
        });
    }
    for u in 0..spec.param(W, "uni_systems") {
        entries.push(Entry {
            name: format!("uni{u}"),
            body: Body::Uni(UNI_WCETS.clone().map(|range| rng.gen_range(range))),
            version: 0,
        });
    }
    let memos = entries.iter().map(|_| HolisticMemo::new()).collect();
    let mut state = State {
        session: Session::new().with_store(Arc::new(store)),
        entries,
        rng,
        puts: 0,
        io,
        memos,
        _dir: dir,
    };
    // Version 1 of every entry, analyzed once so each memo is warm.
    for index in 0..state.entries.len() {
        state.put(index).expect("the initial put is acked");
        state
            .analyze(index, ks)
            .expect("the initial version analyzes");
        if ctx.trace && state.entries[index].is_dist() {
            let system = parse_distributed(&state.entries[index].text()).expect("valid pipeline");
            analyze_with_memo(&system, dist_options(&state.session), &state.memos[index])
                .expect("the pipeline converges");
        }
    }
    state
}

fn dist_options(session: &Session) -> DistOptions {
    DistOptions {
        chain_options: session.options(),
        ..DistOptions::default()
    }
}

/// The final `store_analyze` of every entry against a from-scratch
/// analysis of its last acked text.
fn check_final(state: &State, ks: &[u64], report: &mut Report) {
    for (index, entry) in state.entries.iter().enumerate() {
        let Ok(stored) = state.analyze(index, ks) else {
            report.wrong(format!("the final store_analyze of {} failed", entry.name));
            continue;
        };
        let (latency, dmm): (Vec<LatencyOutcome>, Vec<(String, Vec<DmmPoint>)>) = if entry.is_dist()
        {
            let system = parse_distributed(&entry.text()).expect("valid pipeline");
            let results = twca_dist::analyze(&system, dist_options(&state.session))
                .expect("the pipeline converges");
            let mut latency = Vec::new();
            let mut dmm = Vec::new();
            for site in system.sites() {
                let (resource, chain) = system.site_names(site);
                let name = format!("{resource}/{chain}");
                let declared = system
                    .resource(site.resource())
                    .system()
                    .chain(site.chain());
                latency.push(LatencyOutcome {
                    name: name.clone(),
                    deadline: declared.deadline(),
                    overload: declared.is_overload(),
                    worst_case_latency: results.worst_case_latency(site),
                    typical_latency: None,
                });
                if declared.deadline().is_some() {
                    let points = ks
                        .iter()
                        .map(|&k| {
                            DmmPoint::from(
                                &results
                                    .deadline_miss_model_full(site, k)
                                    .expect("dmm of a converged site"),
                            )
                        })
                        .collect();
                    dmm.push((name, points));
                }
            }
            (latency, dmm)
        } else {
            let system = parse_system(&entry.text()).expect("valid system");
            let outcome = Session::new().system_outcome(0, &system, ks);
            let latency = outcome
                .chains
                .iter()
                .map(|c| LatencyOutcome {
                    name: c.name.clone(),
                    deadline: c.deadline,
                    overload: c.overload,
                    worst_case_latency: c.worst_case_latency,
                    typical_latency: c.typical_latency,
                })
                .collect();
            let dmm = outcome
                .chains
                .iter()
                .filter(|c| c.deadline.is_some())
                .map(|c| (c.name.clone(), c.miss_models.clone()))
                .collect();
            (latency, dmm)
        };
        let stored_dmm: Vec<(String, Vec<DmmPoint>)> =
            stored.dmm.into_iter().map(|d| (d.name, d.points)).collect();
        report.gate(stored.latency == latency && stored_dmm == dmm, || {
            format!(
                "the final store_analyze of {} differs from a from-scratch analysis",
                entry.name
            )
        });
    }
}

/// Reopens the store `times` times; returns the recovery times (ms)
/// and the last reopened store.
fn recover(ctx: &Ctx, io: &Arc<DirIo>, times: usize) -> (Samples, Option<SystemStore>) {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let begin = Instant::now();
        let opened = SystemStore::durable(io.clone(), policy(ctx));
        samples.push(ms(begin.elapsed()));
        last = opened.ok().map(|(store, _)| store);
    }
    (Samples::new(samples), last)
}

pub fn run(ctx: &Ctx) -> Report {
    let spec = &ctx.spec;
    let ks = spec.list(W, "ks");
    let mut report = Report::default();
    let mut attempt = 0;
    let (mut state, mut setups, mut reference) = SetUps::first(ctx, || {
        attempt += 1;
        set_up_state(ctx, attempt, &ks)
    });

    let mut tracer = Tracer::new();
    let (mut op_ms, mut untraced_us) = (Vec::new(), Vec::new());
    let (mut rows, mut memo_hits, mut sweeps) = (Vec::new(), 0u64, Vec::new());
    let mut cache_ops = CacheOps::default();
    // The ops cycle through every editable task of every entry (a
    // class); each class's fastest op counts.
    let classes: Vec<(usize, usize)> = state
        .entries
        .iter()
        .enumerate()
        .flat_map(|(index, entry)| (0..entry.slots()).map(move |at| (index, at)))
        .collect();
    let mut fastest = Fastest::new(classes.len());
    let cpus = Cpus::allowed();
    let end = Instant::now() + ctx.seconds;
    for op in 0.. {
        if Instant::now() >= end {
            break;
        }
        let (pass, class) = (op / classes.len(), op % classes.len());
        if class == 0 {
            cpus.pin(pass);
        }
        setups.between_ops(&mut reference);
        reference.between_ops();
        let (index, at) = classes[class];
        state.entries[index].edit(at, &mut state.rng);
        // Traced runs trace every other op and swap which ones each
        // pass, so traced and untraced ops run the same classes and their
        // difference is the tracing overhead.
        tracer.set_enabled(ctx.trace && (pass + class).is_multiple_of(2));
        let (begin, before) = (Instant::now(), state.session.cache_stats());
        tracer.enter(OP);
        let put = tracer.span("api.store.put_us", || state.put(index));
        let analyzed = put.and_then(|_| {
            tracer.span("api.session.analyze_us.store_analyze", || {
                state.analyze(index, &ks)
            })
        });
        if ctx.trace && state.entries[index].is_dist() {
            let system = parse_distributed(&state.entries[index].text()).expect("valid pipeline");
            let options = dist_options(&state.session);
            let memo = &state.memos[index];
            let (results, _) = tracer
                .span("dist.analyze_us", || {
                    analyze_with_memo(&system, options, memo)
                })
                .expect("the pipeline converges");
            sweeps.push(results.sweeps() as f64);
        }
        tracer.exit();
        let elapsed = begin.elapsed();
        cache_ops.observe(before, state.session.cache_stats());
        report.attempted += 1;
        match analyzed {
            Ok(outcome) => {
                op_ms.push(ms(elapsed));
                fastest.observe(class, ms(elapsed), 1.0);
                if ctx.trace && !tracer.enabled() {
                    untraced_us.push(us(elapsed));
                }
                if state.entries[index].is_dist() {
                    rows.push(outcome.rows_analyzed as f64);
                    memo_hits += outcome.memo_hits;
                }
            }
            Err(message) => {
                report.failed += 1;
                report.wrong(message);
            }
        }
    }
    tracer.set_enabled(false);
    cpus.release();
    report.setup(&setups.finish(&mut reference));

    check_final(&state, &ks, &mut report);
    // Top up the journal to a fixed tail, so the recovery replays the
    // same number of records whatever the run's op count.
    let every = spec.param(W, "snapshot_every");
    let tail = spec.param(W, "recovery_journal_records");
    while state.puts % every != tail {
        let index = state.rng.gen_range(0..state.entries.len());
        let at = state.rng.gen_range(0..state.entries[index].slots());
        state.entries[index].edit(at, &mut state.rng);
        if let Err(message) = state.put(index) {
            report.wrong(message);
        }
    }
    let persisted = state.session.store().persist_stats();
    let cache = state.session.cache_stats();
    let io = Arc::clone(&state.io);
    state.session = Session::new();
    let (recoveries, reopened) = recover(ctx, &io, spec.param(W, "recoveries") as usize);
    match &reopened {
        Some(store) => {
            let recovered: Vec<(String, u64, String)> = store
                .export()
                .into_iter()
                .map(|(name, version, body)| {
                    let text = match body {
                        StoredBody::Uni(system) => render_system(&system),
                        StoredBody::Dist(system) => render_distributed(&system),
                    };
                    (name, version, text)
                })
                .collect();
            let mut acked: Vec<(String, u64, String)> = state
                .entries
                .iter()
                .map(|e| {
                    let text = if e.is_dist() {
                        render_distributed(&parse_distributed(&e.text()).expect("valid pipeline"))
                    } else {
                        render_system(&parse_system(&e.text()).expect("valid system"))
                    };
                    (e.name.clone(), e.version, text)
                })
                .collect();
            acked.sort();
            report.gate(recovered == acked, || {
                "the reopened store lost an acked version".into()
            });
        }
        None => report.wrong("the store did not reopen".into()),
    }

    let ops = op_ms.len() as f64;
    report.end_to_end_fastest(
        [
            "edit.ops_per_s",
            "edit.class_p50_ms",
            "edit.p50_ms",
            "edit.p99_ms",
            "edit.ops",
        ],
        "1/s",
        &fastest,
        &op_ms,
        ops,
        &reference,
    );
    report.note(
        "edit.recover_ms",
        recoveries.median(),
        "ms",
        recoveries.len(),
    );
    if ctx.trace {
        report.layers(ctx, &tracer.profile(), &Samples::new(untraced_us));
        let rows = Samples::new(rows);
        report.count(
            "dist.sweeps",
            Samples::new(sweeps.clone()).sum() / sweeps.len().max(1) as f64,
            "count",
            sweeps.len(),
        );
        report.count(
            "dist.rows_analyzed",
            rows.sum() / rows.len().max(1) as f64,
            "count",
            rows.len(),
        );
        let lookups = memo_hits as f64 + rows.sum();
        report.count(
            "dist.memo_hit_ratio",
            memo_hits as f64 / lookups.max(1.0),
            "ratio",
            rows.len(),
        );
        report.count(
            "api.persist.journal_bytes_per_put",
            persisted.journal_bytes as f64 / persisted.journal_appends.max(1) as f64,
            "B",
            persisted.journal_appends as usize,
        );
        report.count(
            "api.persist.snapshots",
            persisted.snapshots_written as f64,
            "count",
            1,
        );
        let recovered_records = reopened
            .as_ref()
            .map_or(0, |s| s.persist_stats().recovered_records);
        report.count(
            "api.persist.recovered_records",
            recovered_records as f64,
            "count",
            1,
        );
        cache_ops.report(&mut report, cache);
        write_spans(ctx, &tracer, W);
    }
    drop(reopened);
    drop(state);
    report
}
