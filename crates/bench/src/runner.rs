//! In-process JSON benchmark runner behind `twca bench`.
//!
//! Criterion drives the statistical deep-dives (`cargo bench`); this
//! runner exists so the perf trajectory of the hot paths is a
//! *committed artifact* (`BENCH_combinations.json`) and a CI gate: it
//! re-measures the same workloads in seconds, renders them as JSON, and
//! [`check_against`] fails when a benchmark regresses more than the
//! tolerance against the committed baseline — after normalizing the
//! machines against each other through the `calibration/spin` entry.
//!
//! The headline metric is the **combination engine**: the lazy
//! dominance-pruned enumerator vs the retained materialized reference,
//! on the Definition 9 classification stage of `overload-heavy` stress
//! systems (the packing solve downstream is engine-independent work and
//! would only dilute the comparison).

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_api::{Json, Session};
use twca_chains::{
    busy_times, latency_analysis, typical_slack, AnalysisCache, AnalysisContext, AnalysisOptions,
    CombinationSet, DmmSweep, OverloadMode, PreparedCombinations, SolverMode,
};
use twca_dist::DistributedSystemBuilder;
use twca_gen::{
    random_distributed, random_stress_system, wide_throughput_system, RandomDistConfig,
    StressProfile,
};
use twca_model::{case_study, ChainId, ChainKind, System, SystemBuilder};
use twca_sim::{SimArena, SimEngineMode, Simulation, TraceSet};

/// Knobs of one runner invocation.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Seed of every generated workload.
    pub seed: u64,
    /// Fewer timed passes per benchmark (the CI smoke setting). The
    /// *workloads* are identical in both modes, so quick runs remain
    /// directly comparable against a full-mode committed baseline.
    pub quick: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            seed: 42,
            quick: false,
        }
    }
}

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Stable identifier (`group/variant`).
    pub id: String,
    /// Best (minimum) wall time of one workload pass, in nanoseconds —
    /// the noise-robust estimator on shared machines: scheduling and
    /// cache interference only ever add time.
    pub best_ns: u64,
    /// Number of timed passes the minimum was taken over.
    pub samples: usize,
}

/// The full report `twca bench` renders and CI diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Whether the quick (CI) sample counts were used (the workloads
    /// themselves are identical either way).
    pub quick: bool,
    /// Every measured benchmark.
    pub entries: Vec<BenchEntry>,
    /// Materialized-vs-lazy best-time ratio on the `overload-heavy`
    /// combination-engine stage (> 1 means the lazy engine is faster).
    /// Zero in reports of suites that do not measure it.
    pub overload_heavy_speedup: f64,
    /// Sustained throughput of the `service_saturation` workload
    /// (service suite only; the regression gate runs on the
    /// `service_saturation/*_ns` entries, this is the headline number).
    pub service_requests_per_sec: Option<f64>,
}

impl BenchReport {
    /// The entry with the given id, if measured.
    pub fn entry(&self, id: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// The `slow / fast` best-time ratio between two measured entries
    /// (`> 1` means `fast` is faster), when both exist.
    pub fn speedup(&self, fast: &str, slow: &str) -> Option<f64> {
        let fast_ns = self.entry(fast)?.best_ns.max(1);
        let slow_ns = self.entry(slow)?.best_ns;
        Some(slow_ns as f64 / fast_ns as f64)
    }

    /// Renders the wire/artifact form (`BENCH_combinations.json`).
    pub fn to_json(&self) -> Json {
        let mut json = Json::Object(vec![
            ("schema".to_owned(), Json::UInt(1)),
            ("seed".to_owned(), Json::UInt(self.seed)),
            ("quick".to_owned(), Json::Bool(self.quick)),
            (
                "benchmarks".to_owned(),
                Json::Array(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Object(vec![
                                ("id".to_owned(), Json::Str(e.id.clone())),
                                ("best_ns".to_owned(), Json::UInt(e.best_ns)),
                                ("samples".to_owned(), Json::UInt(e.samples as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "overload_heavy_speedup".to_owned(),
                Json::Str(format!("{:.2}", self.overload_heavy_speedup)),
            ),
        ]);
        if let Some(rate) = self.service_requests_per_sec {
            if let Json::Object(members) = &mut json {
                members.push((
                    "service_requests_per_sec".to_owned(),
                    Json::Str(format!("{rate:.0}")),
                ));
            }
        }
        json
    }

    /// Parses a report previously rendered by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed field.
    pub fn from_json(value: &Json) -> Result<BenchReport, String> {
        let obj = value.as_object().ok_or("report must be an object")?;
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`"))
        };
        let seed = field("seed")?.as_u64().ok_or("`seed` must be an integer")?;
        let quick = matches!(field("quick")?, Json::Bool(true));
        let speedup: f64 = field("overload_heavy_speedup")?
            .as_str()
            .ok_or("`overload_heavy_speedup` must be a string")?
            .parse()
            .map_err(|_| "`overload_heavy_speedup` must parse as a number")?;
        let service_requests_per_sec = match field("service_requests_per_sec") {
            Err(_) => None,
            Ok(value) => Some(
                value
                    .as_str()
                    .ok_or("`service_requests_per_sec` must be a string")?
                    .parse::<f64>()
                    .map_err(|_| "`service_requests_per_sec` must parse as a number")?,
            ),
        };
        let mut entries = Vec::new();
        let benches = field("benchmarks")?
            .as_array()
            .ok_or("`benchmarks` must be an array")?;
        for bench in benches {
            let bench = bench
                .as_object()
                .ok_or("each benchmark must be an object")?;
            let get = |name: &str| {
                bench
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("benchmark missing `{name}`"))
            };
            entries.push(BenchEntry {
                id: get("id")?
                    .as_str()
                    .ok_or("benchmark `id` must be a string")?
                    .to_owned(),
                best_ns: get("best_ns")?
                    .as_u64()
                    .ok_or("`best_ns` must be an integer")?,
                samples: get("samples")?
                    .as_u64()
                    .ok_or("`samples` must be an integer")? as usize,
            });
        }
        Ok(BenchReport {
            seed,
            quick,
            entries,
            overload_heavy_speedup: speedup,
            service_requests_per_sec,
        })
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench: seed {} ({} workloads)",
            self.seed,
            if self.quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "{:<44} {:>14} {:>8}", "benchmark", "best", "samples");
        for entry in &self.entries {
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>8}",
                entry.id,
                format_ns(entry.best_ns),
                entry.samples
            );
        }
        if self.entry("overload_heavy/combinations/lazy").is_some() {
            let _ = writeln!(
                out,
                "overload-heavy combination engine: lazy is {:.2}x faster than materialized",
                self.overload_heavy_speedup
            );
        }
        if let Some(rate) = self.service_requests_per_sec {
            let _ = writeln!(
                out,
                "service_saturation: {rate:.0} request(s)/sec sustained"
            );
        }
        for (label, fast, slow) in SOLVER_SPEEDUPS {
            if let Some(speedup) = self.speedup(fast, slow) {
                let _ = writeln!(
                    out,
                    "{label}: scheduling-point path is {speedup:.2}x faster than the iterative \
                     reference"
                );
            }
        }
        if let Some(speedup) = self.speedup("sim_throughput/event-queue", "sim_throughput/classic")
        {
            let _ = writeln!(
                out,
                "sim_throughput: event-queue core is {speedup:.2}x faster than the classic engine"
            );
        }
        if let Some(speedup) = self.speedup(
            "delta_reanalysis/one_task_edit",
            "delta_reanalysis/cold_full",
        ) {
            let _ = writeln!(
                out,
                "delta_reanalysis: a one-task edit re-analyzes {speedup:.2}x faster than a cold \
                 full pass"
            );
        }
        out
    }
}

/// The solver-stage speedup pairs reported by [`BenchReport::render`]
/// and gated by [`check_against`]: `(label, fast id, slow id)`.
const SOLVER_SPEEDUPS: [(&str, &str, &str); 4] = [
    (
        "busy_window",
        "busy_window/scheduling-points",
        "busy_window/iterative",
    ),
    (
        "latency_sweep",
        "latency_sweep/scheduling-points",
        "latency_sweep/iterative",
    ),
    (
        "holistic_scaling/linear",
        "holistic_scaling/linear/worklist",
        "holistic_scaling/linear/full-sweeps",
    ),
    (
        "holistic_scaling/star",
        "holistic_scaling/star/worklist",
        "holistic_scaling/star/full-sweeps",
    ),
];

/// Contract floors for the gated speedup pairs: the deep-pipeline
/// worklist must keep ≥ 5x over the full-sweep reference, the
/// busy-window and latency stages ≥ 2x, the event-queue simulation
/// core ≥ 10x jobs/sec over the retained classic chain-scan engine on
/// the wide throughput workload, and memoized delta re-analysis of a
/// one-task WCET edit ≥ 10x over the cold full holistic pass on the
/// 100-resource pipeline. (The star shape is measured and
/// regression-gated per entry, but its headline win is thread fan-out,
/// which single-core CI runners cannot reproduce — no ratio floor
/// there.)
const SPEEDUP_CONTRACTS: [(&str, &str, f64); 5] = [
    (
        "busy_window/scheduling-points",
        "busy_window/iterative",
        2.0,
    ),
    (
        "latency_sweep/scheduling-points",
        "latency_sweep/iterative",
        2.0,
    ),
    (
        "holistic_scaling/linear/worklist",
        "holistic_scaling/linear/full-sweeps",
        5.0,
    ),
    ("sim_throughput/event-queue", "sim_throughput/classic", 10.0),
    (
        "delta_reanalysis/one_task_edit",
        "delta_reanalysis/cold_full",
        10.0,
    ),
];

/// Cap contracts: the first entry must stay within `cap` × the second
/// (the inverse of a speedup floor). Durable `store_put` journaling —
/// render, frame, checksum, `write(2)` — must cost at most 1.5× the
/// in-memory put it shadows, or the durability layer has become the
/// bottleneck of every store-backed deployment.
const OVERHEAD_CAPS: [(&str, &str, f64); 1] =
    [("persist/put_journaled", "persist/put_in_memory", 1.5)];

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Times one workload: runs it `samples` times, returns the minimum
/// pass duration in nanoseconds (interference only ever adds time, so
/// the minimum is the stable estimator on a shared machine).
fn best_ns(samples: usize, mut pass: impl FnMut()) -> u64 {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            pass();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .min()
        .expect("at least one sample")
}

/// The batch-tuned options every workload analyzes under (random stress
/// systems routinely exceed utilization 1; tight divergence limits keep
/// the latency stage from dominating).
fn bench_options() -> AnalysisOptions {
    AnalysisOptions {
        horizon: 2_000_000,
        max_q: 20_000,
        ..AnalysisOptions::default()
    }
}

/// A victim chain plus `overloads` overload chains, each with
/// `segments_per_chain` active segments — the ablation shape shared
/// with `cargo bench ablation_combinations`.
pub fn system_with_overloads(overloads: usize, segments_per_chain: usize) -> System {
    let mut builder = SystemBuilder::new()
        .chain("victim")
        .periodic(1_000)
        .expect("static period")
        .deadline(1_000)
        .kind(ChainKind::Synchronous)
        .task("v1", 50, 10)
        .task("v2", 1, 10)
        .done();
    let mut prio = 100u32;
    for o in 0..overloads {
        let mut cb = builder
            .chain(format!("over_{o}"))
            .sporadic(50_000)
            .expect("static distance")
            .overload();
        for s in 0..segments_per_chain {
            cb = cb.task(format!("o{o}_hi{s}"), prio, 5);
            prio += 1;
            if s + 1 < segments_per_chain {
                cb = cb.task(format!("o{o}_lo{s}"), 0, 1);
            }
        }
        builder = cb.done();
    }
    builder.build().expect("well-formed")
}

/// One prepared Definition 9 site: everything the combination-engine
/// stage needs, with the latency stage precomputed outside the timed
/// region.
struct CombinationSite {
    system: System,
    chain: ChainId,
    k_b: u64,
    slack: i128,
}

/// Collects the Definition 9 sites of a batch of systems.
fn combination_sites(systems: Vec<System>, options: AnalysisOptions) -> Vec<CombinationSite> {
    let mut sites = Vec::new();
    for system in systems {
        let ctx = AnalysisContext::new(&system);
        let mut found = Vec::new();
        for (id, chain) in system.iter() {
            if chain.deadline().is_none() {
                continue;
            }
            let Some(full) = latency_analysis(&ctx, id, OverloadMode::Include, options) else {
                continue;
            };
            let k_b = full.busy_window_activations;
            let slack = typical_slack(&ctx, id, k_b);
            if slack < 0 {
                continue;
            }
            // Keep only sites *both* engines can run: a non-empty
            // combination space whose product stays inside the
            // materialized reference's explicit bound (the lazy engine
            // alone would also handle bigger products, but then there
            // would be nothing to compare against).
            match PreparedCombinations::prepare(&ctx, id, k_b, options) {
                Ok(prepared)
                    if prepared.total_combinations() > 0
                        && prepared.total_combinations() < options.max_combinations as u128 =>
                {
                    found.push((id, k_b, slack));
                }
                _ => {}
            }
        }
        for (chain, k_b, slack) in found {
            sites.push(CombinationSite {
                system: system.clone(),
                chain,
                k_b,
                slack,
            });
        }
    }
    sites
}

/// One lazy-engine pass over the sites: enumerate per-chain options,
/// count the unschedulable set, extract the minimal antichain — the
/// exact classification work `DmmSweep::prepare` performs.
fn lazy_pass(sites: &[CombinationSite], options: AnalysisOptions) -> u128 {
    let mut acc: u128 = 0;
    for site in sites {
        let ctx = AnalysisContext::new(&site.system);
        let prepared = PreparedCombinations::prepare(&ctx, site.chain, site.k_b, options)
            .expect("sites were prevalidated");
        acc = acc.wrapping_add(prepared.count_unschedulable(site.slack));
        acc = acc.wrapping_add(prepared.minimal_unschedulable(site.slack).len() as u128);
    }
    acc
}

/// One materialized-reference pass: the full Definition 9 product, the
/// slack filter, and the dominance reduction its raw item list forces
/// on the packing layer downstream.
fn materialized_pass(sites: &[CombinationSite], options: AnalysisOptions) -> u128 {
    let mut acc: u128 = 0;
    for site in sites {
        let ctx = AnalysisContext::new(&site.system);
        let set =
            CombinationSet::enumerate(&ctx, site.chain, options).expect("sites were prevalidated");
        let multipliers = set.window_multipliers(&ctx, site.chain, site.k_b);
        let items: Vec<Vec<usize>> = set
            .unschedulable_scaled(site.slack, &multipliers)
            .map(|c| c.members.clone())
            .collect();
        let n = items.len();
        let is_subset = |a: &[usize], b: &[usize]| a.iter().all(|r| b.binary_search(r).is_ok());
        let minimal = (0..n)
            .filter(|&i| {
                !(0..n).any(|j| {
                    j != i
                        && is_subset(&items[j], &items[i])
                        && (items[j].len() < items[i].len() || j < i)
                })
            })
            .count();
        acc = acc.wrapping_add(n as u128).wrapping_add(minimal as u128);
    }
    acc
}

/// Forces a busy-window solver onto shared options.
fn with_solver(options: AnalysisOptions, solver: SolverMode) -> AnalysisOptions {
    AnalysisOptions { solver, ..options }
}

/// One busy-window pass: the Theorem 1 ladder `B(1..=48)` for every
/// chain of every context, full worst-case mode — the innermost stage
/// of every latency query, in the ladder form all consumers (window
/// search, miss models, weakly-hard checks) invoke it.
fn busy_window_pass(ctxs: &[AnalysisContext<'_>], options: AnalysisOptions) -> u64 {
    let mut acc = 0u64;
    for ctx in ctxs {
        for (id, _) in ctx.system().iter() {
            for busy in busy_times(ctx, id, 48, OverloadMode::Include, options)
                .into_iter()
                .flatten()
            {
                acc = acc.wrapping_add(busy);
            }
        }
    }
    acc
}

/// One latency-sweep pass: whole Theorem 2 analyses (full and typical
/// mode) for every chain of every context — the per-resource unit of
/// the batch and holistic pipelines.
fn latency_sweep_pass(ctxs: &[AnalysisContext<'_>], options: AnalysisOptions) -> u64 {
    let mut acc = 0u64;
    for ctx in ctxs {
        for (id, _) in ctx.system().iter() {
            for mode in [OverloadMode::Include, OverloadMode::Exclude] {
                if let Some(r) = latency_analysis(ctx, id, mode, options) {
                    acc = acc.wrapping_add(r.worst_case_latency);
                }
            }
        }
    }
    acc
}

/// The first seed whose generated distributed system converges under
/// both holistic drivers (so the timed workload measures fixed points,
/// not error paths), together with the system.
fn convergent_distributed(
    seed: u64,
    config: &RandomDistConfig,
    options: twca_dist::DistOptions,
) -> twca_dist::DistributedSystem {
    let mut iterative = options;
    iterative.chain_options.solver = SolverMode::Iterative;
    for attempt in 0..512u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt));
        let dist = random_distributed(&mut rng, config).expect("built-in topology");
        if twca_dist::analyze(&dist, options).is_ok()
            && twca_dist::analyze(&dist, iterative).is_ok()
        {
            return dist;
        }
    }
    panic!("no convergent distributed workload within 512 seeds");
}

/// Runs the whole suite.
pub fn run_bench(config: &BenchConfig) -> BenchReport {
    let samples = if config.quick { 7 } else { 11 };
    let options = bench_options();
    let mut entries = Vec::new();

    // Machine-speed calibration, used by `check_against` to normalize
    // baselines recorded on other machines. Deliberately shaped like
    // the real benchmarks — allocation plus a data-dependent memory
    // walk — so cache/memory contention moves it the same way it moves
    // them (a pure ALU spin would not).
    entries.push(calibration_entry(samples));

    // Ablation grid: the synthetic shapes of `cargo bench
    // ablation_combinations`, classification stage only.
    for (overloads, segments) in [(2usize, 4usize), (4, 4)] {
        let sites = combination_sites(vec![system_with_overloads(overloads, segments)], options);
        // Micro workloads repeat per pass so a pass is long enough for
        // the 1.5x regression gate to be noise-immune.
        let id = format!("ablation_combinations/{overloads}x{segments}");
        entries.push(BenchEntry {
            id: format!("{id}/lazy"),
            best_ns: best_ns(samples, || {
                for _ in 0..50 {
                    std::hint::black_box(lazy_pass(&sites, options));
                }
            }),
            samples,
        });
        entries.push(BenchEntry {
            id: format!("{id}/materialized"),
            best_ns: best_ns(samples, || {
                for _ in 0..50 {
                    std::hint::black_box(materialized_pass(&sites, options));
                }
            }),
            samples,
        });
    }

    // The headline: the combination-engine stage on overload-heavy
    // stress systems.
    let count = 48;
    let systems: Vec<System> = (0..count)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(i));
            random_stress_system(&mut rng, StressProfile::OverloadHeavy).expect("built-in profile")
        })
        .collect();
    let sites = combination_sites(systems, options);
    let check_lazy = lazy_pass(&sites, options);
    let check_mat = materialized_pass(&sites, options);
    assert_eq!(
        check_lazy, check_mat,
        "the engines disagreed on the bench workload"
    );
    let lazy_ns = best_ns(samples, || {
        std::hint::black_box(lazy_pass(&sites, options));
    });
    let mat_ns = best_ns(samples, || {
        std::hint::black_box(materialized_pass(&sites, options));
    });
    entries.push(BenchEntry {
        id: "overload_heavy/combinations/lazy".to_owned(),
        best_ns: lazy_ns,
        samples,
    });
    entries.push(BenchEntry {
        id: "overload_heavy/combinations/materialized".to_owned(),
        best_ns: mat_ns,
        samples,
    });
    let overload_heavy_speedup = mat_ns as f64 / lazy_ns.max(1) as f64;

    // Table II reproduction: the case-study dmm curve, full pipeline.
    entries.push(BenchEntry {
        id: "table2_dmm".to_owned(),
        best_ns: best_ns(samples, || {
            for _ in 0..50 {
                let system = case_study();
                let ctx = AnalysisContext::new(&system);
                let (c, _) = system.chain_by_name("sigma_c").expect("case-study chain");
                let sweep =
                    DmmSweep::prepare(&ctx, c, AnalysisOptions::default()).expect("case study");
                std::hint::black_box(sweep.curve([1, 3, 10, 76, 250]));
            }
        }),
        samples,
    });

    // Batch engine throughput on one worker: the `twca batch` hot path
    // with the thread fan-out pinned to 1 so the single-threaded
    // calibration entry can normalize it across machines with different
    // core counts (parallel scaling itself is criterion's
    // `engine_scaling` bench, not a regression-gated number).
    let batch: Vec<System> = {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        (0..16)
            .map(|_| {
                random_stress_system(&mut rng, StressProfile::Baseline).expect("built-in profile")
            })
            .collect()
    };
    entries.push(BenchEntry {
        id: "engine_scaling".to_owned(),
        best_ns: best_ns(samples, || {
            for _ in 0..5 {
                let session = Session::new().with_options(options);
                let engine = twca_engine::BatchEngine::from_session(session)
                    .with_ks([1, 10, 100])
                    .with_threads(1);
                std::hint::black_box(engine.run(batch.clone()));
            }
        }),
        samples,
    });

    // Busy-window and latency-sweep solver comparison: the Theorem 1/2
    // stages on high-utilization and bursty stress systems (long busy
    // windows, expensive arrival curves), identical workloads per
    // solver. Contexts are prebuilt — both solvers share the segment
    // views; the scheduling-point side additionally amortizes its
    // interference plans across the passes, which is exactly the
    // production shape (one context, many queries).
    let stress_batch = |offset: u64, profiles: [StressProfile; 2]| -> Vec<System> {
        (0..24)
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(offset + i));
                let profile = profiles[(i % 2) as usize];
                random_stress_system(&mut rng, profile).expect("built-in profile")
            })
            .collect()
    };
    let jump = with_solver(options, SolverMode::SchedulingPoints);
    let iterative = with_solver(options, SolverMode::Iterative);

    // Busy-window ladders on convergence-friendly profiles (baseline +
    // bursty): divergent chains cost one identical horizon-bounded solve
    // under either solver, so they only dilute the comparison — the
    // warm-started rungs on *closing* windows are the contested work.
    let busy_systems = stress_batch(1_000, [StressProfile::Baseline, StressProfile::Bursty]);
    let busy_ctxs: Vec<AnalysisContext<'_>> =
        busy_systems.iter().map(AnalysisContext::new).collect();
    assert_eq!(
        busy_window_pass(&busy_ctxs, jump),
        busy_window_pass(&busy_ctxs, iterative),
        "the busy-window solvers disagreed on the bench workload"
    );
    // Whole latency analyses on the heavy profiles (high-utilization +
    // bursty): long busy windows, large `K_b`, expensive arrival curves.
    let latency_systems = stress_batch(
        1_100,
        [StressProfile::HighUtilization, StressProfile::Bursty],
    );
    let latency_ctxs: Vec<AnalysisContext<'_>> =
        latency_systems.iter().map(AnalysisContext::new).collect();
    assert_eq!(
        latency_sweep_pass(&latency_ctxs, jump),
        latency_sweep_pass(&latency_ctxs, iterative),
        "the latency solvers disagreed on the bench workload"
    );
    for (id, solver_options) in [("scheduling-points", jump), ("iterative", iterative)] {
        entries.push(BenchEntry {
            id: format!("busy_window/{id}"),
            best_ns: best_ns(samples, || {
                std::hint::black_box(busy_window_pass(&busy_ctxs, solver_options));
            }),
            samples,
        });
        entries.push(BenchEntry {
            id: format!("latency_sweep/{id}"),
            best_ns: best_ns(samples, || {
                std::hint::black_box(latency_sweep_pass(&latency_ctxs, solver_options));
            }),
            samples,
        });
    }

    // Holistic scaling: the incremental worklist vs the full-sweep
    // reference on the two topologies the worklist exists for — a deep
    // linear pipeline (jitter crosses one hop per sweep, so the frontier
    // is one resource) and a wide star (the ready set fans out).
    let dist_options = twca_dist::DistOptions {
        chain_options: jump,
        ..twca_dist::DistOptions::default()
    };
    let mut dist_iterative = dist_options;
    dist_iterative.chain_options = iterative;
    // Bursty per-resource systems: long busy windows with expensive
    // arrival curves, the production-shaped load where both the
    // worklist and the scheduling-point chain solver earn their keep
    // (baseline-profile resources are so cheap that per-sweep
    // bookkeeping dominates either driver).
    for (shape, dist_config) in [
        (
            "linear",
            RandomDistConfig::deep_pipeline(10, StressProfile::Bursty),
        ),
        (
            "star",
            RandomDistConfig::wide_star(10, StressProfile::Bursty),
        ),
    ] {
        let dist =
            convergent_distributed(config.seed.wrapping_add(2_000), &dist_config, dist_options);
        let worklist = twca_dist::analyze(&dist, dist_options).expect("prevalidated");
        let reference = twca_dist::analyze(&dist, dist_iterative).expect("prevalidated");
        assert_eq!(
            (
                worklist.sweeps(),
                dist.sites()
                    .map(|s| worklist.worst_case_latency(s))
                    .collect::<Vec<_>>()
            ),
            (
                reference.sweeps(),
                dist.sites()
                    .map(|s| reference.worst_case_latency(s))
                    .collect::<Vec<_>>()
            ),
            "the holistic drivers disagreed on the {shape} bench workload"
        );
        entries.push(BenchEntry {
            id: format!("holistic_scaling/{shape}/worklist"),
            best_ns: best_ns(samples, || {
                std::hint::black_box(
                    twca_dist::analyze(&dist, dist_options).expect("prevalidated"),
                );
            }),
            samples,
        });
        entries.push(BenchEntry {
            id: format!("holistic_scaling/{shape}/full-sweeps"),
            best_ns: best_ns(samples, || {
                std::hint::black_box(
                    twca_dist::analyze(&dist, dist_iterative).expect("prevalidated"),
                );
            }),
            samples,
        });
    }

    // Simulation throughput: one whole-trace pass of the wide
    // high-event-rate workload through each core. The event-queue side
    // reuses one arena across passes — the production Monte Carlo shape,
    // and the zero-allocation claim under test — while the classic
    // chain-scan engine is the retained differential baseline the 10x
    // contract is measured against.
    let sim_system = wide_throughput_system(512);
    let sim_traces = TraceSet::max_rate(&sim_system, 100_000);
    let sim = Simulation::new(&sim_system);
    let mut arena = SimArena::default();
    assert_eq!(
        sim.run_in_arena(&sim_traces, &mut arena),
        sim.clone()
            .with_engine(SimEngineMode::Classic)
            .run(&sim_traces),
        "the simulation engines disagreed on the bench workload"
    );
    entries.push(BenchEntry {
        id: "sim_throughput/event-queue".to_owned(),
        best_ns: best_ns(samples, || {
            std::hint::black_box(sim.run_in_arena(&sim_traces, &mut arena));
        }),
        samples,
    });
    let classic = sim.clone().with_engine(SimEngineMode::Classic);
    entries.push(BenchEntry {
        id: "sim_throughput/classic".to_owned(),
        best_ns: best_ns(samples, || {
            std::hint::black_box(classic.run(&sim_traces));
        }),
        samples,
    });

    BenchReport {
        seed: config.seed,
        quick: config.quick,
        entries,
        overload_heavy_speedup,
        service_requests_per_sec: None,
    }
}

/// The machine-speed calibration entry shared by every suite;
/// see the comment in [`run_bench`] for why it is memory-shaped.
fn calibration_entry(samples: usize) -> BenchEntry {
    BenchEntry {
        id: "calibration/spin".to_owned(),
        best_ns: best_ns(samples, || {
            let mut x: u64 = 0x9E37_79B9;
            let mut table: Vec<u64> = Vec::with_capacity(1 << 16);
            for i in 0..(1u64 << 16) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                table.push(x);
            }
            let mut acc = 0u64;
            let mut at = 0usize;
            for _ in 0..2_000_000u64 {
                let v = table[at];
                acc = acc.wrapping_add(v);
                at = (v as usize) & ((1 << 16) - 1);
            }
            std::hint::black_box((acc, table));
        }),
        samples,
    }
}

/// Runs the `service_saturation` workload of the `--suite service`
/// bench: an in-process [`twca_service::TcpServer`] saturated by the
/// load generator with 10 000 concurrent request streams (one request
/// each) over 32 connections. Every run must be clean — zero analysis
/// errors, zero `overloaded` rejections, zero lost responses — or the
/// suite panics; the report carries sustained requests/sec plus
/// p50/p95/p99 tail latency as regression-gated entries.
pub fn run_service_bench(config: &BenchConfig) -> BenchReport {
    let samples = if config.quick { 2 } else { 3 };
    let load = twca_service::LoadgenConfig {
        streams: 10_000,
        requests_per_stream: 1,
        connections: 32,
        mix: twca_service::RequestMix::Mixed,
        seed: config.seed,
        ..twca_service::LoadgenConfig::default()
    };
    service_bench(config, &load, samples)
}

fn service_bench(
    config: &BenchConfig,
    load: &twca_service::LoadgenConfig,
    samples: usize,
) -> BenchReport {
    use std::time::Duration;

    let mut entries = vec![calibration_entry(samples)];
    let service_config = twca_service::ServiceConfig {
        workers: 2,
        // Roomy enough that a clean run never trips admission control:
        // saturation measures throughput, not the rejection path.
        queue_capacity: (load.streams * load.requests_per_stream).max(1024),
        deadline: None,
        max_frame_bytes: 1 << 20,
        // The acceptance bar is measured with the production edge
        // hardening armed: generous timeouts that a healthy loadgen
        // never trips, but the reaping machinery is live.
        read_timeout: Some(Duration::from_secs(5)),
        idle_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(5)),
        write_buffer_bytes: 4 << 20,
    };
    let total_requests = (load.streams * load.requests_per_stream) as u64;
    let mut best_elapsed_ns = u64::MAX;
    let mut best_rate = 0.0f64;
    let mut p50 = u64::MAX;
    let mut p95 = u64::MAX;
    let mut p99 = u64::MAX;
    for _ in 0..samples.max(1) {
        let server = twca_service::TcpServer::start(
            "127.0.0.1:0",
            Session::new().with_options(bench_options()),
            &service_config,
        )
        .expect("loopback bind");
        let report =
            twca_service::run_loadgen(server.local_addr(), load).expect("loopback connect");
        let summary = server.shutdown(Duration::from_secs(120));
        assert_eq!(
            report.ok,
            total_requests,
            "the saturation run must be clean:\n{}",
            report.render()
        );
        assert_eq!(summary.errors, 0, "the server saw errors under saturation");
        let elapsed_ns = u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX);
        if elapsed_ns < best_elapsed_ns {
            best_elapsed_ns = elapsed_ns;
            best_rate = report.requests_per_sec();
        }
        // Per-percentile minima across runs, the same noise-robust
        // estimator as `best_ns`.
        p50 = p50.min(report.percentile_ns(0.50));
        p95 = p95.min(report.percentile_ns(0.95));
        p99 = p99.min(report.percentile_ns(0.99));
    }
    entries.push(BenchEntry {
        id: "service_saturation/wall_per_request_ns".to_owned(),
        best_ns: best_elapsed_ns / total_requests.max(1),
        samples,
    });
    for (id, ns) in [
        ("service_saturation/p50_ns", p50),
        ("service_saturation/p95_ns", p95),
        ("service_saturation/p99_ns", p99),
    ] {
        entries.push(BenchEntry {
            id: id.to_owned(),
            best_ns: ns,
            samples,
        });
    }
    BenchReport {
        seed: config.seed,
        quick: config.quick,
        entries,
        overload_heavy_speedup: 0.0,
        service_requests_per_sec: Some(best_rate),
    }
}

/// The delta-suite workload: a `resources`-deep linear pipeline whose
/// per-resource systems carry enough chains that holistic re-analysis
/// of one resource costs real solver work (so memo hits measurably
/// beat re-analysis), with the *tail* stage's first task at
/// `tail_wcet` — the single knob the one-task-edit benchmark turns.
fn delta_pipeline(resources: usize, tail_wcet: u64) -> twca_dist::DistributedSystem {
    let mut builder = DistributedSystemBuilder::new();
    for i in 0..resources {
        let wcet = if i + 1 == resources { tail_wcet } else { 60 };
        // The linked `flow` chain runs at top priority so its response
        // jitter stays small and bounded down the 100 hops; the
        // unlinked local chains push per-resource utilization to ~0.99
        // so busy windows span dozens of activations and one holistic
        // row costs real ladder work — the regime where a memo hit
        // (one fingerprint hash) pays off.
        let system = SystemBuilder::new()
            .chain("flow")
            .periodic(1_000)
            .expect("static period")
            .deadline(1_000)
            .kind(ChainKind::Synchronous)
            .task("ingest", 100, wcet)
            .task("emit", 90, 40)
            .done()
            .chain("telemetry")
            .periodic(400)
            .expect("static period")
            .deadline(400)
            .kind(ChainKind::Asynchronous)
            .task("sample", 30, 90)
            .task("pack", 20, 55)
            .done()
            .chain("housekeeping")
            .sporadic(1_000)
            .expect("static distance")
            .task("scrub", 5, 535)
            .done()
            .build()
            .expect("well-formed pipeline stage");
        builder = builder.resource(format!("r{i}"), system);
    }
    for i in 0..resources.saturating_sub(1) {
        builder = builder.link((format!("r{i}"), "flow"), (format!("r{}", i + 1), "flow"));
    }
    builder.build().expect("well-formed pipeline")
}

/// Runs the `--suite delta` workload: memoized holistic re-analysis
/// after a one-task WCET edit on the 100-resource pipeline, against
/// the cold full fixed point on the same edited system. The warm side
/// takes a fresh [`AnalysisCache`] warmed on the pre-edit system per
/// pass, so every timed pass is a genuine first re-analysis (not an
/// all-hit replay), and the suite asserts the delta results are
/// bit-identical to the from-scratch ones before timing anything.
pub fn run_delta_bench(config: &BenchConfig) -> BenchReport {
    use twca_dist::analyze_with_memo;

    let samples = if config.quick { 5 } else { 9 };
    let options = twca_dist::DistOptions {
        chain_options: with_solver(bench_options(), SolverMode::SchedulingPoints),
        ..twca_dist::DistOptions::default()
    };
    let base = delta_pipeline(100, 60);
    let edited = delta_pipeline(100, 61);
    // The state a store holds when the edit arrives.
    let warmed = || {
        let cache = AnalysisCache::new();
        analyze_with_memo(&base, options, &cache).expect("pipeline converges");
        cache
    };
    let (fresh, fresh_report) =
        analyze_with_memo(&edited, options, &AnalysisCache::new()).expect("pipeline converges");
    let (delta, delta_report) =
        analyze_with_memo(&edited, options, &warmed()).expect("pipeline converges");
    assert_eq!(
        edited
            .sites()
            .map(|s| delta.worst_case_latency(s))
            .collect::<Vec<_>>(),
        edited
            .sites()
            .map(|s| fresh.worst_case_latency(s))
            .collect::<Vec<_>>(),
        "delta re-analysis diverged from the from-scratch fixed point"
    );
    assert!(
        delta_report.rows_analyzed < fresh_report.rows_analyzed,
        "the one-task edit re-analyzed {} rows, no fewer than the {} cold ones",
        delta_report.rows_analyzed,
        fresh_report.rows_analyzed
    );
    assert!(
        delta_report.memo_hits > 0,
        "the warm memo produced no hits on the unchanged resources"
    );

    let mut entries = vec![calibration_entry(samples)];
    entries.push(BenchEntry {
        id: "delta_reanalysis/cold_full".to_owned(),
        best_ns: best_ns(samples, || {
            let memo = AnalysisCache::new();
            std::hint::black_box(
                analyze_with_memo(&edited, options, &memo).expect("pipeline converges"),
            );
        }),
        samples,
    });
    // One warmed cache per pass, built untimed: each timed pass replays
    // the production moment — a store holding the old fixed point
    // receives the edit and re-analyzes only what changed.
    let mut warm_caches: Vec<AnalysisCache> = (0..samples).map(|_| warmed()).collect();
    entries.push(BenchEntry {
        id: "delta_reanalysis/one_task_edit".to_owned(),
        best_ns: best_ns(samples, || {
            let memo = warm_caches.pop().expect("one warmed cache per sample");
            std::hint::black_box(
                analyze_with_memo(&edited, options, &memo).expect("pipeline converges"),
            );
        }),
        samples,
    });
    BenchReport {
        seed: config.seed,
        quick: config.quick,
        entries,
        overload_heavy_speedup: 0.0,
        service_requests_per_sec: None,
    }
}

/// The `--suite persist` put workload: `versions` distinct revisions
/// of a mid-size chain system (stepped WCETs so every put carries a
/// real diff), as DSL text — the timed passes parse it per put, the
/// way every wire `store_put` does. Every body round-trips the
/// persistent DSL format by construction.
fn persist_texts(versions: usize) -> Vec<String> {
    (0..versions)
        .map(|step| {
            let mut text = String::new();
            for chain in 0..6 {
                text.push_str(&format!(
                    "chain c{chain} periodic={} deadline={} {{\n",
                    100 + 10 * chain,
                    100 + 10 * chain
                ));
                for task in 0..5 {
                    text.push_str(&format!(
                        "  task c{chain}t{task} prio={} wcet={}\n",
                        1 + chain * 5 + task,
                        3 + (step + chain + task) % 7
                    ));
                }
                text.push_str("}\n");
            }
            text
        })
        .collect()
}

/// Runs the `--suite persist` durability workloads behind
/// `BENCH_persist.json`:
///
/// * `persist/put_in_memory` — 64 `store_put`s (two names, stepped
///   bodies, DSL parse included exactly as on the wire path) on a
///   plain in-memory [`twca_api::SystemStore`];
/// * `persist/put_journaled` — the same 64 puts on a durable store
///   over a real directory ([`twca_api::DirIo`]), journal appends
///   only (no per-put fsync, no snapshot) so the delta over the
///   in-memory entry is the render + frame + checksum + `write(2)`
///   cost the journal adds per put — the pair is gated by the 1.5×
///   overhead cap in [`check_against`];
/// * `persist/recovery` — reopening the store from a 64-record
///   journal (cold replay, no snapshot), the restart-latency number.
///
/// Before timing anything the recovery path is checked: the reopened
/// store must report both entries at version 32.
pub fn run_persist_bench(config: &BenchConfig) -> BenchReport {
    use std::sync::Arc;
    use twca_api::{DirIo, PersistPolicy, SystemStore};

    let samples = if config.quick { 5 } else { 9 };
    const PUTS: usize = 64;
    // Appends only: fsync cadence is a deployment policy measuring
    // disk hardware, not suite code, and would swamp the append cost
    // this suite gates.
    let policy = PersistPolicy {
        snapshot_every: 0,
        sync_every: 0,
    };
    let texts = persist_texts(PUTS);
    let scratch = std::env::temp_dir().join(format!("twca-bench-persist-{}", std::process::id()));
    let run_puts = |store: &SystemStore| {
        for (i, text) in texts.iter().enumerate() {
            let name = if i % 2 == 0 { "alpha" } else { "beta" };
            let body = twca_api::StoredBody::Uni(
                twca_model::parse_system(text).expect("persist bench body parses"),
            );
            store.put(name, body).expect("bench put succeeds");
        }
    };

    // Sanity before timing: a journal written by this workload must
    // recover to the exact final state.
    let check_dir = scratch.join("check");
    let (seed_store, _) = SystemStore::durable(
        Arc::new(DirIo::open(&check_dir).expect("temp store dir opens")),
        policy,
    )
    .expect("fresh durable store opens");
    run_puts(&seed_store);
    drop(seed_store);
    let (reopened, report) = SystemStore::durable(
        Arc::new(DirIo::open(&check_dir).expect("temp store dir reopens")),
        policy,
    )
    .expect("journal recovers");
    assert_eq!(
        report.replayed, PUTS as u64,
        "recovery replayed {} of the {PUTS} journaled puts",
        report.replayed
    );
    let versions: Vec<(String, u64)> = reopened
        .export()
        .into_iter()
        .map(|(name, version, _)| (name, version))
        .collect();
    assert_eq!(
        versions,
        vec![
            ("alpha".to_owned(), PUTS as u64 / 2),
            ("beta".to_owned(), PUTS as u64 / 2)
        ],
        "recovered store diverged from the put sequence"
    );
    drop(reopened);

    let mut entries = vec![calibration_entry(samples)];
    entries.push(BenchEntry {
        id: "persist/put_in_memory".to_owned(),
        best_ns: best_ns(samples, || {
            let store = SystemStore::new();
            run_puts(&store);
            std::hint::black_box(store.names());
        }),
        samples,
    });
    // One pre-opened store per pass: directory setup is not the
    // workload, the 64 journaled puts are.
    let mut fresh: Vec<SystemStore> = (0..samples)
        .map(|pass| {
            let dir = scratch.join(format!("puts-{pass}"));
            let (store, _) = SystemStore::durable(
                Arc::new(DirIo::open(dir).expect("temp store dir opens")),
                policy,
            )
            .expect("fresh durable store opens");
            store
        })
        .collect();
    entries.push(BenchEntry {
        id: "persist/put_journaled".to_owned(),
        best_ns: best_ns(samples, || {
            let store = fresh.pop().expect("one store per sample");
            run_puts(&store);
            std::hint::black_box(store.persist_stats().journal_bytes);
        }),
        samples,
    });
    // Recovery re-reads the same 64-record journal every pass (replay
    // never mutates a journal with no torn tail).
    entries.push(BenchEntry {
        id: "persist/recovery".to_owned(),
        best_ns: best_ns(samples, || {
            let io = Arc::new(DirIo::open(&check_dir).expect("temp store dir reopens"));
            let (store, report) = SystemStore::durable(io, policy).expect("journal recovers");
            std::hint::black_box((store.names(), report));
        }),
        samples,
    });
    let _ = std::fs::remove_dir_all(&scratch);
    BenchReport {
        seed: config.seed,
        quick: config.quick,
        entries,
        overload_heavy_speedup: 0.0,
        service_requests_per_sec: None,
    }
}

/// Compares a fresh report against a committed baseline.
///
/// Both reports must have been measured on the same seed (different
/// seeds mean different workloads — comparing them validates nothing).
/// Best-of-N times are normalized by the two reports'
/// `calibration/spin` entries (so a baseline recorded on a faster
/// machine does not fail CI spuriously), then every shared benchmark id
/// must stay within `tolerance` × baseline; the overload-heavy speedup
/// must not collapse below `baseline / tolerance` and must keep the
/// ≥ 5× contract. Returns the list of regressions (empty = pass).
pub fn check_against(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    if current.seed != baseline.seed {
        regressions.push(format!(
            "seed mismatch: measured {} vs baseline {} — different seeds are different \
             workloads, nothing below is comparable",
            current.seed, baseline.seed
        ));
        return regressions;
    }
    let scale = match (
        current.entry("calibration/spin"),
        baseline.entry("calibration/spin"),
    ) {
        (Some(c), Some(b)) if b.best_ns > 0 => c.best_ns as f64 / b.best_ns as f64,
        _ => 1.0,
    };
    for entry in &baseline.entries {
        if entry.id == "calibration/spin" {
            continue;
        }
        let Some(current_entry) = current.entry(&entry.id) else {
            regressions.push(format!("benchmark `{}` disappeared", entry.id));
            continue;
        };
        let allowed = entry.best_ns as f64 * scale * tolerance;
        if current_entry.best_ns as f64 > allowed {
            regressions.push(format!(
                "`{}` regressed: {} vs allowed {} (baseline {} × machine scale {:.2} × \
                 tolerance {tolerance})",
                entry.id,
                format_ns(current_entry.best_ns),
                format_ns(allowed as u64),
                format_ns(entry.best_ns),
                scale,
            ));
        }
    }
    // The overload-heavy contract only applies to reports that measured
    // it (the service suite, say, has no combination-engine entries).
    if baseline.entry("overload_heavy/combinations/lazy").is_some() {
        if current.overload_heavy_speedup < baseline.overload_heavy_speedup / tolerance {
            regressions.push(format!(
                "overload-heavy speedup collapsed: {:.2}x vs baseline {:.2}x",
                current.overload_heavy_speedup, baseline.overload_heavy_speedup
            ));
        }
        if current.overload_heavy_speedup < 5.0 {
            regressions.push(format!(
                "overload-heavy speedup below the 5x contract: {:.2}x",
                current.overload_heavy_speedup
            ));
        }
    }
    for (fast, slow, floor) in SPEEDUP_CONTRACTS {
        if let Some(speedup) = current.speedup(fast, slow) {
            if speedup < floor {
                regressions.push(format!(
                    "`{fast}` speedup below its {floor}x contract: {speedup:.2}x vs `{slow}`"
                ));
            }
        }
    }
    for (capped, base, cap) in OVERHEAD_CAPS {
        // speedup(base, capped) is capped_ns / base_ns — the overhead.
        if let Some(overhead) = current.speedup(base, capped) {
            if overhead > cap {
                regressions.push(format!(
                    "`{capped}` overhead above its {cap}x cap: {overhead:.2}x vs `{base}`"
                ));
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            seed: 7,
            quick: true,
            entries: vec![
                BenchEntry {
                    id: "calibration/spin".into(),
                    best_ns: 1_000,
                    samples: 3,
                },
                BenchEntry {
                    id: "x/y".into(),
                    best_ns: 42,
                    samples: 3,
                },
            ],
            overload_heavy_speedup: 12.5,
            service_requests_per_sec: None,
        };
        let json = report.to_json().to_string();
        let reparsed = BenchReport::from_json(&Json::parse(&json).expect("valid json"))
            .expect("well-formed report");
        assert_eq!(reparsed, report);
        assert!(report.render().contains("x/y"));
    }

    #[test]
    fn regression_check_scales_by_calibration_and_flags_slowdowns() {
        let mk = |spin: u64, work: u64, speedup: f64| BenchReport {
            seed: 1,
            quick: true,
            entries: vec![
                BenchEntry {
                    id: "calibration/spin".into(),
                    best_ns: spin,
                    samples: 3,
                },
                BenchEntry {
                    id: "work".into(),
                    best_ns: work,
                    samples: 3,
                },
                // Present so the overload-heavy speedup contract applies.
                BenchEntry {
                    id: "overload_heavy/combinations/lazy".into(),
                    best_ns: work,
                    samples: 3,
                },
            ],
            overload_heavy_speedup: speedup,
            service_requests_per_sec: None,
        };
        let baseline = mk(1_000, 10_000, 50.0);
        // Twice-slower machine, work scaled accordingly: clean.
        assert!(check_against(&mk(2_000, 20_000, 50.0), &baseline, 1.5).is_empty());
        // Same machine, work 2x slower: regression.
        assert!(!check_against(&mk(1_000, 20_001, 50.0), &baseline, 1.5).is_empty());
        // Speedup collapse and sub-contract speedups are caught.
        assert!(!check_against(&mk(1_000, 10_000, 20.0), &baseline, 1.5).is_empty());
        assert!(!check_against(&mk(1_000, 10_000, 4.0), &baseline, 1.5).is_empty());
    }

    #[test]
    fn overhead_cap_flags_expensive_journaling() {
        let mk = |journaled: u64| BenchReport {
            seed: 1,
            quick: true,
            entries: vec![
                BenchEntry {
                    id: "persist/put_in_memory".into(),
                    best_ns: 10_000,
                    samples: 3,
                },
                BenchEntry {
                    id: "persist/put_journaled".into(),
                    best_ns: journaled,
                    samples: 3,
                },
            ],
            overload_heavy_speedup: 0.0,
            service_requests_per_sec: None,
        };
        let baseline = mk(12_000);
        assert!(check_against(&mk(14_000), &baseline, 1.5).is_empty());
        let flagged = check_against(&mk(16_000), &baseline, 1.5);
        assert!(
            flagged.iter().any(|r| r.contains("1.5x cap")),
            "journal overhead above the cap was not flagged: {flagged:?}"
        );
    }

    #[test]
    fn quick_suite_runs_and_keeps_the_contract() {
        let report = run_bench(&BenchConfig {
            seed: 42,
            quick: true,
        });
        assert!(report.entry("table2_dmm").is_some());
        assert!(report.entry("engine_scaling").is_some());
        assert!(report.entry("overload_heavy/combinations/lazy").is_some());
        // No wall-clock ratio assertions here: this runs unoptimized
        // and time-shared under `cargo test`. run_bench itself asserts
        // the engines *agree* on the workload (deterministic), and the
        // release-mode CI bench step gates the speedup contract.
        assert!(report.overload_heavy_speedup.is_finite());
    }

    #[test]
    fn delta_suite_localizes_the_edit_and_round_trips() {
        let report = run_delta_bench(&BenchConfig {
            seed: 42,
            quick: true,
        });
        for id in [
            "calibration/spin",
            "delta_reanalysis/cold_full",
            "delta_reanalysis/one_task_edit",
        ] {
            assert!(report.entry(id).is_some(), "missing entry `{id}`");
        }
        // No wall-clock ratio floor here (unoptimized, time-shared);
        // run_delta_bench itself asserts the delta pass matches the
        // from-scratch fixed point and analyzed strictly fewer rows.
        // The release-mode CI bench step gates the 10x contract.
        let json = report.to_json().to_string();
        let reparsed =
            BenchReport::from_json(&Json::parse(&json).expect("valid json")).expect("well-formed");
        assert_eq!(reparsed.entries, report.entries);
        // check_against on a delta report may legitimately flag the 10x
        // contract here (unoptimized build), but never a timing
        // regression against its own reparse.
        assert!(check_against(&report, &reparsed, 1.5)
            .iter()
            .all(|r| r.contains("contract")));
        assert!(report.render().contains("delta_reanalysis"));
    }

    #[test]
    fn persist_suite_recovers_its_own_journal_and_round_trips() {
        let report = run_persist_bench(&BenchConfig {
            seed: 42,
            quick: true,
        });
        for id in [
            "calibration/spin",
            "persist/put_in_memory",
            "persist/put_journaled",
            "persist/recovery",
        ] {
            assert!(report.entry(id).is_some(), "missing entry `{id}`");
        }
        let json = report.to_json().to_string();
        let reparsed =
            BenchReport::from_json(&Json::parse(&json).expect("valid json")).expect("well-formed");
        assert_eq!(reparsed.entries, report.entries);
        // No wall-clock cap assertion here (unoptimized, time-shared —
        // the release-mode CI bench step gates the 1.5x overhead cap);
        // run_persist_bench itself asserts the journal recovers to the
        // exact final state. Self-comparison may only ever flag the
        // cap, never a timing regression.
        assert!(check_against(&report, &reparsed, 1.5)
            .iter()
            .all(|r| r.contains("cap")));
        assert!(report.render().contains("persist/recovery"));
    }

    #[test]
    fn service_suite_measures_saturation_and_round_trips() {
        // A scaled-down saturation shape: `cargo test` runs unoptimized,
        // so the committed-baseline 10k-stream shape belongs to the
        // release-mode CI bench step, not here.
        let config = BenchConfig {
            seed: 42,
            quick: true,
        };
        let load = twca_service::LoadgenConfig {
            streams: 40,
            requests_per_stream: 2,
            connections: 8,
            mix: twca_service::RequestMix::Mixed,
            seed: config.seed,
            ..twca_service::LoadgenConfig::default()
        };
        let report = service_bench(&config, &load, 1);
        for id in [
            "calibration/spin",
            "service_saturation/wall_per_request_ns",
            "service_saturation/p50_ns",
            "service_saturation/p95_ns",
            "service_saturation/p99_ns",
        ] {
            assert!(report.entry(id).is_some(), "missing entry `{id}`");
        }
        assert!(report.service_requests_per_sec.unwrap() > 0.0);
        let json = report.to_json().to_string();
        let reparsed =
            BenchReport::from_json(&Json::parse(&json).expect("valid json")).expect("well-formed");
        assert_eq!(reparsed.entries, report.entries);
        assert!(reparsed.service_requests_per_sec.is_some());
        // A service-suite baseline must not demand the combination-engine
        // contract of a service-suite measurement.
        assert!(check_against(&report, &reparsed, 1.5).is_empty());
        assert!(report.render().contains("service_saturation"));
    }
}
