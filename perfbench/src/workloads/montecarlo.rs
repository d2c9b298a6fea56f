//! `montecarlo`: simulate queries through `Session::analyze`.
//!
//! One op asks for a Monte Carlo simulation of the case study and then
//! of a wide, high-event-rate system, each with fixed runs × horizon on
//! one thread (a second busy thread on a shared 2-vCPU host measures
//! the neighbours; the traced run times the fan-out at 1 and 2 threads)
//! and its own seed. Pairing the two keeps every op the same
//! shape, so the op latency has one mode.

use std::time::Instant;

use rand::Rng;
use twca_api::{AnalysisRequest, Query, QueryOutcome, Session, SimulateOutcome};
use twca_chains::{AnalysisContext, AnalysisOptions, DmmSweep};
use twca_gen::wide_throughput_system;
use twca_model::{case_study, parse_system, render_system, System};
use twca_sim::{MonteCarlo, MonteCarloConfig, SimArena, Simulation, TraceSet};

use super::{rng, write_spans, Cpus, SetUps};
use crate::report::Report;
use crate::stats::{ms, us, Fastest, Samples};
use crate::trace::{Tracer, OP};
use crate::Ctx;

const W: &str = "montecarlo";

struct Setup {
    texts: [String; 2],
    systems: [System; 2],
    traces: [TraceSet; 2],
}

fn simulate(text: &str, seed: u64, runs: u64, horizon: u64, threads: u64) -> AnalysisRequest {
    AnalysisRequest::for_system(text).with_query(Query::Simulate {
        chain: None,
        runs,
        horizon,
        seed,
        threads,
    })
}

fn simulated(session: &Session, request: &AnalysisRequest) -> Result<SimulateOutcome, String> {
    match session.analyze(request).outcome {
        Ok(mut outcomes) => match outcomes.pop() {
            Some(QueryOutcome::Simulate(out)) if !out.chains.is_empty() => Ok(out),
            other => Err(format!("simulate answered {other:?}")),
        },
        Err(e) => Err(format!("simulate failed: {e:?}")),
    }
}

/// Monte Carlo of the case study: identical at 1 and 2 threads, and no
/// window of `k` simulated jobs misses more deadlines than `dmm(k)`.
fn check_bounds(ctx: &Ctx, system: &System, report: &mut Report) {
    let spec = &ctx.spec;
    let ks = spec.list(W, "window_ks");
    let config = |threads| MonteCarloConfig {
        runs: spec.param(W, "runs"),
        horizon: spec.param(W, "horizon"),
        seed: ctx.seed,
        threads,
        ks: ks.clone(),
        ..MonteCarloConfig::default()
    };
    let serial = MonteCarlo::new(system, config(1)).run();
    let parallel = MonteCarlo::new(system, config(2)).run();
    report.gate(serial == parallel, || {
        "the Monte Carlo report depends on the thread count".into()
    });
    let analysis = AnalysisContext::new(system);
    for (id, chain) in system.iter() {
        if chain.deadline().is_none() {
            continue;
        }
        let sweep = DmmSweep::prepare(&analysis, id, AnalysisOptions::default())
            .expect("the case study's deadline chains have a dmm");
        let profile = serial.chain(chain.name()).expect("every chain is profiled");
        for &(k, misses) in profile.window_misses() {
            let bound = sweep.at(k).bound;
            report.gate(misses <= bound, || {
                format!(
                    "{}: {misses} misses in a window of {k}, above dmm({k}) = {bound}",
                    chain.name()
                )
            });
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let spec = &ctx.spec;
    let (runs, horizon) = (spec.param(W, "runs"), spec.param(W, "horizon"));
    let threads = spec.param(W, "threads");
    let mut report = Report::default();
    let session = Session::new();
    // The ops cycle through a fixed set of simulation seeds; each
    // seed's fastest op counts.
    let mut draw = rng(ctx, 5);
    let seeds: Vec<u64> = (0..spec.param(W, "seeds"))
        .map(|_| draw.gen_range(0..u64::MAX))
        .collect();
    let mut fastest = Fastest::new(seeds.len());
    let (setup, mut setups, mut reference) = SetUps::first(ctx, || {
        let systems = [
            case_study(),
            wide_throughput_system(spec.param(W, "wide_chains") as usize),
        ];
        let texts = systems.clone().map(|s| render_system(&s));
        let systems = texts
            .clone()
            .map(|t| parse_system(&t).expect("rendered systems parse"));
        let traces = [
            TraceSet::max_rate(&systems[0], horizon),
            TraceSet::max_rate(&systems[1], horizon),
        ];
        // A warm-up op, so lazy set-up is not timed.
        for text in &texts {
            simulated(&Session::new(), &simulate(text, 0, runs, horizon, threads))
                .expect("the warm-up simulation runs");
        }
        Setup {
            texts,
            systems,
            traces,
        }
    });

    let mut tracer = Tracer::new();
    let mut arena = SimArena::new();
    let (mut op_ms, mut untraced_us, mut run_jobs) = (Vec::new(), Vec::new(), Vec::new());
    let mut jobs = 0.0;
    let cpus = Cpus::allowed();
    let end = Instant::now() + ctx.seconds;
    for op in 0.. {
        if Instant::now() >= end {
            break;
        }
        let (pass, input) = (op / seeds.len(), op % seeds.len());
        if input == 0 {
            cpus.pin(pass);
        }
        setups.between_ops(&mut reference);
        reference.between_ops();
        let seed = seeds[input];
        let requests = setup
            .texts
            .clone()
            .map(|t| simulate(&t, seed, runs, horizon, threads));
        // Traced runs trace every other op and swap which ones each
        // pass, so traced and untraced ops run the same seeds and their
        // difference is the tracing overhead.
        tracer.set_enabled(ctx.trace && (pass + input).is_multiple_of(2));
        let begin = Instant::now();
        tracer.enter(OP);
        let answers: Vec<Result<SimulateOutcome, String>> = requests
            .iter()
            .map(|r| tracer.span("api.session.analyze_us.simulate", || simulated(&session, r)))
            .collect();
        if ctx.trace {
            for (system, traces) in setup.systems.iter().zip(&setup.traces) {
                let result = tracer.span("sim.run_us", || {
                    Simulation::new(system).run_in_arena(traces, &mut arena)
                });
                run_jobs.push(
                    result
                        .chains()
                        .iter()
                        .map(|c| c.records().len() as f64)
                        .sum(),
                );
            }
        }
        tracer.exit();
        let elapsed = begin.elapsed();
        report.attempted += 1;
        match answers.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(outcomes) => {
                op_ms.push(ms(elapsed));
                if ctx.trace && !tracer.enabled() {
                    untraced_us.push(us(elapsed));
                }
                let done: u64 = outcomes
                    .iter()
                    .flat_map(|o| &o.chains)
                    .map(|c| c.instances)
                    .sum();
                jobs += done as f64;
                fastest.observe(input, ms(elapsed), done as f64);
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

    check_bounds(ctx, &setup.systems[0], &mut report);
    for text in &setup.texts {
        let at = |threads| {
            simulated(
                &Session::new(),
                &simulate(text, seeds[0], runs, horizon, threads),
            )
        };
        report.gate(at(1) == at(2), || {
            "a simulate answer depends on the thread count".into()
        });
    }

    report.end_to_end_fastest(
        [
            "sim.jobs_per_s",
            "sim.seed_p50_ms",
            "sim.op_p50_ms",
            "sim.op_p99_ms",
            "sim.jobs_simulated",
        ],
        "1/s",
        &fastest,
        &op_ms,
        jobs,
        &reference,
    );
    if ctx.trace {
        report.layers(ctx, &tracer.profile(), &Samples::new(untraced_us));
        let run_jobs = Samples::new(run_jobs);
        report.count("sim.jobs", run_jobs.median(), "count", run_jobs.len());
        // The fan-out's efficiency: the same sweep at 1 and 2 threads.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            for (threads, samples) in [(1, &mut one), (2, &mut two)] {
                let config = MonteCarloConfig {
                    runs,
                    horizon,
                    seed: ctx.seed,
                    threads,
                    ..MonteCarloConfig::default()
                };
                let begin = Instant::now();
                std::hint::black_box(MonteCarlo::new(&setup.systems[1], config).run());
                samples.push(us(begin.elapsed()));
            }
        }
        let (one, two) = (Samples::new(one), Samples::new(two));
        report.count(
            "sim.mc_fanout_efficiency",
            one.median() / (2.0 * two.median()),
            "ratio",
            3,
        );
        write_spans(ctx, &tracer, W);
    }
    report
}
