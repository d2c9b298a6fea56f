//! `serve_mixed`: open-loop traffic against an in-process TCP server.
//!
//! Small chain and distributed systems ask `latency`, `dmm`,
//! `weakly_hard` and distributed `latency`; about half the requests
//! repeat an earlier one (cache hits), the rest are new. Requests are
//! sent on a seeded periodic-with-jitter schedule through a warm-up, a
//! `lo` and a `hi` phase and a rate ladder; latency runs from each
//! request's due time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::Cursor;
use std::time::{Duration, Instant};

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use twca_api::{
    AnalysisRequest, AnalysisResponse, Json, LinkSpec, Query, QueryOutcome, RequestOptions,
    Session, SiteSpec, StatsOutcome, Target,
};
use twca_model::parse_system;
use twca_service::{Frame, FrameReader, ServiceConfig, TcpServer};

use super::{rng, set_up, write_spans, CacheOps};
use crate::client::{Client, Phase};
use crate::reference::Reference;
use crate::report::Report;
use crate::schedule;
use crate::stats::{ms, us, windowed_p99, Fastest, Samples};
use crate::trace::{Tracer, OP};
use crate::Ctx;

const W: &str = "serve_mixed";
const MAX_FRAME_BYTES: usize = 1 << 20;
const STATS_LINE: &str = r#"{"id":"stats","queries":[{"stats":{}}]}"#;

/// The seeded request stream. A repeat copies one of the most recent
/// `window` new requests, so the working set stays the same size
/// however long a run lasts. The stream is regenerated for the replay
/// instead of being kept.
struct Requests {
    rng: ChaCha8Rng,
    repeat_pct: u32,
    window: usize,
    recent: VecDeque<AnalysisRequest>,
    seen: HashSet<String>,
    issued: usize,
}

impl Requests {
    fn new(ctx: &Ctx) -> Requests {
        Requests {
            rng: rng(ctx, 2),
            repeat_pct: ctx.spec.param(W, "repeat_share_pct") as u32,
            window: ctx.spec.param(W, "repeat_window") as usize,
            recent: VecDeque::new(),
            seen: HashSet::new(),
            issued: 0,
        }
    }

    fn fresh_request(&mut self) -> AnalysisRequest {
        let rng = &mut self.rng;
        if rng.gen_range(0..4u32) == 3 {
            let period: u64 = rng.gen_range(80..=300);
            let feed: u64 = rng.gen_range(5..=30);
            let act: u64 = rng.gen_range(10..=40);
            let site = |resource: &str, chain: &str| SiteSpec {
                resource: resource.into(),
                chain: chain.into(),
            };
            return AnalysisRequest {
                id: None,
                target: Target::Distributed {
                    resources: vec![
                        (
                            "e0".into(),
                            format!(
                                "chain feed periodic={period} deadline={period} sync \
                                 {{ task f prio=1 wcet={feed} }}"
                            ),
                        ),
                        (
                            "e1".into(),
                            format!(
                                "chain act periodic={period} deadline={} sync \
                                 {{ task a prio=1 wcet={act} }}",
                                2 * period
                            ),
                        ),
                    ],
                    links: vec![LinkSpec {
                        from: site("e0", "feed"),
                        to: site("e1", "act"),
                    }],
                },
                queries: vec![Query::Latency { chain: None }],
                options: RequestOptions::default(),
            };
        }
        let period: u64 = rng.gen_range(60..=240);
        let (a, b): (u64, u64) = (rng.gen_range(3..=12), rng.gen_range(5..=20));
        let distance: u64 = rng.gen_range(600..=6000);
        let burst: u64 = rng.gen_range(5..=30);
        let request = AnalysisRequest::for_system(format!(
            "chain c periodic={period} deadline={period} sync {{ task a prio=2 wcet={a} \
             task b prio=1 wcet={b} }}\n\
             chain burst sporadic={distance} overload {{ task x prio=3 wcet={burst} }}"
        ));
        match rng.gen_range(0..3u32) {
            0 => request.with_query(Query::Latency { chain: None }),
            1 => request.with_query(Query::Dmm {
                chain: Some("c".into()),
                ks: vec![1, 5, 10],
            }),
            _ => request.with_query(Query::WeaklyHard {
                chain: Some("c".into()),
                m: 2,
                k: 10,
            }),
        }
    }

    /// The next request line, with a unique id.
    fn next_line(&mut self) -> String {
        let repeat = !self.recent.is_empty() && self.rng.gen_range(0..100u32) < self.repeat_pct;
        let mut request = if repeat {
            let index = self.rng.gen_range(0..self.recent.len());
            self.recent[index].clone()
        } else {
            loop {
                let request = self.fresh_request();
                if self.seen.insert(request.to_json().to_string()) {
                    if self.recent.len() == self.window {
                        self.recent.pop_front();
                    }
                    self.recent.push_back(request.clone());
                    break request;
                }
            }
        };
        request.id = Some(format!("q{}", self.issued));
        self.issued += 1;
        request.to_json().to_string()
    }

    fn take(&mut self, count: usize) -> Vec<String> {
        (0..count).map(|_| self.next_line()).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warmup,
    Lo,
    Hi,
    Ladder,
}

/// One phase of the schedule: its rate and due offsets.
struct PlannedPhase {
    kind: Kind,
    rate: u64,
    offsets_us: Vec<u64>,
}

struct Setup {
    server: Option<TcpServer>,
    client: Option<Client>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            let _ = client.close();
        }
        if let Some(server) = self.server.take() {
            let _ = server.shutdown(Duration::from_secs(5));
        }
    }
}

fn config(ctx: &Ctx) -> ServiceConfig {
    let ms = |key| Some(Duration::from_millis(ctx.spec.param(W, key)));
    ServiceConfig {
        workers: ctx.spec.param(W, "workers") as usize,
        queue_capacity: ctx.spec.param(W, "queue_capacity") as usize,
        deadline: None,
        max_frame_bytes: MAX_FRAME_BYTES,
        read_timeout: ms("read_timeout_ms"),
        idle_timeout: ms("idle_timeout_ms"),
        write_timeout: ms("write_timeout_ms"),
        ..ServiceConfig::default()
    }
}

/// The whole schedule: a warm-up, `rounds` alternations of `lo` and
/// `hi` (so slow drift of the machine touches both alike), then the
/// ladder.
fn plan(ctx: &Ctx) -> Vec<PlannedPhase> {
    let spec = &ctx.spec;
    let mut arrivals = rng(ctx, 3);
    // The rest of the run replays the sent requests.
    let total_us = ctx.seconds.as_micros() as u64 * spec.param(W, "phase_share_pct") / 100;
    let share = |key| total_us * spec.param(W, key) / 100;
    let (lo, hi) = (spec.param(W, "lo_rps"), spec.param(W, "hi_rps"));
    let rounds = spec.param(W, "rounds");
    let ladder = spec.list(W, "ladder_rps");
    let mut phases = vec![(Kind::Warmup, lo, share("warmup_share_pct"))];
    for _ in 0..rounds {
        phases.push((Kind::Lo, lo, share("lo_share_pct") / rounds));
        phases.push((Kind::Hi, hi, share("hi_share_pct") / rounds));
    }
    let step_us = share("ladder_share_pct") / ladder.len() as u64;
    phases.extend(ladder.iter().map(|&rate| (Kind::Ladder, rate, step_us)));
    phases
        .into_iter()
        .map(|(kind, rate, duration_us)| PlannedPhase {
            kind,
            rate,
            offsets_us: schedule::arrivals(&mut arrivals, rate, duration_us),
        })
        .collect()
}

fn stats_of(line: Option<String>) -> Option<StatsOutcome> {
    let response = AnalysisResponse::from_json(&Json::parse(&line?).ok()?).ok()?;
    match response.outcome.ok()?.first()? {
        QueryOutcome::Stats(stats) => Some(*stats),
        _ => None,
    }
}

/// The `"id"` member of a request or answer line as the wire renders
/// it. Ids here are `q<n>`, so the first `"id": "` is the top-level
/// member.
fn id_of(line: &str) -> Option<&str> {
    const KEY: &str = "\"id\": \"";
    let rest = &line[line.find(KEY)? + KEY.len()..];
    Some(&rest[..rest.find('"')?])
}

/// An answer line as kept after its phase: its hash, and whether it is
/// an error answer (one without an `"ok"` member; quotes inside strings
/// are escaped, so the pattern only matches the member).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    hash: u64,
    error: bool,
}

impl Answer {
    pub fn of(line: &str) -> Answer {
        let mut hasher = DefaultHasher::new();
        line.hash(&mut hasher);
        Answer {
            hash: hasher.finish(),
            error: !line.contains(", \"ok\": "),
        }
    }
}

/// How the answers of a run compare with an in-process replay.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub wrong: u64,
    pub refused: u64,
    pub lost: u64,
}

impl Tally {
    /// Classifies one answer against the replay's: an error where the
    /// replay answered is a refusal, any other difference is a wrong
    /// answer, a missing answer is lost. Returns whether it matched.
    pub fn add(&mut self, want: Answer, got: Option<Answer>) -> bool {
        match got {
            None => self.lost += 1,
            Some(got) if got == want => return true,
            Some(got) if got.error && !want.error => self.refused += 1,
            Some(_) => self.wrong += 1,
        }
        false
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.lost
    }
}

/// What the client saw in one phase, with answers reduced to `Answer`s.
struct Observed {
    phase: usize,
    /// Requests generated for the phase (the sent ones are a prefix).
    planned: usize,
    /// One per sent request; `None` when lost.
    answers: Vec<Option<Answer>>,
    /// Per answered request (a prefix, as the lane answers in order).
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog_peak: usize,
    aborted: bool,
    achieved_rps: f64,
    ids_match: bool,
}

impl Observed {
    fn new(phase: usize, lines: &[String], result: Phase) -> Observed {
        let ids_match =
            result.responses.iter().zip(lines).all(|(answer, request)| {
                id_of(answer).is_some() && id_of(answer) == id_of(request)
            });
        let mut answers: Vec<Option<Answer>> = result
            .responses
            .iter()
            .map(|r| Some(Answer::of(r)))
            .collect();
        answers.resize(result.sent, None);
        Observed {
            phase,
            planned: lines.len(),
            answers,
            achieved_rps: result.achieved_rps(),
            latency_ms: result.latency_ms,
            late_ms: result.late_ms,
            backlog_peak: result.backlog_peak,
            aborted: result.aborted,
            ids_match,
        }
    }

    fn passes(&self, limit_ms: f64) -> bool {
        !self.aborted
            && self.answers.iter().all(|a| a.is_some_and(|a| !a.error))
            && Samples::new(self.latency_ms.clone()).p99() <= limit_ms
    }
}

/// The query kind of a request, as a layer name.
fn analyze_span(request: &AnalysisRequest) -> &'static str {
    match (&request.target, request.queries.first()) {
        (Target::Distributed { .. } | Target::DistText { .. }, _) => {
            "api.session.analyze_us.dist_latency"
        }
        (_, Some(Query::Dmm { .. })) => "api.session.analyze_us.dmm",
        (_, Some(Query::WeaklyHard { .. })) => "api.session.analyze_us.weakly_hard",
        _ => "api.session.analyze_us.latency",
    }
}

/// What the in-process replay found.
struct Replay {
    /// Per observed phase, per sent request: whether the answer matched.
    matched: Vec<Vec<bool>>,
    /// Per observed phase, per sent request: decode + analyze + encode µs.
    stage_us: Vec<Vec<f64>>,
    /// Per sent request, in order: frame → encode time in ms.
    op_ms: Vec<f64>,
    tally: Tally,
    untraced_op_us: Vec<f64>,
    cache_ops: CacheOps,
    session: Session,
}

/// One request line through frame → decode → analyze → encode, each
/// stage under its span. Returns the answer line and the decode +
/// analyze + encode time in µs.
fn staged(
    frames: &mut FrameReader<Cursor<Vec<u8>>>,
    session: &Session,
    tracer: &mut Tracer,
    cache_ops: &mut CacheOps,
) -> (String, f64) {
    tracer.enter(OP);
    let frame = tracer.span("service.frame_us", || frames.next_frame());
    let Ok(Some(Frame::Line(line))) = frame else {
        panic!("the in-memory frame reader yields every replayed line");
    };
    let stages = Instant::now();
    let request = tracer.span("api.wire.decode_us", || {
        Json::parse(&line)
            .ok()
            .and_then(|value| AnalysisRequest::from_json(&value).ok())
    });
    let request = request.expect("every sent line is a valid request");
    let decoded = stages.elapsed();
    if let Target::Chains { system } = &request.target {
        let _ = tracer.span("model.parse_us", || parse_system(system));
    }
    let analyzed = Instant::now();
    let before = session.cache_stats();
    let response = tracer.span(analyze_span(&request), || session.analyze(&request));
    cache_ops.observe(before, session.cache_stats());
    let answer = tracer.span("api.wire.encode_us", || response.to_json().to_string());
    let stage_us = us(decoded + analyzed.elapsed());
    tracer.exit();
    (answer, stage_us)
}

/// Regenerates the sent lines and replays them, in order, on a fresh
/// session through frame → decode → analyze → encode, checking every
/// answer. Traced runs trace every other request, so the untraced ones
/// give the tracing overhead.
fn replay(
    ctx: &Ctx,
    observed: &[Observed],
    tracer: &mut Tracer,
    traced: bool,
    reference: &mut Reference,
) -> Replay {
    let mut requests = Requests::new(ctx);
    let mut out = Replay {
        matched: Vec::new(),
        stage_us: Vec::new(),
        op_ms: Vec::new(),
        tally: Tally::default(),
        untraced_op_us: Vec::new(),
        cache_ops: CacheOps::default(),
        session: Session::new(),
    };
    let session = out.session.clone();
    for seen in observed {
        let lines = requests.take(seen.planned);
        let mut wire = String::new();
        for line in &lines[..seen.answers.len()] {
            wire.push_str(line);
            wire.push('\n');
        }
        let mut frames = FrameReader::new(Cursor::new(wire.into_bytes()), MAX_FRAME_BYTES);
        let mut matched = Vec::with_capacity(seen.answers.len());
        let mut stage_us = Vec::with_capacity(seen.answers.len());
        for got in &seen.answers {
            reference.between_ops();
            tracer.set_enabled(traced && out.op_ms.len().is_multiple_of(2));
            let begin = Instant::now();
            let (answer, stages) = staged(&mut frames, &session, tracer, &mut out.cache_ops);
            let elapsed = begin.elapsed();
            out.op_ms.push(ms(elapsed));
            if traced && !tracer.enabled() {
                out.untraced_op_us.push(us(elapsed));
            }
            stage_us.push(stages);
            matched.push(out.tally.add(Answer::of(&answer), *got));
        }
        out.matched.push(matched);
        out.stage_us.push(stage_us);
    }
    tracer.set_enabled(false);
    out
}

pub fn run(ctx: &Ctx) -> Report {
    let spec = &ctx.spec;
    let mut report = Report::default();
    // The schedule is drawn once, inside the first set-up's time (which
    // runs from process start); each set-up starts a server and connects.
    let phases = plan(ctx);
    let (mut setup, setups, mut reference) = set_up(ctx, || {
        let server =
            TcpServer::start("127.0.0.1:0", Session::new(), &config(ctx)).expect("bind loopback");
        let client = Client::connect(server.local_addr()).expect("connect to the server");
        Setup {
            server: Some(server),
            client: Some(client),
        }
    });
    report.setup(&setups);

    let limit_ms = spec.param(W, "p99_limit_us") as f64 / 1e3;
    // Sending stops while the server's queue still has room, so a step
    // past saturation is cut short instead of being refused.
    let queue = spec.param(W, "queue_capacity") as usize;
    let max_backlog =
        |rate: u64| ((rate as f64 * limit_ms / 1e3) as usize).clamp(64, queue * 7 / 8);
    let client = setup.client.as_mut().expect("set up with a client");
    let mut observed: Vec<Observed> = Vec::new();
    let mut stats = Vec::new();
    let (mut max_rps, mut ladder_steps) = (0.0, 0);
    // Every step runs and the highest passing one counts, so one stalled
    // step does not end the ladder.
    let mut requests = Requests::new(ctx);
    for (index, phase) in phases.iter().enumerate() {
        let lines = requests.take(phase.offsets_us.len());
        let result = client.run_phase(&lines, &phase.offsets_us, max_backlog(phase.rate));
        stats.push(stats_of(client.call(STATS_LINE)));
        let seen = Observed::new(index, &lines, result);
        if phase.kind == Kind::Ladder {
            ladder_steps += 1;
            let passed = seen.passes(limit_ms);
            let p99 = Samples::new(seen.latency_ms.clone()).p99();
            let step = format!("serve.ladder.{}", phase.rate);
            report.note(&format!("{step}.p99_ms"), p99, "ms", seen.latency_ms.len());
            report.note(
                &format!("{step}.passed"),
                f64::from(u8::from(passed)),
                "bool",
                1,
            );
            if passed {
                max_rps = seen.achieved_rps;
            }
        }
        observed.push(seen);
    }
    let client = setup.client.take().expect("set up with a client");
    client.close().expect("the client closes cleanly");
    let _summary = setup
        .server
        .take()
        .expect("set up with a server")
        .shutdown(Duration::from_secs(5));

    // Correctness, outside the timed window: every answer must equal
    // an in-process replay of the same lines in the same order.
    let mut tracer = Tracer::new();
    let replayed = replay(ctx, &observed, &mut tracer, ctx.trace, &mut reference);
    // The same replay again, each on another fresh session: every
    // request does the same work in each, so its fastest time is its own
    // cost.
    let mut fastest = Fastest::new(replayed.op_ms.len());
    for (request, ms) in replayed.op_ms.iter().enumerate() {
        fastest.observe(request, *ms, 1.0);
    }
    for _ in 1..spec.param(W, "replays") {
        let again = replay(ctx, &observed, &mut Tracer::new(), false, &mut reference);
        for (request, ms) in again.op_ms.iter().enumerate() {
            fastest.observe(request, *ms, 1.0);
        }
    }
    report.attempted = observed.iter().map(|o| o.answers.len() as u64).sum();
    report.failed = replayed.tally.failed();
    if replayed.tally.wrong > 0 {
        report.wrong(format!(
            "{} answers differ from the in-process replay",
            replayed.tally.wrong
        ));
    }
    report.gate(observed.iter().all(|o| o.ids_match), || {
        "an answer's id does not match its request".into()
    });
    report.gate(stats.iter().all(Option::is_some), || {
        "a stats query failed".into()
    });

    // Latency over all windows of a kind; a failed request misses any
    // limit.
    let latency = |kind: Kind| {
        let mut samples = Vec::new();
        for (k, seen) in observed.iter().enumerate() {
            if phases[seen.phase].kind != kind {
                continue;
            }
            for (i, matched) in replayed.matched[k].iter().enumerate() {
                samples.push(match seen.latency_ms.get(i) {
                    Some(&ms) if *matched => ms,
                    _ => f64::MAX,
                });
            }
        }
        samples
    };
    let (lo, hi) = (latency(Kind::Lo), latency(Kind::Hi));
    for (name, samples) in [("lo", &lo), ("hi", &hi)] {
        let median = Samples::new(samples.clone()).median();
        report.note(&format!("serve.p50_ms.{name}"), median, "ms", samples.len());
        report.note(
            &format!("serve.p99_ms.{name}"),
            windowed_p99(samples),
            "ms",
            samples.len(),
        );
        let p90 = Samples::new(samples.clone()).quantile(0.9);
        report.note(&format!("serve.p90_ms.{name}"), p90, "ms", samples.len());
    }
    report.note("serve.max_rps", max_rps, "1/s", ladder_steps);
    // The gated figures are the in-process service time of the request
    // stream: the wire figures above follow the VM's scheduling of
    // idle threads more than the program (see README.md).
    let served = replayed.op_ms.len() as f64;
    report.end_to_end_fastest(
        [
            "serve.service_rps",
            "serve.service_p50_ms",
            "serve.replay_p50_ms",
            "serve.service_p99_ms",
            "serve.requests",
        ],
        "1/s",
        &fastest,
        &replayed.op_ms,
        served,
        &reference,
    );

    if ctx.trace {
        let mut profile = tracer.profile();
        // Edge time: the client's round trip (from the actual send) at
        // lo minus the in-process decode + analyze + encode time.
        let mut edge = Vec::new();
        let (mut late, mut backlog) = (Vec::new(), 0);
        for (k, seen) in observed.iter().enumerate() {
            let kind = phases[seen.phase].kind;
            if kind == Kind::Lo {
                for (i, (latency, late)) in seen.latency_ms.iter().zip(&seen.late_ms).enumerate() {
                    edge.push((latency - late) * 1e3 - replayed.stage_us[k][i]);
                }
            }
            if matches!(kind, Kind::Lo | Kind::Hi) {
                late.extend_from_slice(&seen.late_ms);
                backlog = backlog.max(seen.backlog_peak);
            }
        }
        profile.layers.insert("service.edge_us", Samples::new(edge));
        report.layers(
            ctx,
            &profile,
            &Samples::new(replayed.untraced_op_us.clone()),
        );
        let last = stats.iter().flatten().last().copied().unwrap_or_default();
        report.count(
            "service.queue_depth_peak",
            last.queue_depth_peak as f64,
            "count",
            stats.len(),
        );
        report.count(
            "service.rejected",
            last.rejected as f64,
            "count",
            stats.len(),
        );
        replayed
            .cache_ops
            .report(&mut report, replayed.session.cache_stats());
        let late = Samples::new(late);
        report.count("client.late_p99_ms", late.p99(), "ms", late.len());
        report.count("client.backlog", backlog as f64, "count", 2);
        write_spans(ctx, &tracer, W);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_api::ApiError;

    #[test]
    fn ids_are_read_from_requests_and_answers() {
        let request = AnalysisRequest::for_system("chain c periodic=100 { task t prio=1 wcet=10 }")
            .with_id("q22")
            .with_query(Query::Latency { chain: None });
        let line = request.to_json().to_string();
        let answer = twca_api::respond_line(&Session::new(), &line);
        let answer = answer.to_json().to_string();
        assert_eq!(id_of(&line), Some("q22"));
        assert_eq!(id_of(&answer), Some("q22"));
        assert!(!Answer::of(&answer).error);
    }

    #[test]
    fn an_injected_wrong_answer_or_refusal_raises_the_fail_share() {
        let session = Session::new();
        let lines = [
            r#"{"id":"a","system":"chain c periodic=100 deadline=100 sync { task t prio=1 wcet=10 }","queries":[{"latency":{}}]}"#,
            r#"{"id":"b","system":"chain c periodic=90 deadline=90 sync { task t prio=1 wcet=10 }","queries":[{"latency":{}}]}"#,
        ];
        let answers: Vec<String> = lines
            .iter()
            .map(|l| twca_api::respond_line(&session, l).to_json().to_string())
            .collect();
        let want = Answer::of(&answers[0]);
        assert!(!want.error, "{answers:?}");

        let mut tally = Tally::default();
        assert!(tally.add(want, Some(Answer::of(&answers[0]))));
        assert_eq!(tally.failed(), 0);
        // A wrong answer: another system's (valid) answer.
        assert!(!tally.add(want, Some(Answer::of(&answers[1]))));
        assert_eq!(tally.wrong, 1);
        // A refusal: an error answer where the replay answered.
        let refusal = AnalysisResponse::error(Some("a".into()), ApiError::request("queue full"));
        let refusal = Answer::of(&refusal.to_json().to_string());
        assert!(refusal.error);
        assert!(!tally.add(want, Some(refusal)));
        assert_eq!(tally.refused, 1);
        assert!(!tally.add(want, None));
        assert_eq!(tally.lost, 1);

        let mut report = Report::default();
        report.attempted = 4;
        report.failed = tally.failed();
        assert_eq!(report.fail_share(), 0.75);
    }
}
