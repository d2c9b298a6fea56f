//! JSON-Lines streaming: one request per input line, one response per
//! output line, in input order.

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::request::AnalysisRequest;
use crate::response::AnalysisResponse;
use crate::session::{CancelToken, Session};

/// Per-request wall-clock latency accumulation: count, total, and the
/// min/max extremes, all in nanoseconds. Mergeable across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Requests timed.
    pub count: u64,
    /// Summed latency of all timed requests.
    pub total_ns: u64,
    /// Fastest request; 0 when nothing was timed.
    pub min_ns: u64,
    /// Slowest request; 0 when nothing was timed.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Records one request latency.
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one request latency given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Folds another accumulation into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Mean latency in nanoseconds; 0 when nothing was timed.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// What a [`serve`] loop processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Lines answered (blank lines are skipped).
    pub requests: usize,
    /// Responses whose outcome was an error.
    pub errors: usize,
    /// Per-request wall-clock latency accumulation.
    pub latency: LatencyStats,
    /// Connection-edge counters of the drained service; all-zero for
    /// the single-lane stdio loop, which has no connection edge.
    pub edge: crate::EdgeCounters,
}

impl ServeSummary {
    /// Serializes the summary. The historical `requests`/`errors`
    /// members come first, byte-identical to earlier builds; the
    /// latency object is appended only when something was timed, and
    /// the edge object only when a connection edge saw any events.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("requests".into(), Json::UInt(self.requests as u64)),
            ("errors".into(), Json::UInt(self.errors as u64)),
        ];
        if self.latency.count > 0 {
            members.push((
                "latency_ns".into(),
                Json::Object(vec![
                    ("min".into(), Json::UInt(self.latency.min_ns)),
                    ("mean".into(), Json::UInt(self.latency.mean_ns())),
                    ("max".into(), Json::UInt(self.latency.max_ns)),
                ]),
            ));
        }
        if !self.edge.is_empty() {
            members.push((
                "edge".into(),
                Json::Object(vec![
                    (
                        "open_connections".into(),
                        Json::UInt(self.edge.open_connections),
                    ),
                    ("reaped".into(), Json::UInt(self.edge.reaped)),
                    ("timeouts".into(), Json::UInt(self.edge.timeouts)),
                    ("resets".into(), Json::UInt(self.edge.resets)),
                    (
                        "slow_consumers".into(),
                        Json::UInt(self.edge.slow_consumers),
                    ),
                    (
                        "queue_depth_peak".into(),
                        Json::UInt(self.edge.queue_depth_peak),
                    ),
                ]),
            ));
        }
        Json::Object(members)
    }
}

/// Answers one request line. Malformed lines never panic and never
/// kill the stream: they produce an error response, echoing the `id`
/// when one is recoverable from the line.
pub fn respond_line(session: &Session, line: &str) -> AnalysisResponse {
    respond_line_with(session, line, None)
}

/// [`respond_line`] under an external cancellation token: a raised token
/// preempts in-flight analysis and turns the answer into a typed
/// `canceled` error, still correlated to the request's `id`.
pub fn respond_line_with(
    session: &Session,
    line: &str,
    cancel: Option<&CancelToken>,
) -> AnalysisResponse {
    match Json::parse(line) {
        Err(e) => AnalysisResponse::error(None, e.into()),
        Ok(value) => {
            // Echo the id even when the request is structurally
            // invalid, so clients can correlate the failure.
            let id = value.get("id").and_then(Json::as_str).map(str::to_owned);
            match AnalysisRequest::from_json(&value) {
                Err(e) => AnalysisResponse::error(id, e),
                Ok(request) => session.analyze_with(&request, cancel),
            }
        }
    }
}

/// Runs the streaming loop: reads JSON-Lines requests from `input`,
/// writes one response line per request to `output` **in input
/// order**, flushing after every response so a pipe sees each answer
/// as soon as it exists. The session's cache stays warm across the
/// whole stream — the core of the `twca serve` mode.
///
/// # Errors
///
/// Only I/O errors of `input`/`output` abort the loop; analysis and
/// parse failures are streamed as error responses.
///
/// # Examples
///
/// ```
/// use twca_api::{serve, Session};
///
/// let input = "{\"id\": \"a\", \"system\": \"chain c periodic=10 { task t prio=1 wcet=1 }\"}\n";
/// let mut output = Vec::new();
/// let summary = serve(&Session::new(), input.as_bytes(), &mut output).unwrap();
/// assert_eq!(summary.requests, 1);
/// assert_eq!(summary.errors, 0);
/// let text = String::from_utf8(output).unwrap();
/// assert!(text.starts_with("{\"v\": 1, \"id\": \"a\", \"ok\": "));
/// ```
pub fn serve(
    session: &Session,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<ServeSummary> {
    serve_with(session, input, output, None)
}

/// [`serve`] under an external cancellation token. Raising the token
/// mid-stream never aborts the loop: the in-flight request and every
/// later one stream back typed `canceled` error responses, still in
/// input order, until the input is drained.
pub fn serve_with(
    session: &Session,
    input: impl BufRead,
    mut output: impl Write,
    cancel: Option<&CancelToken>,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let response = respond_line_with(session, &line, cancel);
        summary.latency.record(started.elapsed());
        summary.requests += 1;
        if response.outcome.is_err() {
            summary.errors += 1;
        }
        writeln!(output, "{}", response.to_json())?;
        output.flush()?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApiErrorKind;

    const CHAIN: &str = "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }";

    #[test]
    fn responses_arrive_in_input_order_with_ids() {
        let input = format!(
            "{}\n\n{}\n{}\n",
            format_args!("{{\"id\": \"first\", \"system\": \"{CHAIN}\"}}"),
            "this is not json",
            format_args!("{{\"id\": \"third\", \"system\": \"{CHAIN}\"}}"),
        );
        let session = Session::new();
        let mut output = Vec::new();
        let summary = serve(&session, input.as_bytes(), &mut output).unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 1);

        let lines: Vec<AnalysisResponse> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| AnalysisResponse::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].id.as_deref(), Some("first"));
        assert!(lines[0].outcome.is_ok());
        assert!(lines[1].id.is_none());
        assert_eq!(
            lines[1].outcome.as_ref().unwrap_err().kind,
            ApiErrorKind::Json
        );
        assert_eq!(lines[2].id.as_deref(), Some("third"));
        assert!(lines[2].outcome.is_ok());
    }

    #[test]
    fn invalid_requests_echo_their_id() {
        let session = Session::new();
        let response = respond_line(&session, r#"{"id": "x", "queries": []}"#);
        assert_eq!(response.id.as_deref(), Some("x"));
        assert!(response.outcome.is_err());
    }

    #[test]
    fn engine_selectors_are_unknown_options() {
        // The reference engines are selectable only through
        // `AnalysisOptions` / `MonteCarloConfig`, never per request.
        let session = Session::new();
        for (key, value) in [
            ("solver", "iterative"),
            ("engine", "materialized"),
            ("sim_engine", "classic"),
        ] {
            let line = format!(
                "{{\"id\": \"{key}\", \"system\": \"{CHAIN}\", \"options\": {{\"{key}\": \"{value}\"}}}}"
            );
            let response = respond_line(&session, &line);
            assert_eq!(response.id.as_deref(), Some(key));
            let error = response.outcome.unwrap_err();
            assert_eq!(error.kind, ApiErrorKind::Request);
            assert_eq!(error.message, format!("unknown option `{key}`"));
        }
    }

    #[test]
    fn over_budget_requests_stream_typed_errors_without_killing_later_ones() {
        // Request 1 exceeds its budget, request 2 (no budget override of
        // its own) succeeds: the stream must answer both, in order.
        let input = format!(
            "{}\n{}\n",
            format_args!(
                "{{\"id\": \"greedy\", \"system\": \"{CHAIN}\", \
                 \"queries\": [{{\"dmm\": {{\"ks\": [1,2,3,4,5,6,7,8]}}}}], \
                 \"options\": {{\"budget\": 2}}}}"
            ),
            format_args!("{{\"id\": \"modest\", \"system\": \"{CHAIN}\"}}"),
        );
        let session = Session::new();
        let mut output = Vec::new();
        let summary = serve(&session, input.as_bytes(), &mut output).unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 1);
        let lines: Vec<AnalysisResponse> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| AnalysisResponse::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(lines[0].id.as_deref(), Some("greedy"));
        assert_eq!(
            lines[0].outcome.as_ref().unwrap_err().kind,
            ApiErrorKind::Budget
        );
        assert_eq!(lines[1].id.as_deref(), Some("modest"));
        assert!(lines[1].outcome.is_ok());
    }

    #[test]
    fn mid_stream_cancellation_streams_canceled_errors_in_order() {
        let line = format!("{{\"id\": \"r\", \"system\": \"{CHAIN}\"}}\n");
        let input = line.repeat(3);
        let session = Session::new();
        let token = crate::CancelToken::new();
        token.cancel();
        let mut output = Vec::new();
        let summary = serve_with(&session, input.as_bytes(), &mut output, Some(&token)).unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 3);
        let lines: Vec<AnalysisResponse> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| AnalysisResponse::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "cancellation must not abort the stream");
        for response in &lines {
            assert_eq!(response.id.as_deref(), Some("r"));
            assert_eq!(
                response.outcome.as_ref().unwrap_err().kind,
                ApiErrorKind::Canceled
            );
        }
    }

    #[test]
    fn latency_stats_accumulate_and_merge() {
        let mut a = LatencyStats::default();
        a.record_ns(10);
        a.record_ns(30);
        assert_eq!((a.count, a.min_ns, a.max_ns, a.mean_ns()), (2, 10, 30, 20));
        let mut b = LatencyStats::default();
        b.record_ns(5);
        a.merge(&b);
        assert_eq!((a.count, a.min_ns, a.max_ns), (3, 5, 30));
        let mut empty = LatencyStats::default();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn summary_json_leads_with_the_historical_fields() {
        let empty = ServeSummary {
            requests: 2,
            errors: 1,
            ..ServeSummary::default()
        };
        assert_eq!(
            empty.to_json().to_string(),
            "{\"requests\": 2, \"errors\": 1}"
        );
        let mut timed = empty;
        timed.latency.record_ns(7);
        assert_eq!(
            timed.to_json().to_string(),
            "{\"requests\": 2, \"errors\": 1, \
             \"latency_ns\": {\"min\": 7, \"mean\": 7, \"max\": 7}}"
        );
    }

    #[test]
    fn serve_times_every_request() {
        let input = format!("{{\"system\": \"{CHAIN}\"}}\nnot json\n");
        let summary = serve(&Session::new(), input.as_bytes(), &mut Vec::new()).unwrap();
        assert_eq!(summary.latency.count, 2);
        assert!(summary.latency.min_ns <= summary.latency.max_ns);
    }

    #[test]
    fn the_cache_stays_warm_across_the_stream() {
        let line =
            format!("{{\"system\": \"{CHAIN}\", \"queries\": [{{\"dmm\": {{\"ks\": [10]}}}}]}}\n");
        let input = line.repeat(3);
        let session = Session::new();
        let mut output = Vec::new();
        serve(&session, input.as_bytes(), &mut output).unwrap();
        assert!(session.cache_stats().hits > 0);
    }
}
