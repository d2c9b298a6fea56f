//! The open-loop load client: one TCP connection, two threads.
//!
//! The calling thread sends each request line when it is due; a reader
//! thread timestamps each response line as it arrives. The server
//! answers a connection strictly in order, so the `n`-th response
//! belongs to the `n`-th request. Latency runs from a request's *due*
//! time, so a late generator or a stalled server shows as latency, and
//! generator lateness is reported beside it.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a phase waits for outstanding answers before counting the
/// rest as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A lead time before the first request, so the phase does not start
/// late by construction.
const LEAD: Duration = Duration::from_millis(2);

pub struct Client {
    stream: TcpStream,
    responses: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<std::io::Result<()>>>,
}

/// What one phase of the schedule observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent (a prefix of the schedule when aborted).
    pub sent: usize,
    /// Per answered request: ms from its due time to its answer.
    pub latency_ms: Vec<f64>,
    /// Per sent request: ms it was sent after its due time.
    pub late_ms: Vec<f64>,
    /// The answer lines, in request order.
    pub responses: Vec<String>,
    /// Largest number of requests outstanding at a send.
    pub backlog_peak: usize,
    /// Whether sending stopped because the backlog exceeded its limit.
    pub aborted: bool,
    /// Sent requests that got no answer.
    pub lost: usize,
    /// Wall time from the first due time to the last send.
    pub send_span: Duration,
}

impl Phase {
    /// Offered rate actually achieved, requests per second.
    pub fn achieved_rps(&self) -> f64 {
        if self.sent < 2 {
            return 0.0;
        }
        (self.sent - 1) as f64 / self.send_span.as_secs_f64()
    }
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, responses) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                if lines.read_line(&mut line)? == 0 {
                    return Ok(());
                }
                let at = Instant::now();
                if tx.send((at, line.trim_end().to_owned())).is_err() {
                    return Ok(());
                }
            }
        });
        Ok(Client {
            stream,
            responses,
            reader: Some(reader),
        })
    }

    /// Sends `lines[i]` at `offsets_us[i]` after the phase start and
    /// waits for every answer. Sending stops early (`aborted`) once
    /// more than `max_backlog` requests are outstanding.
    pub fn run_phase(&mut self, lines: &[String], offsets_us: &[u64], max_backlog: usize) -> Phase {
        assert_eq!(lines.len(), offsets_us.len());
        let start = Instant::now() + LEAD;
        let due = |i: usize| start + Duration::from_micros(offsets_us[i]);
        let mut phase = Phase::default();
        let mut answered = 0usize;
        let mut record = |phase: &mut Phase, at: Instant, line: String| {
            phase
                .latency_ms
                .push(at.saturating_duration_since(due(answered)).as_secs_f64() * 1e3);
            phase.responses.push(line);
            answered += 1;
        };
        let mut last_send = start;
        for (i, line) in lines.iter().enumerate() {
            while let Ok((at, response)) = self.responses.try_recv() {
                record(&mut phase, at, response);
            }
            let outstanding = phase.sent - phase.responses.len();
            if outstanding > max_backlog {
                phase.aborted = true;
                break;
            }
            phase.backlog_peak = phase.backlog_peak.max(outstanding);
            let due_at = due(i);
            let now = Instant::now();
            if now < due_at {
                std::thread::sleep(due_at - now);
            }
            let mut framed = String::with_capacity(line.len() + 1);
            framed.push_str(line);
            framed.push('\n');
            if self.stream.write_all(framed.as_bytes()).is_err() {
                break;
            }
            last_send = Instant::now();
            phase
                .late_ms
                .push(last_send.saturating_duration_since(due_at).as_secs_f64() * 1e3);
            phase.sent += 1;
        }
        phase.send_span = last_send.saturating_duration_since(start);
        while phase.responses.len() < phase.sent {
            match self.responses.recv_timeout(DRAIN_TIMEOUT) {
                Ok((at, response)) => record(&mut phase, at, response),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        phase.lost = phase.sent - phase.responses.len();
        phase
    }

    /// Sends one line and waits for its answer (a closed-loop call).
    pub fn call(&mut self, line: &str) -> Option<String> {
        let phase = self.run_phase(&[line.to_owned()], &[0], 0);
        phase.responses.into_iter().next()
    }

    /// Half-closes the connection and joins the reader thread.
    pub fn close(mut self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Write)?;
        // Drain whatever is still in flight so the reader reaches EOF.
        while self.responses.recv_timeout(DRAIN_TIMEOUT).is_ok() {}
        self.reader
            .take()
            .expect("the reader is joined once")
            .join()
            .expect("the reader thread does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;
    use crate::stats::Samples;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::net::TcpListener;

    /// A server that answers every line with itself, at once.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("one client");
            let mut writer = stream.try_clone().expect("clone socket");
            for line in BufReader::new(stream).lines() {
                let line = line.expect("utf-8 request line");
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("client reads answers");
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_no_op_server_shows_near_zero_lateness() {
        let (addr, server) = echo_server();
        let mut client = Client::connect(addr).expect("connect");
        let offsets = schedule::arrivals(&mut ChaCha8Rng::seed_from_u64(3), 1_000, 400_000);
        let lines: Vec<String> = (0..offsets.len()).map(|i| format!("r{i}")).collect();
        let phase = client.run_phase(&lines, &offsets, 64);
        client.close().expect("clean close");
        server.join().expect("echo server");
        assert_eq!(phase.sent, lines.len());
        assert_eq!(phase.lost, 0);
        assert!(!phase.aborted);
        assert_eq!(phase.responses, lines, "answers arrive in request order");
        let late = Samples::new(phase.late_ms.clone());
        assert!(late.median() < 1.0, "median lateness {} ms", late.median());
        let latency = Samples::new(phase.latency_ms);
        assert!(
            latency.median() < 2.0,
            "median latency {} ms",
            latency.median()
        );
    }
}
