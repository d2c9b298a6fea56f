//! The four workloads. Each draws its inputs from the run's seed, sets
//! itself up `setup_repeats` times (the set-up time is their median),
//! measures for the run's seconds, and checks its outputs outside the
//! timed window.

pub mod design_sweep;
pub mod montecarlo;
pub mod serve_mixed;
pub mod store_edits;

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_chains::CacheStats;

use crate::reference::{Reference, REFERENCE_MS};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Ctx;

/// Set-up times in seconds, each also at reference speed: scaled by
/// the reference kernel's time taken next to it.
#[derive(Debug, Default)]
pub struct SetUpTimes {
    pub wall: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl SetUpTimes {
    fn push(&mut self, seconds: f64, kernel_ms: f64) {
        self.wall.push(seconds);
        self.scaled.push(seconds * REFERENCE_MS / kernel_ms);
    }
}

/// Runs `setup` the configured number of times back to back and keeps
/// the last state. The first set-up is timed from process start; the
/// reference kernel is timed after it and before each of the others.
/// For `serve_mixed`, whose set-up starts a server that must not run
/// beside the measured one; the closed-loop workloads spread their
/// set-ups over the run with [`SetUps`].
pub fn set_up<S>(ctx: &Ctx, mut setup: impl FnMut() -> S) -> (S, SetUpTimes, Reference) {
    let mut state = setup();
    let first = ctx.start.elapsed().as_secs_f64();
    let mut reference = Reference::new();
    let mut times = SetUpTimes::default();
    times.push(first, reference.best_ms());
    for _ in 1..ctx.spec.setup_repeats() {
        drop(state);
        let kernel_ms = reference.sample();
        let begin = Instant::now();
        state = setup();
        times.push(begin.elapsed().as_secs_f64(), kernel_ms);
    }
    (state, times, reference)
}

/// The set-ups of a closed-loop run, spread over it. The first is timed
/// from process start and makes the state the run uses. The host's
/// speed changes for seconds at a time, so the others are made between
/// ops once their share of the run has passed, timed and dropped; their
/// median then reflects the whole run, not the moment it started.
pub struct SetUps<F> {
    make: F,
    times: SetUpTimes,
    repeats: usize,
    begin: Instant,
    seconds: f64,
}

impl<S, F: FnMut() -> S> SetUps<F> {
    /// Makes the first set-up, then times the reference kernel once.
    pub fn first(ctx: &Ctx, mut make: F) -> (S, SetUps<F>, Reference) {
        let state = make();
        let first = ctx.start.elapsed().as_secs_f64();
        let reference = Reference::new();
        let mut times = SetUpTimes::default();
        times.push(first, reference.best_ms());
        let setups = SetUps {
            make,
            times,
            repeats: ctx.spec.setup_repeats(),
            begin: Instant::now(),
            seconds: ctx.seconds.as_secs_f64(),
        };
        (state, setups, reference)
    }

    fn again(&mut self, reference: &mut Reference) {
        let kernel_ms = reference.sample();
        let begin = Instant::now();
        drop((self.make)());
        self.times.push(begin.elapsed().as_secs_f64(), kernel_ms);
    }

    /// Called between ops: makes the next set-up if it is due.
    pub fn between_ops(&mut self, reference: &mut Reference) {
        let done = self.times.wall.len();
        if done < self.repeats
            && self.begin.elapsed().as_secs_f64() >= self.seconds * done as f64 / self.repeats as f64
        {
            self.again(reference);
        }
    }

    /// Makes the set-ups still due and returns every set-up's time.
    pub fn finish(mut self, reference: &mut Reference) -> SetUpTimes {
        while self.times.wall.len() < self.repeats {
            self.again(reference);
        }
        self.times
    }
}

extern "C" {
    // glibc; `mask` points at a `cpu_set_t` of `size` bytes.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs the benchmark may run on. A shared host slows its vCPUs
/// independently, for seconds at a time (a loop timed on each CPU in
/// turn read 11 ms on one and 17 ms on the other, then the reverse), so
/// a single-threaded timed loop takes its passes on each CPU in turn:
/// an input's fastest time then comes from whichever CPU was quiet.
pub struct Cpus {
    allowed: CpuSet,
    list: Vec<usize>,
}

impl Cpus {
    pub fn allowed() -> Cpus {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: the mask is a writable cpu_set_t of the size passed.
        let ok = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) } == 0;
        let list = if ok {
            (0..1024)
                .filter(|cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { allowed, list }
    }

    /// Moves the calling thread, and the threads it starts from now on,
    /// to the `pass`-th allowed CPU (round robin).
    pub fn pin(&self, pass: usize) {
        if self.list.is_empty() {
            return;
        }
        let cpu = self.list[pass % self.list.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        self.set(&mask);
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.list.is_empty() {
            self.set(&self.allowed);
        }
    }

    fn set(&self, mask: &CpuSet) {
        // SAFETY: the mask is a readable cpu_set_t of the size passed.
        // A failed call leaves the affinity as it was, which only costs
        // steadiness.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask.as_ptr()) };
    }
}

/// The run's random source for one purpose; `salt` keeps the streams
/// of different purposes apart.
pub fn rng(ctx: &Ctx, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(ctx.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Writes the traced spans under `.bench_work/` in the working directory.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer, workload: &str) {
    let path = std::path::Path::new(".bench_work")
        .join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    if let Err(e) = tracer.write_spans(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Ops the analysis cache answered without a single miss. The cache
/// also reuses entries inside one analysis (busy windows shared by the
/// latency and dmm stages), so its lookup-level hit ratio is far from 0
/// even when no op repeats an earlier one; this op-level share is not.
#[derive(Debug, Default)]
pub struct CacheOps {
    ops: u64,
    answered: u64,
}

impl CacheOps {
    pub fn observe(&mut self, before: CacheStats, after: CacheStats) {
        self.ops += 1;
        if after.misses == before.misses && after.hits > before.hits {
            self.answered += 1;
        }
    }

    /// Sets the `api.cache.*` metrics from these ops and the final
    /// counters of the caches involved.
    pub fn report(&self, report: &mut Report, stats: CacheStats) {
        let share = self.answered as f64 / self.ops.max(1) as f64;
        report.count("api.cache.hit_ratio", share, "ratio", self.ops as usize);
        let lookups = stats.hits + stats.misses;
        report.count(
            "api.cache.lookup_hit_ratio",
            stats.hit_ratio(),
            "ratio",
            lookups as usize,
        );
        report.count(
            "api.cache.resident_mb",
            stats.resident_bytes_est as f64 / 1e6,
            "MB",
            1,
        );
        report.count("api.cache.evictions", stats.evictions as f64, "count", 1);
    }
}
