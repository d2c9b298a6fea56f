//! The host's speed, measured with a fixed reference kernel.
//!
//! The benchmark shares its host with other tenants, and how fast the
//! analysis code runs drifts with what they do. On the 2-vCPU VM this
//! was built on, one pass of 200 `design_sweep` systems took from 123 to
//! 245 ms within three minutes (a median over 8 passes at a time), while
//! an arithmetic loop timed beside it moved 2 %: the drift is in the
//! memory system, not the clock. A kernel of hash-map building, lookups
//! and a sort (the memory traffic the analysis makes) drifted with it:
//! the pass time over the kernel's time moved 7 %, and a `montecarlo`
//! op over it 5 %. This kernel does the same in memory it allocates
//! once, because a kernel that allocated read up to 1.6x slower in a
//! `serve_mixed` run whose heap the open loop had filled.
//!
//! So the gated times are reported at reference speed: scaled by
//! [`REFERENCE_MS`] over the kernel's time in the same run. The kernel
//! is the benchmark's own code and calls nothing in the suite, so a
//! change to the program moves scaled times as much as wall times.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's fastest time on an idle moment of the 2-vCPU VM the
/// benchmark was built on; scaled times read as wall times there.
pub const REFERENCE_MS: f64 = 2.7;

/// How often the kernel is timed between ops.
const PERIOD: Duration = Duration::from_millis(250);

/// The reference kernel's timings over a run.
#[derive(Debug)]
pub struct Reference {
    best_ms: f64,
    samples: usize,
    last: Instant,
    kernel: Kernel,
}

impl Reference {
    /// Times the kernel once.
    pub fn new() -> Reference {
        let mut reference = Reference {
            best_ms: f64::INFINITY,
            samples: 0,
            last: Instant::now(),
            kernel: Kernel::new(),
        };
        reference.sample();
        reference
    }

    /// Times the kernel now and returns its time in ms.
    pub fn sample(&mut self) -> f64 {
        let begin = Instant::now();
        self.kernel.run();
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        self.best_ms = self.best_ms.min(ms);
        self.samples += 1;
        self.last = Instant::now();
        ms
    }

    /// Called between ops: times the kernel once per period.
    pub fn between_ops(&mut self) {
        if self.last.elapsed() >= PERIOD {
            self.sample();
        }
    }

    /// The kernel's fastest time in the run, in ms.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Multiplies a fastest-of time of this run into reference speed
    /// (and divides a rate): both are best cases over the same run.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.best_ms
    }
}

const KEYS: u64 = 5_000;

/// Hash-map building and lookups, then a sort, in memory allocated once:
/// the kernel's time then does not depend on the state of the heap the
/// workload leaves behind.
#[derive(Debug)]
struct Kernel {
    map: HashMap<u64, [u64; 6]>,
    keys: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            map: HashMap::with_capacity(KEYS as usize),
            keys: vec![0; 20 * KEYS as usize],
        }
    }

    fn run(&mut self) {
        let spread = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.map.clear();
        for i in 0..KEYS {
            self.map.insert(spread(i), [i; 6]);
        }
        let mut sum = 0u64;
        for i in 0..10 * KEYS {
            if let Some(values) = self.map.get(&spread(i % (KEYS + KEYS / 2))) {
                sum = sum.wrapping_add(values[5]);
            }
        }
        for (i, key) in self.keys.iter_mut().enumerate() {
            *key = spread(i as u64) >> 7;
        }
        self.keys.sort_unstable();
        black_box((sum, &self.keys));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_the_reference_over_the_fastest_sample() {
        let mut reference = Reference::new();
        reference.sample();
        assert_eq!(reference.samples(), 2);
        assert!(reference.best_ms() > 0.0);
        assert_eq!(reference.scale(), REFERENCE_MS / reference.best_ms());
    }
}
