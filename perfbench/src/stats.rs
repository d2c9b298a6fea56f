//! Order statistics over measured samples.

/// The samples of one quantity, sorted ascending.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile by linear interpolation between closest ranks;
    /// 0 when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.0.len() {
            0 => 0.0,
            1 => self.0[0],
            n => {
                let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                let frac = pos - lo as f64;
                self.0[lo] + (self.0[hi] - self.0[lo]) * frac
            }
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Smallest window of the windowed p99.
const P99_WINDOW: usize = 1000;
/// Most windows of the windowed p99.
const P99_WINDOWS: usize = 8;

/// The p99 of samples taken in time order, robust to a stall of the
/// machine: the samples are cut into up to 8 consecutive windows of at
/// least 1000 samples (so each window's p99 has ten samples beyond
/// it), and the median of the windows' p99s is reported. A stall then
/// spoils the window it falls in, not the run.
pub fn windowed_p99(in_order: &[f64]) -> f64 {
    let windows = (in_order.len() / P99_WINDOW).clamp(1, P99_WINDOWS);
    let size = in_order.len() / windows;
    if size == 0 {
        return 0.0;
    }
    let p99s = in_order
        .chunks_exact(size)
        .map(|window| Samples::new(window.to_vec()).p99())
        .collect();
    Samples::new(p99s).median()
}

/// The fastest time of each of a fixed set of inputs that a run times
/// over and over. The host's other tenants slow the benchmark down now
/// and then, for a few milliseconds or for seconds; an input's fastest
/// time over a whole run is its own cost, which a slowed repeat does not
/// move.
#[derive(Debug, Clone)]
pub struct Fastest {
    best_ms: Vec<f64>,
    work: Vec<f64>,
}

impl Fastest {
    pub fn new(inputs: usize) -> Fastest {
        Fastest {
            best_ms: vec![f64::INFINITY; inputs],
            work: vec![0.0; inputs],
        }
    }

    /// Input `input` did `work` (systems, jobs) in `ms` milliseconds.
    pub fn observe(&mut self, input: usize, ms: f64, work: f64) {
        if ms < self.best_ms[input] {
            self.best_ms[input] = ms;
            self.work[input] = work;
        }
    }

    fn timed(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.best_ms
            .iter()
            .zip(&self.work)
            .filter(|(ms, _)| ms.is_finite())
            .map(|(&ms, &work)| (ms, work))
    }

    /// Inputs timed at least once.
    pub fn len(&self) -> usize {
        self.timed().count()
    }

    /// Work per second over one pass of the timed inputs at their
    /// fastest.
    pub fn rate(&self) -> f64 {
        let (ms, work) = self
            .timed()
            .fold((0.0, 0.0), |(ms, work), (m, w)| (ms + m, work + w));
        work / (ms / 1e3)
    }

    /// The median over the timed inputs of their fastest time.
    pub fn median_ms(&self) -> f64 {
        Samples::new(self.timed().map(|(ms, _)| ms).collect()).median()
    }
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, with all its digits.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn fastest_keeps_each_inputs_best_time() {
        let mut fastest = Fastest::new(3);
        fastest.observe(0, 4.0, 2.0);
        fastest.observe(1, 1.0, 1.0);
        fastest.observe(0, 2.0, 2.0);
        fastest.observe(0, 9.0, 2.0);
        assert_eq!(fastest.len(), 2);
        assert_eq!(fastest.rate(), 1000.0);
        assert_eq!(fastest.median_ms(), 1.5);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_p99() {
        let steady: Vec<f64> = (0..8000).map(|i| f64::from(i % 100)).collect();
        let mut stalled = steady.clone();
        for sample in &mut stalled[1000..1100] {
            *sample = 1e6;
        }
        assert_eq!(windowed_p99(&steady), windowed_p99(&stalled));
        assert!(Samples::new(stalled).p99() > 1e5);
        assert_eq!(
            windowed_p99(&[5.0, 1.0]),
            Samples::new(vec![5.0, 1.0]).p99()
        );
    }
}
