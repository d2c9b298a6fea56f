//! Seeded open-loop arrival schedules.
//!
//! Arrivals follow a periodic-with-jitter event model from
//! `twca-curves` (the same vocabulary the analysis speaks): request `i`
//! is due at `i·P + j_i` with `j_i` drawn uniformly from `[0, P/2]`, so
//! any two consecutive requests are at least `P/2` apart and the trace
//! conforms to `PeriodicJitter(P, P/2, P/4)`.

use rand::Rng;
use twca_curves::{PeriodicJitter, Time};

/// The event model of a schedule at `rate` requests per second, in µs.
pub fn model(rate: u64) -> PeriodicJitter {
    assert!(
        (1..=250_000).contains(&rate),
        "rate {rate}/s is outside the schedulable range"
    );
    let period = 1_000_000 / rate;
    PeriodicJitter::new(period, period / 2, period / 4)
        .expect("a period of at least 4 µs makes a valid jitter model")
}

/// Due offsets (µs from the phase start) of every request of a phase
/// that offers `rate` requests per second for `duration_us`.
pub fn arrivals(rng: &mut impl Rng, rate: u64, duration_us: u64) -> Vec<Time> {
    let model = model(rate);
    let period = model.period();
    (0..duration_us / period)
        .map(|i| i * period + rng.gen_range(0..=model.jitter()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let draw = |seed| arrivals(&mut ChaCha8Rng::seed_from_u64(seed), 2_000, 1_000_000);
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(draw(7).len(), 2_000);
    }

    #[test]
    fn schedule_conforms_to_its_event_model() {
        for rate in [100, 1_500, 12_000] {
            let times = arrivals(&mut ChaCha8Rng::seed_from_u64(rate), rate, 500_000);
            assert!(times.windows(2).all(|w| w[0] < w[1]));
            let trace = twca_sim::Trace::new(times);
            assert!(trace.conforms_to(&model(rate)), "rate {rate}");
        }
    }
}
