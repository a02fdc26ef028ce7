//! Shared simulation primitives for the NoStop reproduction.
//!
//! This crate provides the foundational machinery that every other crate in
//! the workspace builds on:
//!
//! * [`time`] — a microsecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]) so that hours of streaming execution simulate in
//!   milliseconds, deterministically.
//! * [`events`] — a generic discrete-event queue with stable FIFO ordering
//!   for simultaneous events.
//! * [`rng`] — a seedable random source ([`SimRng`]) with the distributions
//!   the simulator and the SPSA optimizer need (normal via Box–Muller,
//!   log-normal, exponential, symmetric Bernoulli ±1), plus deterministic
//!   stream forking so independent subsystems draw from independent streams.
//! * [`stats`] — online (Welford) and windowed statistics used by both the
//!   metrics listener and the NoStop pause/reset policies.
//! * [`series`] — lightweight time-series recording for the figure
//!   regeneration binaries.
//!
//! Everything here is `no_std`-agnostic in spirit (no I/O, no wall-clock),
//! which is what makes the experiments reproducible bit-for-bit from a seed.

pub mod arena;
pub mod events;
pub mod json;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use arena::Arena;
pub use events::{BinaryHeapEventQueue, EventQueue, QueueStats};
pub use json::Json;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{RollingStats, Summary, Welford};
pub use time::{SimDuration, SimTime};

/// `x.floor()`, bit for bit, without the libm call `f64::floor` compiles
/// to on baseline x86-64: for `0 < x < 2^52` truncation toward zero is the
/// floor and both conversions are exact; every other input (zero, signed
/// zeros, negatives, huge values, NaN, ±∞) takes `f64::floor` itself.
#[inline]
pub fn floor_exact(x: f64) -> f64 {
    if x > 0.0 && x < 4_503_599_627_370_496.0 {
        (x as i64) as f64
    } else {
        x.floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_exact_matches_floor_bitwise() {
        let two52 = 4_503_599_627_370_496.0f64;
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            -1.5,
            two52 - 0.5,
            two52 - 1.0,
            two52,
            two52 + 1.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = SimRng::seed_from_u64(3);
        let bits: Vec<f64> = (0..50_000)
            .map(|_| f64::from_bits(rng.next_u64()))
            .collect();
        let magnitudes: Vec<f64> = (0..50_000).map(|_| rng.uniform(0.0, 1e7)).collect();
        for x in edges.into_iter().chain(bits).chain(magnitudes) {
            assert_eq!(floor_exact(x).to_bits(), x.floor().to_bits(), "x = {x:e}");
        }
    }
}
