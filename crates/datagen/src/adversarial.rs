//! Adversarial arrival combinators: the traffic shapes production sees
//! and the paper's evaluation does not.
//!
//! Three composable wrappers over any base [`RateProcess`]:
//!
//! * [`FlashCrowdRate`] — Poisson onsets whose *magnitude* is drawn
//!   per-event from a capped Pareto. Over a diurnal sinusoid this is the
//!   "flash crowd" regime where NoStop's std-dev reset trigger fires
//!   constantly.
//! * [`ParetoBurstRate`] — Poisson onsets each injecting a Pareto-sized
//!   *record count*, spread over a burst window as surplus rate. Models
//!   heavy-tailed upload/batch-arrival sizes rather than multiplicative
//!   load.
//! * [`CorrelatedSurgeRate`] — surges driven by a *shared* trigger
//!   stream: every instance built with the same `trigger_seed` surges at
//!   the same instants, independent of its own fork — N tenants spike
//!   together the way correlated production incidents make them.
//!
//! ## RNG stream map
//!
//! Like `FaultPlan`, every draw comes off a dedicated fork so trajectories
//! are pure functions of `(spec, rng)` and composition never perturbs the
//! base process's stream:
//!
//! | stream | constant | used for |
//! |---|---|---|
//! | base | [`ADV_BASE_STREAM`] | the wrapped base process's own draws |
//! | event | [`ADV_EVENT_STREAM`] | onset gaps + Pareto magnitudes/sizes |
//! | trigger | [`TRIGGER_STREAM`] | shared onsets, forked off `trigger_seed` (not the build rng) |
//!
//! `RateSpecExt::build` applies this split when instantiating the
//! composite `RateSpec` variants; nesting composites re-splits at every
//! level, so a flash crowd over a Pareto-burst base is well-defined.

use crate::rate::{RateProcess, SurgeRate};
use nostop_simcore::{SimDuration, SimRng, SimTime};

/// Fork stream for a composite's wrapped base process.
pub const ADV_BASE_STREAM: u64 = 0xADB0;
/// Fork stream for a composite's own event draws (onsets, Pareto draws).
pub const ADV_EVENT_STREAM: u64 = 0xADE1;
/// Fork stream applied to `trigger_seed` for correlated-surge onsets.
pub const TRIGGER_STREAM: u64 = 0xAD72;

/// One draw from a Pareto(shape, scale) distribution, truncated at `cap`
/// by clamping (the tail mass lands on the cap rather than being
/// redrawn — one RNG draw per event keeps replay trivially aligned).
///
/// Inverse-CDF: `scale / U^(1/shape)` with `U = 1 - u ∈ (0, 1]`, so the
/// result is always `>= scale` and finite before the cap applies.
pub fn pareto_draw(rng: &mut SimRng, shape: f64, scale: f64, cap: f64) -> f64 {
    debug_assert!(shape > 0.0 && scale > 0.0 && cap >= scale);
    let u = rng.uniform(0.0, 1.0); // [0, 1) => 1 - u in (0, 1]
    (scale / (1.0 - u).powf(1.0 / shape)).min(cap)
}

/// Poisson flash crowds with per-event Pareto magnitudes over any base.
///
/// Between crowds the base passes through untouched; during a crowd the
/// base is multiplied by that crowd's magnitude. Onset bookkeeping is
/// lazy, exactly like [`SurgeRate`]: state advances inside `rate_at`, and
/// `next_change_at` refuses to promise anything for stale queries.
pub struct FlashCrowdRate {
    base: Box<dyn RateProcess>,
    mean_gap_secs: f64,
    crowd_secs: f64,
    pareto_shape: f64,
    min_magnitude: f64,
    max_magnitude: f64,
    rng: SimRng,
    crowd_until: SimTime,
    magnitude: f64,
    next_onset: SimTime,
}

impl FlashCrowdRate {
    /// Wrap `base` with flash crowds: exponential gaps with mean
    /// `mean_gap_secs` between onsets, each crowd lasting `crowd_secs`
    /// with magnitude `Pareto(pareto_shape, min_magnitude)` capped at
    /// `max_magnitude`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        base: Box<dyn RateProcess>,
        mean_gap_secs: f64,
        crowd_secs: f64,
        pareto_shape: f64,
        min_magnitude: f64,
        max_magnitude: f64,
        mut rng: SimRng,
    ) -> Self {
        assert!(
            mean_gap_secs > 0.0 && crowd_secs > 0.0,
            "durations must be positive"
        );
        assert!(pareto_shape > 0.0, "pareto shape must be positive");
        assert!(
            min_magnitude >= 1.0 && max_magnitude >= min_magnitude,
            "magnitudes must satisfy 1 <= min <= max"
        );
        let first = rng.exponential(1.0 / mean_gap_secs);
        FlashCrowdRate {
            base,
            mean_gap_secs,
            crowd_secs,
            pareto_shape,
            min_magnitude,
            max_magnitude,
            rng,
            crowd_until: SimTime::ZERO,
            magnitude: 1.0,
            next_onset: SimTime::from_secs_f64(first),
        }
    }
}

impl RateProcess for FlashCrowdRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        while t >= self.next_onset {
            self.crowd_until = self.next_onset + SimDuration::from_secs_f64(self.crowd_secs);
            self.magnitude = pareto_draw(
                &mut self.rng,
                self.pareto_shape,
                self.min_magnitude,
                self.max_magnitude,
            );
            let gap = self.rng.exponential(1.0 / self.mean_gap_secs);
            self.next_onset += SimDuration::from_secs_f64(self.crowd_secs + gap);
        }
        let base = self.base.rate_at(t);
        if t < self.crowd_until {
            base * self.magnitude
        } else {
            base
        }
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        self.base
            .bounds()
            .map(|(lo, hi)| (lo, hi * self.max_magnitude))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        if after >= self.next_onset {
            return after;
        }
        let mut t = self.base.next_change_at(after).min(self.next_onset);
        if after < self.crowd_until {
            t = t.min(self.crowd_until);
        }
        t
    }
}

/// Poisson bursts each injecting a Pareto-sized record count over any
/// base, spread across the burst window as additive surplus rate.
pub struct ParetoBurstRate {
    base: Box<dyn RateProcess>,
    mean_gap_secs: f64,
    burst_secs: f64,
    pareto_shape: f64,
    min_burst_records: f64,
    max_burst_records: f64,
    rng: SimRng,
    burst_until: SimTime,
    surplus: f64,
    next_onset: SimTime,
}

impl ParetoBurstRate {
    /// Wrap `base` with record bursts: exponential gaps with mean
    /// `mean_gap_secs`, each burst injecting
    /// `Pareto(pareto_shape, min_burst_records)` records (capped at
    /// `max_burst_records`) spread uniformly over `burst_secs`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        base: Box<dyn RateProcess>,
        mean_gap_secs: f64,
        burst_secs: f64,
        pareto_shape: f64,
        min_burst_records: f64,
        max_burst_records: f64,
        mut rng: SimRng,
    ) -> Self {
        assert!(
            mean_gap_secs > 0.0 && burst_secs > 0.0,
            "durations must be positive"
        );
        assert!(pareto_shape > 0.0, "pareto shape must be positive");
        assert!(
            min_burst_records > 0.0 && max_burst_records >= min_burst_records,
            "burst sizes must satisfy 0 < min <= max"
        );
        let first = rng.exponential(1.0 / mean_gap_secs);
        ParetoBurstRate {
            base,
            mean_gap_secs,
            burst_secs,
            pareto_shape,
            min_burst_records,
            max_burst_records,
            rng,
            burst_until: SimTime::ZERO,
            surplus: 0.0,
            next_onset: SimTime::from_secs_f64(first),
        }
    }
}

impl RateProcess for ParetoBurstRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        while t >= self.next_onset {
            self.burst_until = self.next_onset + SimDuration::from_secs_f64(self.burst_secs);
            let size = pareto_draw(
                &mut self.rng,
                self.pareto_shape,
                self.min_burst_records,
                self.max_burst_records,
            );
            self.surplus = size / self.burst_secs;
            let gap = self.rng.exponential(1.0 / self.mean_gap_secs);
            self.next_onset += SimDuration::from_secs_f64(self.burst_secs + gap);
        }
        let base = self.base.rate_at(t);
        if t < self.burst_until {
            base + self.surplus
        } else {
            base
        }
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        self.base
            .bounds()
            .map(|(lo, hi)| (lo, hi + self.max_burst_records / self.burst_secs))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        if after >= self.next_onset {
            return after;
        }
        let mut t = self.base.next_change_at(after).min(self.next_onset);
        if after < self.burst_until {
            t = t.min(self.burst_until);
        }
        t
    }
}

/// Surges whose onsets come from a *shared* trigger stream: all
/// instances built with the same `trigger_seed` surge at identical
/// instants — the multi-source correlated-incident scenario. The base
/// process still runs off the builder's own fork, so two correlated
/// sources can follow different base trajectories while spiking in
/// lockstep.
pub struct CorrelatedSurgeRate {
    inner: SurgeRate,
}

impl CorrelatedSurgeRate {
    /// `trigger_seed` selects the shared onset stream; `magnitude`,
    /// `surge_secs`, `mean_gap_secs` behave as in [`SurgeRate`].
    pub fn new(
        base: Box<dyn RateProcess>,
        trigger_seed: u64,
        magnitude: f64,
        surge_secs: f64,
        mean_gap_secs: f64,
    ) -> Self {
        let trigger = SimRng::seed_from_u64(trigger_seed).fork(TRIGGER_STREAM);
        CorrelatedSurgeRate {
            inner: SurgeRate::new(base, magnitude, surge_secs, mean_gap_secs, trigger),
        }
    }

    /// True if a surge is active at instant `t` (state as of the last
    /// `rate_at` call).
    pub fn surging(&self, t: SimTime) -> bool {
        self.inner.surging(t)
    }
}

impl RateProcess for CorrelatedSurgeRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.inner.rate_at(t)
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        self.inner.bounds()
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        self.inner.next_change_at(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{ConstantRate, SinusoidRate};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn pareto_draw_respects_scale_and_cap() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut capped = 0;
        for _ in 0..10_000 {
            let x = pareto_draw(&mut rng, 1.1, 2.0, 50.0);
            assert!((2.0..=50.0).contains(&x), "draw {x}");
            if x == 50.0 {
                capped += 1;
            }
        }
        // Shape 1.1 is heavy-tailed enough that the cap must bind sometimes.
        assert!(capped > 0, "cap never bound in 10k draws");
    }

    #[test]
    fn flash_crowd_multiplies_with_varied_magnitudes() {
        let mk = || {
            FlashCrowdRate::new(
                Box::new(ConstantRate::new(100.0)),
                60.0,
                20.0,
                1.5,
                1.5,
                8.0,
                SimRng::seed_from_u64(5),
            )
        };
        let mut r = mk();
        let mut magnitudes = std::collections::BTreeSet::new();
        for i in 0..4000 {
            let rate = r.rate_at(t(i as f64));
            assert!((100.0..=800.0).contains(&rate), "rate {rate}");
            if rate > 100.0 {
                magnitudes.insert((rate * 1e6) as u64);
            }
        }
        assert!(
            magnitudes.len() >= 3,
            "per-crowd Pareto magnitudes should vary, saw {}",
            magnitudes.len()
        );
        // Deterministic replay with the same seed.
        let mut a = mk();
        let mut b = mk();
        for i in 0..500 {
            assert_eq!(a.rate_at(t(i as f64)), b.rate_at(t(i as f64)));
        }
    }

    #[test]
    fn flash_crowd_bounds_scale_by_cap() {
        let r = FlashCrowdRate::new(
            Box::new(SinusoidRate::new(100.0, 40.0, 600.0)),
            120.0,
            30.0,
            2.0,
            1.2,
            5.0,
            SimRng::seed_from_u64(1),
        );
        assert_eq!(r.bounds(), Some((60.0, 140.0 * 5.0)));
    }

    #[test]
    fn pareto_burst_adds_surplus_during_window() {
        let mut r = ParetoBurstRate::new(
            Box::new(ConstantRate::new(50.0)),
            40.0,
            10.0,
            1.3,
            1_000.0,
            80_000.0,
            SimRng::seed_from_u64(9),
        );
        let mut burst_seconds = 0;
        for i in 0..4000 {
            let rate = r.rate_at(t(i as f64));
            assert!(rate >= 50.0, "rate {rate}");
            if rate > 50.0 {
                // Surplus = size / burst_secs, so within [min, max] / 10.
                let surplus = rate - 50.0;
                assert!((100.0..=8_000.0).contains(&surplus), "surplus {surplus}");
                burst_seconds += 1;
            }
        }
        // ~4000s / (50s cycle) * 10s burst ≈ 800 burst seconds; loose bounds.
        assert!(
            burst_seconds > 200 && burst_seconds < 2_000,
            "burst seconds {burst_seconds}"
        );
        let (lo, hi) = r.bounds().unwrap();
        assert_eq!(lo, 50.0);
        assert_eq!(hi, 50.0 + 8_000.0);
    }

    #[test]
    fn correlated_surges_share_onsets_across_instances() {
        // Two sources with different bases but the same trigger seed.
        let mut a =
            CorrelatedSurgeRate::new(Box::new(ConstantRate::new(100.0)), 777, 2.0, 15.0, 70.0);
        let mut b =
            CorrelatedSurgeRate::new(Box::new(ConstantRate::new(9_000.0)), 777, 3.0, 15.0, 70.0);
        let mut c = CorrelatedSurgeRate::new(
            Box::new(ConstantRate::new(100.0)),
            778, // different trigger
            2.0,
            15.0,
            70.0,
        );
        let mut agree = 0;
        let mut c_disagrees = false;
        let mut a_surges = 0;
        for i in 0..3000 {
            let now = t(i as f64);
            let sa = a.rate_at(now) > 100.0;
            let sb = b.rate_at(now) > 9_000.0;
            let sc = c.rate_at(now) > 100.0;
            assert_eq!(sa, sb, "same trigger seed must surge in lockstep at t={i}");
            if sa {
                a_surges += 1;
            }
            if sa == sc {
                agree += 1;
            } else {
                c_disagrees = true;
            }
        }
        assert!(a_surges > 100, "surges must actually occur ({a_surges})");
        assert!(
            c_disagrees && agree < 3000,
            "different trigger seeds must decorrelate"
        );
    }

    #[test]
    fn next_change_at_is_sound_for_combinators() {
        use crate::rate::tests::assert_skipped_samples_are_invisible;
        use crate::rate::UniformRandomRate;
        let uniform = |seed| {
            Box::new(UniformRandomRate::new(
                100.0,
                900.0,
                9.0,
                SimRng::seed_from_u64(seed),
            ))
        };
        assert_skipped_samples_are_invisible(
            || {
                Box::new(FlashCrowdRate::new(
                    uniform(1),
                    50.0,
                    10.0,
                    1.5,
                    2.0,
                    6.0,
                    SimRng::seed_from_u64(21),
                ))
            },
            1_200.0,
        );
        assert_skipped_samples_are_invisible(
            || {
                Box::new(ParetoBurstRate::new(
                    Box::new(FlashCrowdRate::new(
                        uniform(2),
                        80.0,
                        15.0,
                        1.2,
                        1.5,
                        4.0,
                        SimRng::seed_from_u64(22),
                    )),
                    40.0,
                    7.5,
                    1.3,
                    1_000.0,
                    80_000.0,
                    SimRng::seed_from_u64(23),
                ))
            },
            1_200.0,
        );
        assert_skipped_samples_are_invisible(
            || Box::new(CorrelatedSurgeRate::new(uniform(3), 777, 2.5, 15.0, 70.0)),
            1_200.0,
        );

        assert_skipped_samples_are_invisible(
            || {
                Box::new(FlashCrowdRate::new(
                    Box::new(ConstantRate::new(10.0)),
                    50.0,
                    10.0,
                    1.5,
                    2.0,
                    6.0,
                    SimRng::seed_from_u64(21),
                ))
            },
            1_200.0,
        );
    }
}
