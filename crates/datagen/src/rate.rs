//! Arrival-rate processes.
//!
//! A [`RateProcess`] answers "how many records arrive per second at instant
//! `t`?". The paper's generator (§6.2.2) draws a random rate uniformly from
//! `[MinRate, MaxRate]` and holds it for a while before redrawing —
//! [`UniformRandomRate`] reproduces that. The other processes cover the
//! scenarios the paper motivates: constant feeds (the assumption prior work
//! makes, §2), diurnal sinusoids, linear ramps, and e-commerce surge spikes
//! (§5.5), plus recorded traces and composition.

use nostop_simcore::{SimRng, SimTime};

/// A (possibly stochastic, but seeded) arrival-rate process.
///
/// Implementations must be *deterministic in `t`* between mutations: calling
/// `rate_at` repeatedly with non-decreasing `t` yields a reproducible
/// trajectory for a given seed.
pub trait RateProcess: Send {
    /// Records per second arriving at instant `t`.
    ///
    /// `t` must be non-decreasing across calls (the generator integrates the
    /// rate forward in time).
    fn rate_at(&mut self, t: SimTime) -> f64;

    /// The inclusive bounds the process is expected to stay within, if known.
    /// Used by experiment drivers to size configuration ranges.
    fn bounds(&self) -> Option<(f64, f64)> {
        None
    }

    /// `Some(rate)` when the process returns this exact value for every
    /// `t`. Lets the generator skip the per-step virtual dispatch; the
    /// integration arithmetic is unchanged, so production is bit-identical
    /// either way.
    fn constant(&self) -> Option<f64> {
        None
    }

    /// The earliest instant strictly after `after` at which the process may
    /// return a different value — the rate is guaranteed constant over the
    /// open interval `(after, next_change_at(after))`. Fast paths use this
    /// to prove a horizon is event-free; returning `after` itself makes no
    /// guarantee at all, which is the safe default for processes that vary
    /// continuously (sinusoids, ramps mid-flight).
    ///
    /// The promise also covers the process's lazy state: skipping any
    /// `rate_at` calls at instants inside the promised window leaves every
    /// later value unchanged. Processes meet this by advancing their
    /// state (redraws, onsets) only at change points; the generator
    /// relies on it to sample once per constant segment.
    fn next_change_at(&self, after: SimTime) -> SimTime {
        after
    }
}

/// A constant arrival rate — the idealized regime prior work assumes.
#[derive(Debug, Clone)]
pub struct ConstantRate {
    rate: f64,
}

impl ConstantRate {
    /// `rate` records per second, clamped to be non-negative.
    pub fn new(rate: f64) -> Self {
        ConstantRate {
            rate: rate.max(0.0),
        }
    }
}

impl RateProcess for ConstantRate {
    fn rate_at(&mut self, _t: SimTime) -> f64 {
        self.rate
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        Some((self.rate, self.rate))
    }
    fn constant(&self) -> Option<f64> {
        Some(self.rate)
    }
    fn next_change_at(&self, _after: SimTime) -> SimTime {
        SimTime::MAX
    }
}

/// The paper's varying-rate model: a rate drawn uniformly from
/// `[min_rate, max_rate]`, held for `hold_secs`, then redrawn (§6.2.2).
#[derive(Debug, Clone)]
pub struct UniformRandomRate {
    min_rate: f64,
    max_rate: f64,
    hold_secs: f64,
    rng: SimRng,
    current: f64,
    next_redraw: SimTime,
}

impl UniformRandomRate {
    /// Rates are redrawn every `hold_secs` of simulated time.
    pub fn new(min_rate: f64, max_rate: f64, hold_secs: f64, rng: SimRng) -> Self {
        assert!(
            min_rate >= 0.0 && max_rate >= min_rate,
            "invalid rate range"
        );
        assert!(hold_secs > 0.0, "hold duration must be positive");
        let mut s = UniformRandomRate {
            min_rate,
            max_rate,
            hold_secs,
            rng,
            current: 0.0,
            next_redraw: SimTime::ZERO,
        };
        s.current = s.draw();
        s.next_redraw = SimTime::from_secs_f64(hold_secs);
        s
    }

    /// The paper's four workload ranges (Fig. 5), by name.
    pub fn paper_range(workload: &str, rng: SimRng) -> Option<Self> {
        let (lo, hi) = match workload {
            "logistic-regression" => (7_000.0, 13_000.0),
            "linear-regression" => (80_000.0, 120_000.0),
            "wordcount" => (110_000.0, 190_000.0),
            "page-analyze" | "log-analyze" => (170_000.0, 230_000.0),
            _ => return None,
        };
        Some(UniformRandomRate::new(lo, hi, 30.0, rng))
    }

    fn draw(&mut self) -> f64 {
        self.rng.uniform(self.min_rate, self.max_rate)
    }
}

impl RateProcess for UniformRandomRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        while t >= self.next_redraw {
            self.current = self.draw();
            self.next_redraw += nostop_simcore::SimDuration::from_secs_f64(self.hold_secs);
        }
        self.current
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        Some((self.min_rate, self.max_rate))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        // `next_redraw` advances lazily inside `rate_at`; when the caller
        // asks past it the state is stale and no guarantee can be made.
        if after >= self.next_redraw {
            after
        } else {
            self.next_redraw
        }
    }
}

/// A sinusoidal (diurnal-style) rate: `base + amplitude * sin(2π t / period)`,
/// floored at zero.
#[derive(Debug, Clone)]
pub struct SinusoidRate {
    base: f64,
    amplitude: f64,
    period_secs: f64,
    phase: f64,
}

impl SinusoidRate {
    /// `period_secs` must be positive.
    pub fn new(base: f64, amplitude: f64, period_secs: f64) -> Self {
        assert!(period_secs > 0.0, "period must be positive");
        SinusoidRate {
            base,
            amplitude,
            period_secs,
            phase: 0.0,
        }
    }

    /// Shift the waveform by `phase` radians.
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }
}

impl RateProcess for SinusoidRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let x = 2.0 * std::f64::consts::PI * t.as_secs_f64() / self.period_secs + self.phase;
        (self.base + self.amplitude * x.sin()).max(0.0)
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        Some((
            (self.base - self.amplitude.abs()).max(0.0),
            self.base + self.amplitude.abs(),
        ))
    }
}

/// A linear ramp from `start_rate` to `end_rate` over `duration_secs`,
/// holding `end_rate` afterwards.
#[derive(Debug, Clone)]
pub struct RampRate {
    start_rate: f64,
    end_rate: f64,
    duration_secs: f64,
}

impl RampRate {
    /// `duration_secs` must be positive.
    pub fn new(start_rate: f64, end_rate: f64, duration_secs: f64) -> Self {
        assert!(duration_secs > 0.0, "ramp duration must be positive");
        RampRate {
            start_rate,
            end_rate,
            duration_secs,
        }
    }
}

impl RateProcess for RampRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let frac = (t.as_secs_f64() / self.duration_secs).clamp(0.0, 1.0);
        (self.start_rate + frac * (self.end_rate - self.start_rate)).max(0.0)
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        Some((
            self.start_rate.min(self.end_rate).max(0.0),
            self.start_rate.max(self.end_rate),
        ))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        // The ramp holds `end_rate` forever once it completes.
        if after.as_secs_f64() >= self.duration_secs {
            SimTime::MAX
        } else {
            after
        }
    }
}

/// A base rate with occasional multiplicative surges — the "E-commerce
/// promotion, spike activities" scenario of §5.5 that triggers NoStop's
/// coefficient reset.
///
/// Surge onsets follow a Poisson process (`mean_gap_secs` between onsets);
/// each surge multiplies the base process by `magnitude` for
/// `surge_secs`.
pub struct SurgeRate {
    base: Box<dyn RateProcess>,
    magnitude: f64,
    surge_secs: f64,
    mean_gap_secs: f64,
    rng: SimRng,
    surge_until: SimTime,
    next_onset: SimTime,
}

impl SurgeRate {
    /// Wrap `base` with surges of `magnitude`× lasting `surge_secs`,
    /// separated by exponential gaps with mean `mean_gap_secs`.
    pub fn new(
        base: Box<dyn RateProcess>,
        magnitude: f64,
        surge_secs: f64,
        mean_gap_secs: f64,
        mut rng: SimRng,
    ) -> Self {
        assert!(magnitude >= 1.0, "surge magnitude must be >= 1");
        assert!(
            surge_secs > 0.0 && mean_gap_secs > 0.0,
            "durations must be positive"
        );
        let first = rng.exponential(1.0 / mean_gap_secs);
        SurgeRate {
            base,
            magnitude,
            surge_secs,
            mean_gap_secs,
            rng,
            surge_until: SimTime::ZERO,
            next_onset: SimTime::from_secs_f64(first),
        }
    }

    /// A surge at a fixed, known instant (for tests and the reset ablation).
    pub fn scheduled(
        base: Box<dyn RateProcess>,
        magnitude: f64,
        onset_secs: f64,
        surge_secs: f64,
    ) -> Self {
        SurgeRate {
            base,
            magnitude,
            surge_secs,
            mean_gap_secs: f64::INFINITY,
            rng: SimRng::seed_from_u64(0),
            surge_until: SimTime::ZERO,
            next_onset: SimTime::from_secs_f64(onset_secs),
        }
    }

    /// True if a surge is active at the last queried instant.
    pub fn surging(&self, t: SimTime) -> bool {
        t < self.surge_until
    }
}

impl RateProcess for SurgeRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        while t >= self.next_onset {
            self.surge_until =
                self.next_onset + nostop_simcore::SimDuration::from_secs_f64(self.surge_secs);
            let gap = if self.mean_gap_secs.is_finite() {
                self.rng.exponential(1.0 / self.mean_gap_secs)
            } else {
                f64::MAX
            };
            self.next_onset = if gap >= f64::MAX {
                SimTime::MAX
            } else {
                self.next_onset + nostop_simcore::SimDuration::from_secs_f64(self.surge_secs + gap)
            };
        }
        let base = self.base.rate_at(t);
        if t < self.surge_until {
            base * self.magnitude
        } else {
            base
        }
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        self.base.bounds().map(|(lo, hi)| (lo, hi * self.magnitude))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        // Onset state advances lazily in `rate_at`; a stale query makes no
        // guarantee. Otherwise the envelope is constant until the surge
        // window closes or the next onset fires, whichever the base allows.
        if after >= self.next_onset {
            return after;
        }
        let mut t = self.base.next_change_at(after).min(self.next_onset);
        if after < self.surge_until {
            t = t.min(self.surge_until);
        }
        t
    }
}

/// A rate replayed from recorded `(t_secs, rate)` breakpoints with
/// step-function semantics (the rate holds until the next breakpoint).
#[derive(Debug, Clone)]
pub struct TraceRate {
    /// Breakpoints sorted by time.
    points: Vec<(f64, f64)>,
}

impl TraceRate {
    /// Build from breakpoints; they are sorted internally. Panics when empty.
    pub fn new(mut points: Vec<(f64, f64)>) -> Self {
        assert!(
            !points.is_empty(),
            "trace must have at least one breakpoint"
        );
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        TraceRate { points }
    }

    /// Parse a recorded trace from two-column CSV (`t_secs,rate`), with an
    /// optional header row. Lines that fail to parse are reported, not
    /// skipped — silent data loss in a replayed trace corrupts experiments.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut points = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut cols = line.split(',');
            let (Some(a), Some(b)) = (cols.next(), cols.next()) else {
                return Err(format!("line {}: expected two columns", lineno + 1));
            };
            match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
                (Ok(t), Ok(r)) => {
                    if !t.is_finite() || !r.is_finite() || t < 0.0 || r < 0.0 {
                        return Err(format!("line {}: out-of-domain value", lineno + 1));
                    }
                    points.push((t, r));
                }
                _ if lineno == 0 => continue, // header row
                _ => return Err(format!("line {}: not numeric", lineno + 1)),
            }
        }
        if points.is_empty() {
            return Err("trace has no data rows".into());
        }
        Ok(TraceRate::new(points))
    }

    /// Render the trace as two-column CSV with a header (the inverse of
    /// [`TraceRate::from_csv`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_secs,rate\n");
        for (t, r) in &self.points {
            out.push_str(&format!("{t},{r}\n"));
        }
        out
    }
}

impl RateProcess for TraceRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let ts = t.as_secs_f64();
        let idx = self.points.partition_point(|&(bt, _)| bt <= ts);
        if idx == 0 {
            self.points[0].1.max(0.0)
        } else {
            self.points[idx - 1].1.max(0.0)
        }
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        let lo = self
            .points
            .iter()
            .map(|&(_, r)| r)
            .fold(f64::INFINITY, f64::min);
        let hi = self.points.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
        Some((lo.max(0.0), hi))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        let ts = after.as_secs_f64();
        match self.points.iter().find(|&&(bt, _)| bt > ts) {
            Some(&(bt, _)) => SimTime::from_secs_f64(bt),
            None => SimTime::MAX,
        }
    }
}

/// Scale another process by a constant factor — used by back pressure tests
/// and to re-range a trace for a different workload.
pub struct ScaledRate {
    inner: Box<dyn RateProcess>,
    factor: f64,
}

impl ScaledRate {
    /// Multiply `inner` by `factor` (clamped non-negative).
    pub fn new(inner: Box<dyn RateProcess>, factor: f64) -> Self {
        ScaledRate {
            inner,
            factor: factor.max(0.0),
        }
    }
}

impl RateProcess for ScaledRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.inner.rate_at(t) * self.factor
    }
    fn bounds(&self) -> Option<(f64, f64)> {
        self.inner
            .bounds()
            .map(|(lo, hi)| (lo * self.factor, hi * self.factor))
    }
    fn next_change_at(&self, after: SimTime) -> SimTime {
        self.inner.next_change_at(after)
    }
}

/// The declarative, `Clone`-able description of a rate process — what
/// fleet tenant specs and scenario files carry instead of a live
/// `Box<dyn RateProcess>` (trait objects hold RNG state and cannot be
/// cloned or compared). The enum itself lives in `nostop-core` (it is a
/// wire type shared with `ScenarioSpec`); this crate owns the
/// instantiation via [`RateSpecExt::build`], keeping the trajectory a
/// pure function of `(spec, rng)`.
pub use nostop_core::scenario::RateSpec;

/// Instantiation of a [`RateSpec`] into a live process. An extension
/// trait because the spec is defined in `nostop-core`, which must not
/// depend on the process implementations here.
pub trait RateSpecExt {
    /// Instantiate the described process. `rng` seeds the stochastic
    /// variants and is ignored by the deterministic ones — so two tenants
    /// sharing a spec but holding different [`SimRng`] forks follow
    /// independent trajectories, while rebuilding with the same fork
    /// replays bit-for-bit. Composite variants (flash crowds, Pareto
    /// bursts, correlated surges) split `rng` into dedicated sub-streams —
    /// see [`crate::adversarial`] for the stream map.
    fn build(&self, rng: SimRng) -> Box<dyn RateProcess>;
}

impl RateSpecExt for RateSpec {
    fn build(&self, rng: SimRng) -> Box<dyn RateProcess> {
        match self {
            RateSpec::Constant { rate } => Box::new(ConstantRate::new(*rate)),
            RateSpec::UniformRandom {
                min_rate,
                max_rate,
                hold_secs,
            } => Box::new(UniformRandomRate::new(
                *min_rate, *max_rate, *hold_secs, rng,
            )),
            RateSpec::Sinusoid {
                base,
                amplitude,
                period_secs,
            } => Box::new(SinusoidRate::new(*base, *amplitude, *period_secs)),
            RateSpec::Ramp {
                start_rate,
                end_rate,
                duration_secs,
            } => Box::new(RampRate::new(*start_rate, *end_rate, *duration_secs)),
            RateSpec::Surge {
                base_rate,
                magnitude,
                surge_secs,
                mean_gap_secs,
            } => Box::new(SurgeRate::new(
                Box::new(ConstantRate::new(*base_rate)),
                *magnitude,
                *surge_secs,
                *mean_gap_secs,
                rng,
            )),
            RateSpec::FlashCrowd {
                base,
                mean_gap_secs,
                crowd_secs,
                pareto_shape,
                min_magnitude,
                max_magnitude,
            } => Box::new(crate::adversarial::FlashCrowdRate::new(
                base.build(rng.fork(crate::adversarial::ADV_BASE_STREAM)),
                *mean_gap_secs,
                *crowd_secs,
                *pareto_shape,
                *min_magnitude,
                *max_magnitude,
                rng.fork(crate::adversarial::ADV_EVENT_STREAM),
            )),
            RateSpec::ParetoBurst {
                base,
                mean_gap_secs,
                burst_secs,
                pareto_shape,
                min_burst_records,
                max_burst_records,
            } => Box::new(crate::adversarial::ParetoBurstRate::new(
                base.build(rng.fork(crate::adversarial::ADV_BASE_STREAM)),
                *mean_gap_secs,
                *burst_secs,
                *pareto_shape,
                *min_burst_records,
                *max_burst_records,
                rng.fork(crate::adversarial::ADV_EVENT_STREAM),
            )),
            RateSpec::CorrelatedSurge {
                base,
                trigger_seed,
                magnitude,
                surge_secs,
                mean_gap_secs,
            } => Box::new(crate::adversarial::CorrelatedSurgeRate::new(
                base.build(rng.fork(crate::adversarial::ADV_BASE_STREAM)),
                *trigger_seed,
                *magnitude,
                *surge_secs,
                *mean_gap_secs,
            )),
        }
    }
}

/// Derive tenant `tenant`'s master seed from a fleet-wide master seed.
///
/// Forks a dedicated xoshiro stream per tenant and takes its first draw,
/// so (a) every tenant's engine sees a statistically independent seed,
/// (b) the mapping is a pure function of `(master, tenant)` — the fleet
/// determinism battery replays it bit-for-bit — and (c) adding tenant N+1
/// never perturbs tenants 0..N.
pub fn tenant_seed(master: u64, tenant: u32) -> u64 {
    SimRng::seed_from_u64(master)
        .fork(0x7E4A_4E7F ^ tenant as u64)
        .next_u64()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nostop_simcore::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn constant_rate_is_constant() {
        let mut r = ConstantRate::new(100.0);
        assert_eq!(r.rate_at(t(0.0)), 100.0);
        assert_eq!(r.rate_at(t(1e6)), 100.0);
        assert_eq!(r.bounds(), Some((100.0, 100.0)));
        assert_eq!(ConstantRate::new(-5.0).rate_at(t(0.0)), 0.0);
    }

    #[test]
    fn uniform_random_stays_in_range_and_holds() {
        let mut r = UniformRandomRate::new(7_000.0, 13_000.0, 30.0, SimRng::seed_from_u64(1));
        let mut last: Option<f64> = None;
        let mut changes = 0;
        for i in 0..600 {
            let rate = r.rate_at(t(i as f64));
            assert!((7_000.0..=13_000.0).contains(&rate), "rate {rate}");
            if let Some(prev) = last {
                if (rate - prev).abs() > 1e-9 {
                    changes += 1;
                }
            }
            last = Some(rate);
        }
        // 600 s / 30 s hold => ~19 redraw boundaries (some redraws may repeat values).
        assert!((10..=25).contains(&changes), "changes {changes}");
    }

    #[test]
    fn uniform_random_within_one_hold_is_constant() {
        let mut r = UniformRandomRate::new(100.0, 200.0, 10.0, SimRng::seed_from_u64(5));
        let first = r.rate_at(t(0.0));
        for i in 1..10 {
            assert_eq!(r.rate_at(t(i as f64 * 0.9)), first);
        }
    }

    #[test]
    fn paper_ranges_match_fig5() {
        for (name, lo, hi) in [
            ("logistic-regression", 7_000.0, 13_000.0),
            ("linear-regression", 80_000.0, 120_000.0),
            ("wordcount", 110_000.0, 190_000.0),
            ("page-analyze", 170_000.0, 230_000.0),
        ] {
            let r = UniformRandomRate::paper_range(name, SimRng::seed_from_u64(0)).unwrap();
            assert_eq!(r.bounds(), Some((lo, hi)));
        }
        assert!(UniformRandomRate::paper_range("nope", SimRng::seed_from_u64(0)).is_none());
    }

    #[test]
    fn sinusoid_oscillates_and_floors_at_zero() {
        let mut r = SinusoidRate::new(50.0, 100.0, 60.0);
        assert!((r.rate_at(t(0.0)) - 50.0).abs() < 1e-9);
        // Peak at quarter period.
        assert!((r.rate_at(t(15.0)) - 150.0).abs() < 1e-6);
        // Trough would be negative; must floor at zero.
        assert_eq!(r.rate_at(t(45.0)), 0.0);
    }

    #[test]
    fn ramp_interpolates_then_holds() {
        let mut r = RampRate::new(0.0, 100.0, 10.0);
        assert_eq!(r.rate_at(t(0.0)), 0.0);
        assert!((r.rate_at(t(5.0)) - 50.0).abs() < 1e-9);
        assert_eq!(r.rate_at(t(10.0)), 100.0);
        assert_eq!(r.rate_at(t(99.0)), 100.0);
    }

    #[test]
    fn scheduled_surge_multiplies_during_window() {
        let mut r = SurgeRate::scheduled(Box::new(ConstantRate::new(10.0)), 3.0, 100.0, 20.0);
        assert_eq!(r.rate_at(t(50.0)), 10.0);
        assert_eq!(r.rate_at(t(105.0)), 30.0);
        assert_eq!(r.rate_at(t(119.9)), 30.0);
        assert_eq!(r.rate_at(t(121.0)), 10.0);
        // Scheduled surges fire once.
        assert_eq!(r.rate_at(t(1000.0)), 10.0);
    }

    #[test]
    fn random_surges_recur() {
        let mut r = SurgeRate::new(
            Box::new(ConstantRate::new(10.0)),
            5.0,
            10.0,
            50.0,
            SimRng::seed_from_u64(3),
        );
        let mut surged = 0;
        let mut clock = SimTime::ZERO;
        for _ in 0..2000 {
            clock += SimDuration::from_secs(1);
            if r.rate_at(clock) > 10.0 {
                surged += 1;
            }
        }
        // ~2000s / (60s cycle) * 10s surge ≈ 330 surged seconds; loose bounds.
        assert!(surged > 100 && surged < 800, "surged {surged}");
    }

    #[test]
    fn trace_steps_between_breakpoints() {
        let mut r = TraceRate::new(vec![(10.0, 200.0), (0.0, 100.0), (20.0, 50.0)]);
        assert_eq!(r.rate_at(t(0.0)), 100.0);
        assert_eq!(r.rate_at(t(9.9)), 100.0);
        assert_eq!(r.rate_at(t(10.0)), 200.0);
        assert_eq!(r.rate_at(t(25.0)), 50.0);
        assert_eq!(r.bounds(), Some((50.0, 200.0)));
    }

    #[test]
    fn trace_csv_round_trips() {
        let original = TraceRate::new(vec![(0.0, 100.0), (30.0, 250.0), (90.0, 80.0)]);
        let csv = original.to_csv();
        let mut parsed = TraceRate::from_csv(&csv).expect("own output parses");
        for probe in [0.0, 15.0, 30.0, 60.0, 95.0] {
            let mut orig = original.clone();
            assert_eq!(
                orig.rate_at(t(probe)),
                parsed.rate_at(t(probe)),
                "at t={probe}"
            );
        }
    }

    #[test]
    fn trace_csv_accepts_header_and_rejects_garbage() {
        let ok = TraceRate::from_csv("t_secs,rate\n0,100\n10,200\n");
        assert!(ok.is_ok());
        assert!(TraceRate::from_csv("").is_err());
        assert!(TraceRate::from_csv("t,r\n").is_err(), "header only");
        assert!(TraceRate::from_csv("0,100\nbad,row\n").is_err());
        assert!(
            TraceRate::from_csv("0,100\n5,-3\n").is_err(),
            "negative rate"
        );
        assert!(TraceRate::from_csv("0,NaN\n").is_err());
        assert!(TraceRate::from_csv("0\n").is_err(), "one column");
    }

    #[test]
    fn scaled_rate_multiplies() {
        let mut r = ScaledRate::new(Box::new(ConstantRate::new(40.0)), 2.5);
        assert_eq!(r.rate_at(t(1.0)), 100.0);
        assert_eq!(r.bounds(), Some((100.0, 100.0)));
    }

    #[test]
    fn same_seed_reproduces_trajectory() {
        let mk = || UniformRandomRate::new(0.0, 1000.0, 5.0, SimRng::seed_from_u64(99));
        let mut a = mk();
        let mut b = mk();
        for i in 0..200 {
            assert_eq!(a.rate_at(t(i as f64)), b.rate_at(t(i as f64)));
        }
    }

    #[test]
    fn rate_spec_build_replays_with_same_fork() {
        let specs = [
            RateSpec::Constant { rate: 500.0 },
            RateSpec::UniformRandom {
                min_rate: 100.0,
                max_rate: 900.0,
                hold_secs: 7.0,
            },
            RateSpec::Sinusoid {
                base: 400.0,
                amplitude: 150.0,
                period_secs: 120.0,
            },
            RateSpec::Ramp {
                start_rate: 100.0,
                end_rate: 600.0,
                duration_secs: 300.0,
            },
            RateSpec::Surge {
                base_rate: 300.0,
                magnitude: 3.0,
                surge_secs: 20.0,
                mean_gap_secs: 90.0,
            },
        ];
        for spec in specs {
            let mut a = spec.build(SimRng::seed_from_u64(7).fork(4));
            let mut b = spec.build(SimRng::seed_from_u64(7).fork(4));
            for i in 0..100 {
                assert_eq!(a.rate_at(t(i as f64)), b.rate_at(t(i as f64)), "{spec:?}");
            }
        }
    }

    #[test]
    fn next_change_at_brackets_every_process() {
        // Constant: never changes.
        assert_eq!(ConstantRate::new(5.0).next_change_at(t(3.0)), SimTime::MAX);
        // Uniform-random: the next redraw boundary, stale queries refuse.
        let mut u = UniformRandomRate::new(10.0, 20.0, 30.0, SimRng::seed_from_u64(1));
        u.rate_at(t(5.0));
        assert_eq!(u.next_change_at(t(5.0)), t(30.0));
        assert_eq!(u.next_change_at(t(31.0)), t(31.0), "stale query");
        // Sinusoid varies continuously: no guarantee.
        assert_eq!(
            SinusoidRate::new(10.0, 5.0, 60.0).next_change_at(t(7.0)),
            t(7.0)
        );
        // Ramp: constant only after completion.
        let r = RampRate::new(0.0, 100.0, 10.0);
        assert_eq!(r.next_change_at(t(5.0)), t(5.0));
        assert_eq!(r.next_change_at(t(10.0)), SimTime::MAX);
        // Surge over a constant base: next onset bounds the guarantee.
        let mut s = SurgeRate::scheduled(Box::new(ConstantRate::new(10.0)), 3.0, 100.0, 20.0);
        assert_eq!(s.next_change_at(t(50.0)), t(100.0));
        s.rate_at(t(105.0)); // inside the surge window
        assert_eq!(s.next_change_at(t(105.0)), t(120.0));
        // Trace: the next breakpoint, MAX past the last one.
        let tr = TraceRate::new(vec![(0.0, 100.0), (10.0, 200.0)]);
        assert_eq!(tr.next_change_at(t(3.0)), t(10.0));
        assert_eq!(tr.next_change_at(t(10.0)), SimTime::MAX);
        // Scaled: delegates.
        let sc = ScaledRate::new(Box::new(ConstantRate::new(40.0)), 2.0);
        assert_eq!(sc.next_change_at(t(1.0)), SimTime::MAX);
    }

    /// Two copies of `mk()`'s process over `horizon_secs`: one sampled
    /// every 100 ms, one only at the change points it promises. Skipping
    /// the samples in between must be invisible — both agree at every
    /// change point and at the end.
    pub(crate) fn assert_skipped_samples_are_invisible(
        mk: impl Fn() -> Box<dyn RateProcess>,
        horizon_secs: f64,
    ) {
        let (mut dense, mut sparse) = (mk(), mk());
        let step = SimDuration::from_millis(100);
        let horizon = t(horizon_secs);
        let mut at = SimTime::ZERO;
        let mut change_points = 0;
        while at < horizon {
            let rate = sparse.rate_at(at);
            assert_eq!(dense.rate_at(at).to_bits(), rate.to_bits(), "at {at}");
            let until = sparse.next_change_at(at);
            let next = if until > at {
                change_points += 1;
                until.min(horizon)
            } else {
                at + step
            };
            let mut probe = at + step;
            while probe < next {
                assert_eq!(dense.rate_at(probe), rate, "changed before {until}");
                probe += step;
            }
            at = next;
        }
        assert_eq!(dense.rate_at(horizon), sparse.rate_at(horizon), "at end");
        assert!(change_points > 0, "the process promised nothing");
    }

    /// The `(after, next_change_at)` guarantee holds empirically: replaying
    /// the process inside the promised window never changes the rate, and
    /// skipping those samples changes nothing later.
    #[test]
    fn next_change_at_guarantee_is_sound() {
        let uniform = || UniformRandomRate::new(0.0, 1000.0, 7.0, SimRng::seed_from_u64(11));
        assert_skipped_samples_are_invisible(|| Box::new(uniform()), 600.0);
        assert_skipped_samples_are_invisible(
            || {
                Box::new(SurgeRate::new(
                    Box::new(uniform()),
                    4.0,
                    12.5,
                    40.0,
                    SimRng::seed_from_u64(12),
                ))
            },
            900.0,
        );
        assert_skipped_samples_are_invisible(
            || {
                Box::new(ScaledRate::new(
                    Box::new(TraceRate::new(vec![(0.0, 5.0), (3.33, 9.0), (70.05, 2.0)])),
                    1.5,
                ))
            },
            120.0,
        );
        assert_skipped_samples_are_invisible(|| Box::new(RampRate::new(10.0, 90.0, 33.3)), 90.0);
    }

    #[test]
    fn tenant_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..256).map(|i| tenant_seed(42, i)).collect();
        // Stable across calls (pure function of master + tenant).
        assert_eq!(
            seeds,
            (0..256).map(|i| tenant_seed(42, i)).collect::<Vec<_>>()
        );
        // Pairwise distinct for any realistic fleet size.
        let unique: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
        // Different masters decorrelate every tenant.
        assert_ne!(tenant_seed(42, 0), tenant_seed(43, 0));
    }
}
