//! The external data generator: rate process → broker.
//!
//! [`StreamGenerator`] integrates a [`RateProcess`] over virtual time and
//! produces the corresponding record counts into a [`Broker`], with
//! fractional-record accumulation so that total production equals the exact
//! integral of the rate (no drift at any step size).
//!
//! The integral is a left-Riemann sum over 100 ms integration steps. Each step
//! samples the rate at its start and turns `q = r * dt` records plus the
//! carried fraction into whole records ([`advance_stepwise`] is that loop,
//! verbatim). [`advance_to`] computes the same sum at the cost of the rate
//! process's change points rather than of simulated time:
//!
//! * A constant process integrates each window in one step.
//! * A varying process samples the rate once per constant segment — the
//!   promise of [`RateProcess::next_change_at`] — and folds a run of full
//!   steps with equal `q` into [`closed_form_steps`], which is exact integer
//!   arithmetic whenever it accepts. Production goes to the broker once per
//!   window, which a uniform broker allows because its `produce` is
//!   additive. Once the process promises nothing (a sinusoid, a ramp
//!   mid-flight), the rest of the window runs the per-step loop.
//! * A skewed broker's per-partition carries are not additive, so it gets
//!   each step's count on its own from the per-step loop.
//!
//! Every count, carry bit and sampled rate equals the per-step loop's.
//!
//! [`advance_to`]: StreamGenerator::advance_to
//! [`advance_stepwise`]: StreamGenerator::advance_stepwise

use crate::broker::Broker;
use crate::rate::RateProcess;
use nostop_simcore::{floor_exact, SimDuration, SimTime};

/// Integration step for a varying rate process: the rate is sampled at the
/// start of every step and held over it. 100 ms matches Kafka producer
/// batching granularity well. The step sets the resolution of the
/// integral, not its CPU cost over a constant segment, which
/// [`StreamGenerator::advance_to`] integrates in O(1).
const INTEGRATION_STEP: SimDuration = SimDuration::from_millis(100);

/// 2^52: from here up every `f64` is an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// One integration step: `q` new records on top of `carry` make the
/// returned whole records and the new carry.
#[inline]
fn step(q: f64, carry: f64) -> (u64, f64) {
    let want = q + carry;
    let whole = floor_exact(want).max(0.0);
    (whole as u64, want - whole)
}

/// `k` consecutive integration steps of the same `q` records from `carry`,
/// in closed form: the total whole records and the final carry, bitwise
/// equal to stepping `k` times. Declines (`None`) unless every step is
/// exact integer arithmetic in units of `u = ulp(q) = 2^(e-52)`, where
/// `2^e <= q < 2^(e+1)`:
///
/// * `1 <= q < 2^52`, so `u <= 1/2` and every whole record is a multiple
///   of `u`;
/// * `q + 1 <= 2^(e+1)`, so `q + carry` stays in `q`'s binade and is
///   exact;
/// * `carry` is a multiple of `u` in `[0, 1)`, so `want - whole` is exact
///   and the next carry is again a multiple of `u`.
///
/// Then with `M = 2^(52-e)`, `Q = q·M` and `C = carry·M`, `k` steps sum to
/// `⌊(C + kQ)/M⌋` records and leave `((C + kQ) mod M)/M`. An off-grid
/// carry lands on the grid after one ordinary step, since `q + carry`
/// rounds to a multiple of `u`.
pub fn closed_form_steps(q: f64, carry: f64, k: u64) -> Option<(u64, f64)> {
    if !(1.0..TWO_POW_52).contains(&q) || !(0.0..1.0).contains(&carry) {
        return None;
    }
    let bits = q.to_bits();
    let e = (bits >> 52) as u32 - 1023;
    let shift = 52 - e;
    let m = 1u64 << shift;
    let big_q = (bits & ((1 << 52) - 1)) | (1 << 52);
    if big_q + m > 1 << 53 {
        return None;
    }
    // `carry·M` is exact (a power-of-two scaling), and below `M <= 2^52`.
    let scaled = carry * m as f64;
    let big_c = scaled as u64;
    if big_c as f64 != scaled {
        return None;
    }
    let total = big_c as u128 + k as u128 * big_q as u128;
    let whole = u64::try_from(total >> shift).ok()?;
    let rem = (total & (m as u128 - 1)) as u64;
    Some((whole, rem as f64 / m as f64))
}

/// Drives a broker from an arrival-rate process.
pub struct StreamGenerator {
    rate: Box<dyn RateProcess>,
    /// Where we have integrated production up to.
    produced_until: SimTime,
    /// Fractional record carry.
    carry: f64,
    /// Most recent instantaneous rate (records/s), for observers.
    last_rate: f64,
}

impl StreamGenerator {
    /// A generator over `rate` starting at t = 0.
    pub fn new(rate: Box<dyn RateProcess>) -> Self {
        StreamGenerator {
            rate,
            produced_until: SimTime::ZERO,
            carry: 0.0,
            last_rate: 0.0,
        }
    }

    /// Advance production to instant `t`, producing into `broker`.
    /// Returns the number of records produced by this call.
    ///
    /// Bitwise equal to [`StreamGenerator::advance_stepwise`] in every
    /// count, carry and sampled rate, at a cost proportional to the rate
    /// process's change points in the window rather than to its length.
    pub fn advance_to(&mut self, t: SimTime, broker: &mut Broker) -> u64 {
        match self.rate.constant() {
            Some(r) => self.advance_constant(r, t, broker),
            // Weighted per-partition carries depend on how production is
            // split into calls, so a skewed broker sees every step.
            None if broker.is_skewed() => self.step_to(t, broker),
            None => self.integrate_segments(t, broker),
        }
    }

    /// The reference integrator: [`StreamGenerator::advance_to`] with a
    /// varying rate sampled, floored and produced step by step. It is the
    /// skewed-broker path and the oracle the segment integration is
    /// tested against.
    pub fn advance_stepwise(&mut self, t: SimTime, broker: &mut Broker) -> u64 {
        match self.rate.constant() {
            Some(r) => self.advance_constant(r, t, broker),
            None => self.step_to(t, broker),
        }
    }

    /// A constant process has an exact closed-form integral, so the whole
    /// window collapses to one step: `r * dt + carry`. Stepping would chain
    /// the same telescoping sum through per-step floors — identical total
    /// up to fractional-carry rounding — while costing `interval / 100 ms`
    /// iterations per batch on the engine's hot ingest path.
    fn advance_constant(&mut self, r: f64, t: SimTime, broker: &mut Broker) -> u64 {
        if self.produced_until >= t {
            return 0;
        }
        let dt = (t - self.produced_until).as_secs_f64();
        self.last_rate = r;
        let (n, carry) = step(r * dt, self.carry);
        self.carry = carry;
        self.produced_until = t;
        broker.produce(n);
        n
    }

    /// The per-step loop: every step samples the rate at its start — the
    /// step-function integration that matches the hold-then-redraw
    /// semantics of the paper's generator — and produces its own count.
    fn step_to(&mut self, t: SimTime, broker: &mut Broker) -> u64 {
        let mut produced = 0u64;
        while self.produced_until < t {
            let r = self.rate.rate_at(self.produced_until);
            let n = self.step_at(r, t);
            broker.produce(n);
            produced += n;
        }
        produced
    }

    /// One integration step at rate `r` from the watermark, cut short at
    /// `t`: returns its whole records and advances the watermark.
    #[inline]
    fn step_at(&mut self, r: f64, t: SimTime) -> u64 {
        let step_end = (self.produced_until + INTEGRATION_STEP).min(t);
        let dt = (step_end - self.produced_until).as_secs_f64();
        self.last_rate = r;
        let (n, carry) = step(r * dt, self.carry);
        self.carry = carry;
        self.produced_until = step_end;
        n
    }

    /// The per-step loop's production up to `t` into a uniform (additive)
    /// broker, one rate sample per constant segment: after the step at
    /// `s`, every step starting inside `(s, next_change_at(s))` shares the
    /// rate of the first of them. A process that promises nothing at `s`
    /// is stepped for the rest of the call (asking again per step would
    /// only add cost).
    fn integrate_segments(&mut self, t: SimTime, broker: &mut Broker) -> u64 {
        let step_us = INTEGRATION_STEP.as_micros();
        let mut produced = 0u64;
        while self.produced_until < t {
            let s = self.produced_until;
            let r = self.rate.rate_at(s);
            produced += self.step_at(r, t);
            let until = self.rate.next_change_at(s);
            if until <= s {
                broker.produce(produced);
                return produced + self.step_to(t, broker);
            }
            let start = self.produced_until;
            if start >= t || start >= until {
                continue;
            }
            let r = self.rate.rate_at(start);
            self.last_rate = r;
            // Full steps that start before the rate may change.
            let inside = until.saturating_since(start).as_micros();
            let k = ((t - start).as_micros() / step_us).min(inside.div_ceil(step_us));
            produced += self.full_steps(r * INTEGRATION_STEP.as_secs_f64(), k);
            self.produced_until = start + INTEGRATION_STEP * k;
            if self.produced_until < t && self.produced_until < until {
                // The window's partial last step, still inside the segment.
                produced += self.step_at(r, t);
            }
        }
        broker.produce(produced);
        produced
    }

    /// `k` full steps of `q` records each: in closed form once the carry
    /// is on `q`'s grid, stepped where [`closed_form_steps`] declines.
    fn full_steps(&mut self, q: f64, k: u64) -> u64 {
        let mut produced = 0u64;
        for done in 0..k {
            if let Some((n, carry)) = closed_form_steps(q, self.carry, k - done) {
                self.carry = carry;
                return produced + n;
            }
            let (n, carry) = step(q, self.carry);
            self.carry = carry;
            produced += n;
        }
        produced
    }

    /// The instantaneous rate at the last integration step (records/s).
    pub fn current_rate(&self) -> f64 {
        self.last_rate
    }

    /// The rate the process will produce at instant `t` (peeks the process).
    pub fn rate_at(&mut self, t: SimTime) -> f64 {
        self.rate.rate_at(t)
    }

    /// Declared bounds of the underlying rate process, if known.
    pub fn rate_bounds(&self) -> Option<(f64, f64)> {
        self.rate.bounds()
    }

    /// How far production has been integrated.
    pub fn produced_until(&self) -> SimTime {
        self.produced_until
    }

    /// The earliest instant strictly after `after` at which the rate process
    /// may change value ([`SimTime::MAX`] when it never will). See
    /// [`RateProcess::next_change_at`] for the guarantee.
    pub fn next_change_at(&self, after: SimTime) -> SimTime {
        self.rate.next_change_at(after)
    }

    /// Bit pattern of the fractional record carry — a bitwise stationarity
    /// probe for closed-form fast paths.
    pub fn carry_bits(&self) -> u64 {
        self.carry.to_bits()
    }

    /// Bit pattern of the last sampled instantaneous rate.
    pub fn last_rate_bits(&self) -> u64 {
        self.last_rate.to_bits()
    }

    /// Shift the integration watermark forward by `delta` without touching
    /// the carry or the rate process. Only valid when the caller has already
    /// accounted the window's production elsewhere (the fleet fast path
    /// replays a proven-periodic epoch whose per-window production and carry
    /// evolution are bit-identical to the previous one).
    pub fn fast_forward(&mut self, delta: SimDuration) {
        self.produced_until += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::rate::{ConstantRate, RampRate, UniformRandomRate};
    use nostop_simcore::SimRng;

    fn broker() -> Broker {
        Broker::new(BrokerConfig {
            partitions: 4,
            max_consume_rate: None,
        })
    }

    #[test]
    fn constant_rate_integrates_exactly() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(1_000.0)));
        let mut b = broker();
        let produced = g.advance_to(SimTime::from_secs_f64(10.0), &mut b);
        assert_eq!(produced, 10_000);
        assert_eq!(g.current_rate(), 1_000.0);
    }

    #[test]
    fn production_is_independent_of_step_pattern() {
        // Advancing in many small steps vs one big step must produce the
        // same total (carry accumulation, no drift).
        let run = |steps: &[f64]| {
            let mut g = StreamGenerator::new(Box::new(ConstantRate::new(777.0)));
            let mut b = broker();
            let mut total = 0;
            let mut t = 0.0;
            for &dt in steps {
                t += dt;
                total += g.advance_to(SimTime::from_secs_f64(t), &mut b);
            }
            total
        };
        let fine = run(&[0.1; 100]);
        let coarse = run(&[10.0]);
        assert_eq!(fine, coarse);
        assert_eq!(fine, 7_770);
    }

    #[test]
    fn ramp_rate_integrates_to_trapezoid_approximately() {
        let mut g = StreamGenerator::new(Box::new(RampRate::new(0.0, 1_000.0, 10.0)));
        let mut b = broker();
        let produced = g.advance_to(SimTime::from_secs_f64(10.0), &mut b);
        // Exact integral is 5_000; left-Riemann at 100 ms steps gives 4_950.
        assert!((4_900..=5_050).contains(&produced), "produced {produced}");
    }

    #[test]
    fn advance_is_monotone_and_idempotent_at_same_t() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(100.0)));
        let mut b = broker();
        g.advance_to(SimTime::from_secs_f64(5.0), &mut b);
        let again = g.advance_to(SimTime::from_secs_f64(5.0), &mut b);
        assert_eq!(again, 0);
        assert_eq!(g.produced_until(), SimTime::from_secs_f64(5.0));
    }

    /// The constant-rate closed form integrates each window in one step.
    /// Per-window production telescopes to the same sum the stepped path
    /// produces (both equal `r*T + carry_in - carry_out` with carries in
    /// [0,1)), so totals may differ by at most one in-flight fractional
    /// record at any boundary, and the final carry matches the exact
    /// integral's fractional part.
    #[test]
    fn constant_closed_form_matches_stepped_integral() {
        /// Constant in fact, but refuses to say so — forces the slow path.
        struct OpaqueConstant(f64);
        impl crate::rate::RateProcess for OpaqueConstant {
            fn rate_at(&mut self, _t: SimTime) -> f64 {
                self.0
            }
        }
        let rate = 9_731.7;
        let mut fast = StreamGenerator::new(Box::new(ConstantRate::new(rate)));
        let mut slow = StreamGenerator::new(Box::new(OpaqueConstant(rate)));
        let (mut bf, mut bs) = (broker(), broker());
        let mut t = 0.0;
        for &dt in &[0.05, 2.0, 0.13, 15.0, 0.1, 7.77, 40.0] {
            t += dt;
            let at = SimTime::from_secs_f64(t);
            fast.advance_to(at, &mut bf);
            slow.advance_to(at, &mut bs);
            let (f, s) = (bf.total_produced(), bs.total_produced());
            assert!(f.abs_diff(s) <= 4, "fast {f} vs stepped {s} at t={t}");
        }
        let exact = rate * t;
        let f = bf.total_produced() as f64;
        assert!((exact - f).abs() < 5.0, "fast {f} vs integral {exact}");
        assert_eq!(fast.current_rate(), slow.current_rate());
    }

    /// An exactly-representable constant rate over representable windows
    /// produces the exact integral with zero drift, batch after batch.
    #[test]
    fn constant_closed_form_is_exact_for_representable_rates() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(10_000.0)));
        let mut b = broker();
        for i in 1..=20u64 {
            let n = g.advance_to(SimTime::from_secs_f64(15.0 * i as f64), &mut b);
            assert_eq!(n, 150_000, "batch {i}");
        }
    }

    #[test]
    fn fast_forward_shifts_watermark_and_preserves_carry() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(333.3)));
        let mut b = broker();
        g.advance_to(SimTime::from_secs_f64(3.0), &mut b);
        let carry = g.carry_bits();
        g.fast_forward(SimDuration::from_secs(12));
        assert_eq!(g.produced_until(), SimTime::from_secs_f64(15.0));
        assert_eq!(g.carry_bits(), carry);
        assert_eq!(
            g.next_change_at(SimTime::ZERO),
            nostop_simcore::SimTime::MAX
        );
    }

    /// The segment path samples the paper's hold-then-redraw rate about
    /// twice per window instead of once per 100 ms step, and still matches
    /// the per-step oracle exactly.
    #[test]
    fn segment_integration_samples_once_per_segment() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct Counting(UniformRandomRate, Arc<AtomicU64>);
        impl crate::rate::RateProcess for Counting {
            fn rate_at(&mut self, t: SimTime) -> f64 {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.rate_at(t)
            }
            fn next_change_at(&self, after: SimTime) -> SimTime {
                self.0.next_change_at(after)
            }
        }
        let calls = Arc::new(AtomicU64::new(0));
        let rate = || UniformRandomRate::new(7_000.0, 13_000.0, 30.0, SimRng::seed_from_u64(4));
        let mut fast = StreamGenerator::new(Box::new(Counting(rate(), calls.clone())));
        let mut oracle = StreamGenerator::new(Box::new(rate()));
        let (mut bf, mut bo) = (broker(), broker());
        for i in 1..=100u64 {
            let t = SimTime::from_micros(i * 3_000_037);
            assert_eq!(
                fast.advance_to(t, &mut bf),
                oracle.advance_stepwise(t, &mut bo)
            );
            assert_eq!(fast.carry_bits(), oracle.carry_bits());
            assert_eq!(fast.last_rate_bits(), oracle.last_rate_bits());
        }
        // Two samples per window, two more per redraw inside a window.
        let calls = calls.load(Ordering::Relaxed);
        assert!(calls <= 2 * 100 + 2 * 11, "{calls} rate_at calls");
    }

    #[test]
    fn varying_rate_production_within_bounds() {
        let rate = UniformRandomRate::new(7_000.0, 13_000.0, 30.0, SimRng::seed_from_u64(2));
        let mut g = StreamGenerator::new(Box::new(rate));
        let mut b = broker();
        let secs = 300.0;
        let produced = g.advance_to(SimTime::from_secs_f64(secs), &mut b);
        let avg = produced as f64 / secs;
        assert!((7_000.0..=13_000.0).contains(&avg), "avg {avg}");
        assert_eq!(g.rate_bounds(), Some((7_000.0, 13_000.0)));
    }
}
