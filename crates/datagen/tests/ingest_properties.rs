//! Property suite for the ingest path: rate process → generator → broker.
//!
//! Contracts pinned here:
//!
//! 1. **The closed form is exact**: [`closed_form_steps`] either declines
//!    or equals `k` ordinary integration steps bit for bit, across binades
//!    of `q`, carries on and off `q`'s grid, and `k` in `0..=400`. It
//!    declines below one record per step and just below a power of two.
//! 2. **Segment integration is invisible**: `advance_to` equals the
//!    per-step oracle `advance_stepwise` — every produced count, carry bit,
//!    sampled rate and partition lag — for every `RateSpec` kind, nested
//!    combinators included, over window sequences on and off the
//!    integration step grid, on uniform and on skewed brokers.
//! 3. **Uniform production is additive and exact**: the broker's integer
//!    remainder equals the former f64 carry formula at every power-of-two
//!    partition count, and `produce(a); produce(b)` equals
//!    `produce(a + b)` at any partition count.

use nostop_core::scenario::{RateSpec, SkewSpec};
use nostop_datagen::broker::{Broker, BrokerConfig};
use nostop_datagen::generator::closed_form_steps;
use nostop_datagen::rate::RateSpecExt;
use nostop_datagen::StreamGenerator;
use nostop_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// The oracle: `k` ordinary integration steps of `q` records from `carry`.
fn stepped(q: f64, mut carry: f64, k: u64) -> (u64, f64) {
    let mut total = 0u64;
    for _ in 0..k {
        let want = q + carry;
        let whole = want.floor().max(0.0);
        carry = want - whole;
        total += whole as u64;
    }
    (total, carry)
}

fn bits((n, c): (u64, f64)) -> (u64, u64) {
    (n, c.to_bits())
}

/// `q` in binade `e` (`2^e <= q < 2^(e+1)`) with the given mantissa bits.
fn in_binade(e: u32, mantissa: u64) -> f64 {
    f64::from_bits(((e as u64 + 1023) << 52) | (mantissa & ((1 << 52) - 1)))
}

/// `ulp(q)` for `q >= 1`.
fn ulp(q: f64) -> f64 {
    f64::from_bits(q.to_bits() + 1) - q
}

/// A rate process of every `RateSpec` kind, nested combinators included,
/// keyed by `variant`; `base` sets its magnitude in records/s.
fn spec(variant: u8, base: f64, hold: f64) -> RateSpec {
    let uniform = || RateSpec::UniformRandom {
        min_rate: base * 0.5,
        max_rate: base * 1.5,
        hold_secs: hold,
    };
    let sinusoid = || RateSpec::Sinusoid {
        base,
        amplitude: base * 0.8,
        period_secs: hold * 7.0,
    };
    match variant % 11 {
        0 => RateSpec::Constant { rate: base },
        1 => uniform(),
        2 => sinusoid(),
        3 => RateSpec::Ramp {
            start_rate: base * 0.1,
            end_rate: base,
            duration_secs: hold * 3.0,
        },
        4 => RateSpec::Surge {
            base_rate: base,
            magnitude: 3.0,
            surge_secs: hold,
            mean_gap_secs: hold * 4.0,
        },
        5 => RateSpec::FlashCrowd {
            base: Box::new(uniform()),
            mean_gap_secs: hold * 3.0,
            crowd_secs: hold * 0.7,
            pareto_shape: 1.3,
            min_magnitude: 1.5,
            max_magnitude: 6.0,
        },
        6 => RateSpec::ParetoBurst {
            base: Box::new(uniform()),
            mean_gap_secs: hold * 2.0,
            burst_secs: hold * 0.9,
            pareto_shape: 1.1,
            min_burst_records: base,
            max_burst_records: base * 100.0,
        },
        7 => RateSpec::CorrelatedSurge {
            base: Box::new(uniform()),
            trigger_seed: 5,
            magnitude: 2.5,
            surge_secs: hold * 1.3,
            mean_gap_secs: hold * 5.0,
        },
        8 => RateSpec::FlashCrowd {
            base: Box::new(sinusoid()),
            mean_gap_secs: hold * 3.0,
            crowd_secs: hold,
            pareto_shape: 1.5,
            min_magnitude: 1.2,
            max_magnitude: 4.0,
        },
        9 => RateSpec::ParetoBurst {
            base: Box::new(RateSpec::FlashCrowd {
                base: Box::new(uniform()),
                mean_gap_secs: hold * 4.0,
                crowd_secs: hold,
                pareto_shape: 1.2,
                min_magnitude: 1.5,
                max_magnitude: 5.0,
            }),
            mean_gap_secs: hold * 2.5,
            burst_secs: hold * 0.6,
            pareto_shape: 1.4,
            min_burst_records: base,
            max_burst_records: base * 50.0,
        },
        _ => RateSpec::CorrelatedSurge {
            base: Box::new(RateSpec::Ramp {
                start_rate: base,
                end_rate: base * 0.3,
                duration_secs: hold * 6.0,
            }),
            trigger_seed: 11,
            magnitude: 2.0,
            surge_secs: hold,
            mean_gap_secs: hold * 3.0,
        },
    }
}

/// Drive two generators over one spec through the same windows — one by
/// `advance_to`, one by the per-step oracle — and compare every
/// observable after every window.
fn assert_matches_oracle(
    spec: &RateSpec,
    seed: u64,
    broker: &Broker,
    windows_us: &[u64],
) -> Result<(), TestCaseError> {
    let rng = SimRng::seed_from_u64(seed);
    let mut fast = StreamGenerator::new(spec.build(rng.clone()));
    let mut oracle = StreamGenerator::new(spec.build(rng));
    let (mut bf, mut bo) = (broker.clone(), broker.clone());
    let mut t = SimTime::ZERO;
    for (i, &w) in windows_us.iter().enumerate() {
        t += SimDuration::from_micros(w);
        let nf = fast.advance_to(t, &mut bf);
        let no = oracle.advance_stepwise(t, &mut bo);
        prop_assert_eq!(nf, no, "window {} produced, {:?}", i, spec);
        prop_assert_eq!(fast.carry_bits(), oracle.carry_bits(), "window {} carry", i);
        prop_assert_eq!(
            fast.last_rate_bits(),
            oracle.last_rate_bits(),
            "window {} rate",
            i
        );
        prop_assert_eq!(
            bf.partition_lags(),
            bo.partition_lags(),
            "window {} lags",
            i
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn closed_form_equals_stepping_on_the_grid(
        e in 0u32..52,
        mantissa in any::<u64>(),
        grid_carry in any::<u64>(),
        k in 0u64..401,
    ) {
        let q = in_binade(e, mantissa);
        let top = in_binade(e + 1, 0);
        let m = 1u64 << (52 - e);
        let carry = (grid_carry % m) as f64 / m as f64;
        match closed_form_steps(q, carry, k) {
            Some(got) => prop_assert_eq!(bits(got), bits(stepped(q, carry, k)), "q={q} c={carry}"),
            // `fl(q + 1) < 2^(e+1)` implies `q + 1 <= 2^(e+1)` exactly.
            None => prop_assert!(q + 1.0 >= top, "declined q={q} c={carry} k={k}"),
        }
    }

    #[test]
    fn closed_form_declines_below_one_and_below_powers_of_two(
        e in 1u32..52,
        below in 1u64..64,
        small in 0.0f64..1.0,
        k in 1u64..401,
    ) {
        // `q` within one record of the next power of two (`below` ulps
        // under it, fewer than `2^(52-e)`): `q + carry` may leave the
        // binade.
        let below = 1 + below % ((1u64 << (52 - e)) - 1).min(63);
        let q = f64::from_bits(in_binade(e + 1, 0).to_bits() - below);
        prop_assert!(closed_form_steps(q, 0.0, k).is_none(), "q={q}");
        prop_assert!(closed_form_steps(small, 0.0, k).is_none(), "q={small}");
        prop_assert!(closed_form_steps(q, 0.0, 0).is_none());
    }

    #[test]
    fn off_grid_carry_lands_on_the_grid_after_one_step(
        e in 0u32..40,
        mantissa in any::<u64>(),
        carry in 0.0f64..1.0,
        k in 1u64..401,
    ) {
        let q = in_binade(e, mantissa);
        // A carry finer than `ulp(q)` is off the grid: the closed form
        // must decline it, and one ordinary step must put it back on.
        let carry = (carry * 0.5 + ulp(q) * 0.25).min(0.75);
        if (carry / ulp(q)).fract() != 0.0 {
            prop_assert!(closed_form_steps(q, carry, k).is_none(), "q={q} c={carry}");
        }
        let (first, on_grid) = stepped(q, carry, 1);
        prop_assert_eq!((on_grid / ulp(q)).fract(), 0.0, "q={q} c={carry} -> {on_grid}");
        if let Some((rest, c)) = closed_form_steps(q, on_grid, k - 1) {
            prop_assert_eq!(bits((first + rest, c)), bits(stepped(q, carry, k)));
        }
    }

    #[test]
    fn advance_to_matches_the_stepwise_oracle(
        variant in 0u8..11,
        seed in any::<u64>(),
        // 0.1 to ~300k records/s: below one record per step up to the
        // paper's Page Analyze rates.
        log_rate in -1.0f64..5.5,
        hold in 0.05f64..40.0,
        partitions in 1usize..40,
        windows_us in prop::collection::vec(1u64..4_000_000, 1..40),
        aligned in any::<bool>(),
    ) {
        // Half the cases put windows and holds on the 100 ms step grid,
        // as the paper's workloads do, so change points land exactly on
        // step starts; the other half cut them anywhere.
        let (hold, windows_us) = if aligned {
            let step = 100_000;
            let windows = windows_us.iter().map(|w| w.div_ceil(step) * step).collect();
            ((hold * 10.0).ceil() / 10.0, windows)
        } else {
            (hold, windows_us)
        };
        let spec = spec(variant, 10f64.powf(log_rate), hold);
        let uniform = Broker::new(BrokerConfig { partitions, max_consume_rate: None });
        assert_matches_oracle(&spec, seed, &uniform, &windows_us)?;
        let skew = SkewSpec::HotKey { hot_fraction: 0.25, hot_weight: 7.0 };
        if let Some(weights) = skew.weights(partitions) {
            assert_matches_oracle(&spec, seed, &uniform.clone().with_skew(weights), &windows_us)?;
        }
    }

    #[test]
    fn uniform_remainder_equals_the_f64_carry_at_powers_of_two(
        log2_partitions in 0u32..7,
        counts in prop::collection::vec(0u64..5_000_000_000, 1..60),
    ) {
        let partitions = 1usize << log2_partitions;
        let mut b = Broker::new(BrokerConfig { partitions, max_consume_rate: None });
        // The former uniform branch of `Broker::produce`, verbatim.
        let (mut produced, mut carry) = (0u64, 0.0f64);
        for &count in &counts {
            b.produce(count);
            if count != 0 {
                let share = count as f64 / partitions as f64;
                let want = share + carry;
                let whole = want.floor();
                carry = want - whole;
                produced += whole as u64;
            }
            prop_assert_eq!(b.produced_per_partition(), produced);
            prop_assert_eq!(
                (b.produce_remainder() as f64 / partitions as f64).to_bits(),
                carry.to_bits()
            );
        }
    }

    #[test]
    fn uniform_produce_is_additive(
        partitions in 1usize..100,
        pairs in prop::collection::vec((0u64..1_000_000_000, 0u64..1_000_000_000), 1..40),
    ) {
        let config = BrokerConfig { partitions, max_consume_rate: None };
        let (mut split, mut joined) = (Broker::new(config.clone()), Broker::new(config));
        let mut total = 0u64;
        for &(a, b) in &pairs {
            split.produce(a);
            split.produce(b);
            joined.produce(a + b);
            total += a + b;
            prop_assert_eq!(split.produced_per_partition(), joined.produced_per_partition());
            prop_assert_eq!(split.produce_remainder(), joined.produce_remainder());
            // Exact conservation: credited plus pending is everything produced.
            prop_assert_eq!(split.total_produced() + split.produce_remainder(), total);
        }
    }
}
