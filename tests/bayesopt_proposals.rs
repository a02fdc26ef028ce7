//! Pins the exact proposal stream of the Bayesian-optimization comparator.
//!
//! BayesOpt's proposals depend on every bit of the GP posterior (the EI
//! argmax over a random candidate pool) and on the order in which the
//! pool is drawn from the RNG. A change to either — a reordered
//! summation in the surrogate, an off-by-one in the argmax, one extra or
//! missing draw — moves these digests. Rewrites of the surrogate's
//! scoring kernel must keep them.

use nostop::baselines::{BayesOpt, Tuner};
use nostop::core::space::ConfigSpace;

/// A smooth synthetic objective with a different interior optimum per
/// dimension, so the model phase has something to chase.
fn synthetic(physical: &[f64]) -> f64 {
    physical
        .iter()
        .enumerate()
        .map(|(i, &x)| (x - (i as f64 + 1.0) * 1.5).powi(2) * 1e-2)
        .sum()
}

/// FNV-1a over the bit patterns of 40 proposals.
fn proposal_digest(space: ConfigSpace, seed: u64) -> u64 {
    let mut bo = BayesOpt::new(space, seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..40 {
        let p = bo.propose();
        for byte in p.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let y = synthetic(&p);
        bo.observe(&p, y);
    }
    h
}

#[test]
fn extended_space_proposals_are_pinned() {
    assert_eq!(
        proposal_digest(ConfigSpace::extended(), 4242),
        0x3950_11c3_4d51_b07e,
        "BayesOpt proposal stream on the 8-knob space changed"
    );
}

#[test]
fn paper_space_proposals_are_pinned() {
    assert_eq!(
        proposal_digest(ConfigSpace::paper_default(), 7),
        0x52c0_bb81_7657_3a53,
        "BayesOpt proposal stream on the paper's 2-knob space changed"
    );
}
