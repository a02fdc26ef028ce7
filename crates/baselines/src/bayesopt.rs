//! The Bayesian-optimization comparator (§6.4, Fig. 8).
//!
//! Standard GP-EI loop over the same scaled configuration space NoStop
//! searches: a handful of random initial probes, then each iteration fits
//! the GP to all observations and proposes the candidate (from a random
//! pool) maximizing Expected Improvement. Each proposal costs **one**
//! system reconfiguration + measurement window — half of SPSA's per-
//! iteration cost — but BO typically needs many more iterations, which is
//! exactly the search-time gap Fig. 8 reports. Model fitting itself rides
//! the incremental GP fast path (O(n²) per observation, candidate-lane
//! scoring of the candidate pool), so the comparison measures the search
//! strategies rather than the surrogate's refit cost.

use crate::acquisition::expected_improvement;
use crate::gp::{GaussianProcess, Kernel};
use crate::tuner::{BestTracker, Tuner};
use nostop_core::space::ConfigSpace;
use nostop_simcore::SimRng;

/// GP-EI Bayesian optimization over a [`ConfigSpace`].
pub struct BayesOpt {
    space: ConfigSpace,
    gp: GaussianProcess,
    rng: SimRng,
    tracker: BestTracker,
    /// Random probes before the model drives the search.
    n_initial: usize,
    /// Candidate pool size per EI maximization.
    n_candidates: usize,
    /// EI exploration margin.
    xi: f64,
}

impl BayesOpt {
    /// A tuner over `space` with default kernel and budget-free operation.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        BayesOpt {
            space,
            gp: GaussianProcess::new(Kernel::default()),
            rng: SimRng::seed_from_u64(seed),
            tracker: BestTracker::default(),
            n_initial: 5,
            n_candidates: 256,
            xi: 0.1,
        }
    }

    /// Override the number of random initial probes.
    pub fn with_initial_probes(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one initial probe");
        self.n_initial = n;
        self
    }

    /// Override the GP kernel, keeping the surrogate's update mode.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        let incremental = self.gp.is_incremental();
        self.gp = GaussianProcess::new(kernel).with_incremental(incremental);
        self
    }

    /// Force the surrogate's update mode (incremental fast path vs the
    /// full-refit oracle). Must be applied before any observations; used
    /// by differential tests and the tuner arena's in-binary
    /// mode-equivalence gate.
    pub fn with_gp_incremental(mut self, incremental: bool) -> Self {
        assert!(self.gp.is_empty(), "set the GP mode before observing");
        self.gp = self.gp.with_incremental(incremental);
        self
    }

    fn random_scaled(&mut self) -> Vec<f64> {
        (0..self.space.dim())
            .map(|_| self.rng.uniform(self.space.scaled_lo, self.space.scaled_hi))
            .collect()
    }

    fn propose_scaled(&mut self) -> Vec<f64> {
        if self.gp.len() < self.n_initial {
            return self.random_scaled();
        }
        let best = self.gp.best_y().expect("observations exist");
        // One flat pool for this proposal: the fallback point first, then
        // the candidates — the RNG draw order of drawing them one by one.
        // The pool is scored in one candidate-lane pass; the first
        // strictly greater EI wins.
        let dim = self.space.dim();
        let (lo, hi) = (self.space.scaled_lo, self.space.scaled_hi);
        let pool: Vec<f64> = (0..(1 + self.n_candidates) * dim)
            .map(|_| self.rng.uniform(lo, hi))
            .collect();
        let (fallback, candidates) = pool.split_at(dim);
        let posteriors = self.gp.posterior_batch(candidates, dim);
        let mut best_ei = f64::NEG_INFINITY;
        let mut best_candidate = fallback;
        for (c, (mean, var)) in candidates.chunks_exact(dim).zip(posteriors) {
            let ei = expected_improvement(mean, var, best, self.xi);
            if ei > best_ei {
                best_ei = ei;
                best_candidate = c;
            }
        }
        best_candidate.to_vec()
    }
}

impl Tuner for BayesOpt {
    fn name(&self) -> &'static str {
        "bayesian-optimization"
    }

    fn propose(&mut self) -> Vec<f64> {
        let scaled = self.propose_scaled();
        self.space.to_physical(&scaled)
    }

    fn observe(&mut self, physical: &[f64], objective: f64) {
        self.tracker.observe(physical, objective);
        // Train on the point that was measured — the quantized physical
        // configuration, whether or not it was the last proposal — so the
        // model and the best-tracker always agree.
        if objective.is_finite() {
            self.gp.add(&self.space.to_scaled(physical), objective);
        }
    }

    fn best(&self) -> Option<(Vec<f64>, f64)> {
        self.tracker.best()
    }

    fn evaluations(&self) -> usize {
        self.tracker.evaluations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noisy 2-D test objective over the paper space with minimum at
    /// interval ≈ 8 s, executors = 16.
    fn objective(rng: &mut SimRng, physical: &[f64]) -> f64 {
        let (i, e) = (physical[0], physical[1]);
        (i - 8.0).powi(2) / 10.0 + (e - 16.0).powi(2) / 20.0 + 8.0 + rng.normal(0.0, 0.2)
    }

    #[test]
    fn finds_a_near_optimal_configuration() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 3);
        let mut noise = SimRng::seed_from_u64(9);
        for _ in 0..40 {
            let p = bo.propose();
            let y = objective(&mut noise, &p);
            bo.observe(&p, y);
        }
        let (cfg, obj) = bo.best().expect("40 observations");
        assert!((cfg[0] - 8.0).abs() < 4.0, "interval near 8: {cfg:?}");
        assert!((cfg[1] - 16.0).abs() < 6.0, "executors near 16: {cfg:?}");
        assert!(obj < 10.5, "objective near the floor of 8: {obj}");
        assert_eq!(bo.evaluations(), 40);
    }

    #[test]
    fn proposals_respect_physical_bounds_and_quantization() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 1);
        for i in 0..30 {
            let p = bo.propose();
            assert!((1.0..=40.0).contains(&p[0]), "{p:?}");
            assert!((1.0..=20.0).contains(&p[1]), "{p:?}");
            assert_eq!(p[1].fract(), 0.0, "executors quantized: {p:?}");
            bo.observe(&p, 10.0 + i as f64 * 0.1);
        }
    }

    #[test]
    fn model_phase_beats_random_phase_on_smooth_objective() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 7).with_initial_probes(5);
        let mut noise = SimRng::seed_from_u64(2);
        let mut random_phase = Vec::new();
        let mut model_phase = Vec::new();
        for i in 0..35 {
            let p = bo.propose();
            let y = objective(&mut noise, &p);
            bo.observe(&p, y);
            if i < 5 {
                random_phase.push(y);
            } else if i >= 25 {
                model_phase.push(y);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&model_phase) < mean(&random_phase),
            "late proposals should be better: {} vs {}",
            mean(&model_phase),
            mean(&random_phase)
        );
    }

    #[test]
    fn non_finite_observation_does_not_poison_the_model() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 5);
        let p = bo.propose();
        bo.observe(&p, f64::NAN);
        // Still functional afterwards.
        let p2 = bo.propose();
        bo.observe(&p2, 5.0);
        assert_eq!(bo.best().unwrap().1, 5.0);
    }

    #[test]
    fn observing_another_point_trains_the_model_on_that_point() {
        let space = ConfigSpace::paper_default();
        let mut bo = BayesOpt::new(space.clone(), 5);
        let proposed = bo.propose();
        let measured = vec![3.0, 4.0];
        assert_ne!(proposed, measured);
        bo.observe(&measured, 6.5);
        assert_eq!(bo.best(), Some((measured.clone(), 6.5)));
        let mut reference = GaussianProcess::new(Kernel::default());
        reference.add(&space.to_scaled(&measured), 6.5);
        for probe in [space.to_scaled(&measured), space.to_scaled(&proposed)] {
            let (m, v) = bo.gp.posterior(&probe);
            let (rm, rv) = reference.posterior(&probe);
            assert_eq!((m.to_bits(), v.to_bits()), (rm.to_bits(), rv.to_bits()));
        }
    }

    #[test]
    fn with_kernel_keeps_the_gp_mode() {
        let kernel = Kernel {
            length_scale: 2.0,
            ..Kernel::default()
        };
        for incremental in [false, true] {
            let bo = BayesOpt::new(ConfigSpace::paper_default(), 1)
                .with_gp_incremental(incremental)
                .with_kernel(kernel);
            assert_eq!(bo.gp.is_incremental(), incremental);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 11);
            let mut ys = Vec::new();
            for i in 0..15 {
                let p = bo.propose();
                let y = p[0] + p[1] + (i % 3) as f64;
                bo.observe(&p, y);
                ys.push(p);
            }
            ys
        };
        assert_eq!(run(), run());
    }
}
