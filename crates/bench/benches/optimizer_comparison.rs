//! Decision-compute cost: SPSA vs the alternatives (supports Fig. 8).
//!
//! The Fig-8 "search time" gap has two components. The measurement cost
//! (streaming time under perturbed configurations) is covered by the
//! `fig8` binary; this bench isolates the *decision* cost per iteration:
//! an SPSA step is a handful of float ops, while BO refits a GP — an
//! O(n³) Cholesky whose n grows every iteration — and maximizes EI over a
//! candidate pool. FDSA is included to show the 2-vs-2p measurement
//! economics SPSA brings (§4.2.3).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nostop_baselines::gp::{GaussianProcess, Kernel};
use nostop_baselines::{BayesOpt, Tuner};
use nostop_core::sa::{Fdsa, GainSchedule, Spsa, SpsaParams};
use nostop_core::space::ConfigSpace;
use nostop_simcore::SimRng;
use std::hint::black_box;

fn bench_decision_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_per_iteration");

    group.bench_function("spsa_dim2", |b| {
        let mut spsa = Spsa::new(
            SpsaParams::paper_default(2),
            vec![10.0, 10.0],
            SimRng::seed_from_u64(1),
        );
        b.iter(|| {
            let p = spsa.propose();
            black_box(spsa.update(&p, 11.0, 12.0));
        });
    });

    // BO with a model already holding n observations: one propose+observe.
    for n in [10usize, 50, 150] {
        group.bench_function(format!("bayesopt_n{n}"), |b| {
            b.iter_batched(
                || {
                    let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 3);
                    let mut rng = SimRng::seed_from_u64(5);
                    for _ in 0..n {
                        let p = bo.propose();
                        let y = p[0] + rng.uniform(0.0, 2.0);
                        bo.observe(&p, y);
                    }
                    bo
                },
                |mut bo| {
                    let p = bo.propose();
                    bo.observe(&p, black_box(12.0));
                    black_box(bo.evaluations())
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_measurement_economics(c: &mut Criterion) {
    // Count objective evaluations to reach a fixed quality on a noisy
    // quadratic: SPSA needs 2/iteration, FDSA 2p — at p = 5 parameters
    // (the paper's future work regime) the gap is the whole point.
    let mut group = c.benchmark_group("evals_to_converge_dim5");
    let target = [4.0, 16.0, 10.0, 7.0, 12.0];
    let objective = move |theta: &[f64], noise: &mut SimRng| {
        theta
            .iter()
            .zip(&target)
            .map(|(t, c)| (t - c).powi(2))
            .sum::<f64>()
            + noise.normal(0.0, 0.5)
    };
    group.bench_function("spsa_100_iters", |b| {
        b.iter_batched(
            || {
                (
                    Spsa::new(
                        SpsaParams {
                            gains: GainSchedule {
                                a: 2.0,
                                big_a: 10.0,
                                c: 1.0,
                                alpha: 0.602,
                                gamma: 0.101,
                            },
                            lower: vec![1.0; 5],
                            upper: vec![20.0; 5],
                            max_step: None,
                        },
                        vec![10.0; 5],
                        SimRng::seed_from_u64(2),
                    ),
                    SimRng::seed_from_u64(9),
                )
            },
            |(mut spsa, mut noise)| black_box(spsa.run(100, |t| objective(t, &mut noise))),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("fdsa_100_iters", |b| {
        b.iter_batched(
            || {
                (
                    Fdsa::new(
                        nostop_core::sa::fdsa::FdsaParams {
                            gains: GainSchedule {
                                a: 2.0,
                                big_a: 10.0,
                                c: 1.0,
                                alpha: 0.602,
                                gamma: 0.101,
                            },
                            lower: vec![1.0; 5],
                            upper: vec![20.0; 5],
                        },
                        vec![10.0; 5],
                    ),
                    SimRng::seed_from_u64(9),
                )
            },
            |(mut fdsa, mut noise)| black_box(fdsa.run(100, |t| objective(t, &mut noise))),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_gp_fit_scaling(c: &mut Criterion) {
    // The O(n³) refit BO pays on every observation.
    let mut group = c.benchmark_group("gp_refit");
    for n in [25usize, 100, 200] {
        group.bench_function(format!("n{n}"), |b| {
            let mut rng = SimRng::seed_from_u64(4);
            let points: Vec<(Vec<f64>, f64)> = (0..n)
                .map(|_| {
                    let x = vec![rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0)];
                    let y = x[0] + x[1];
                    (x, y)
                })
                .collect();
            b.iter(|| {
                let mut gp = GaussianProcess::new(Kernel::default());
                for (x, y) in &points {
                    gp.add(x, *y);
                }
                black_box(gp.posterior(&[10.0, 10.0]))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decision_cost,
    bench_measurement_economics,
    bench_gp_fit_scaling
);
criterion_main!(benches);
