//! `adversarial-corpus`: the six adversarial `scenarios/` entries × every
//! method each lists, run through `nostop_bench::scenario::run_method`.
//! Each entry is re-seeded per variant and handed to set-up as generated
//! JSON text, which set-up parses with `parse_scenario`. One step is one
//! (spec, method) cell.

use crate::probe::{derive, ns_since, Fnv, Pass};
use crate::Workload;
use nostop_bench::scenario::{parse_scenario, run_method, MethodResult};
use nostop_core::scenario::ScenarioSpec;
use std::time::Instant;

/// The committed entries the variants are generated from. The fig5/fig6
/// entries are left out: trace-only, or the `paper-tuning` protocol.
const ENTRIES: [(&str, &str); 6] = [
    (
        "correlated-surge",
        include_str!("../../scenarios/correlated-surge.json"),
    ),
    (
        "crash-recovery",
        include_str!("../../scenarios/crash-recovery.json"),
    ),
    (
        "flash-crowd",
        include_str!("../../scenarios/flash-crowd.json"),
    ),
    ("hot-keys", include_str!("../../scenarios/hot-keys.json")),
    (
        "pareto-bursts",
        include_str!("../../scenarios/pareto-bursts.json"),
    ),
    (
        "slow-drift",
        include_str!("../../scenarios/slow-drift.json"),
    ),
];

/// Re-seeded variants of every entry in one pass. Which cells make a
/// pass's step p90 depends on the seed; in 3-s runs over ten seeds that
/// p90 spread about 0.25 with 32 variants, 0.17 with 64 and 0.09 with 128.
const VARIANTS: u64 = 128;

/// Methods in `Layers::method_ns` order.
const METHODS: [&str; 3] = ["nostop", "bo", "static"];

pub struct Corpus {
    /// The generated inputs: one JSON text per (variant, entry).
    texts: Vec<String>,
}

impl Corpus {
    pub fn new(seed: u64) -> Self {
        let mut texts = Vec::new();
        for v in 0..VARIANTS {
            for (i, (name, template)) in ENTRIES.iter().enumerate() {
                let mut spec = parse_scenario(template).expect("committed corpus entries parse");
                let stream = 0xC0_0000 | (i as u64) << 8 | v;
                spec.name = format!("{name}-v{v}");
                spec.seed = derive(seed, stream);
                spec.rate_seed = Some(derive(seed, stream | 0x80_0000));
                texts.push(spec.to_json().to_string());
            }
        }
        Corpus { texts }
    }
}

pub struct Sessions {
    specs: Vec<Result<ScenarioSpec, String>>,
    cells: Vec<(String, Result<MethodResult, String>)>,
}

impl Workload for Corpus {
    type Sessions = Sessions;

    fn setup(&self, pass: &mut Pass) -> Sessions {
        let mut specs = Vec::with_capacity(self.texts.len());
        for text in &self.texts {
            let start = Instant::now();
            specs.push(parse_scenario(text));
            if pass.traced {
                pass.layers.parse_ns.push(ns_since(start));
            }
        }
        let cells = Vec::with_capacity(self.texts.len() * METHODS.len());
        Sessions { specs, cells }
    }

    fn run(&self, sessions: &mut Sessions, pass: &mut Pass) {
        for spec in sessions.specs.iter().flatten() {
            for method in &spec.methods {
                let start = Instant::now();
                let result = run_method(spec, method);
                let ns = ns_since(start);
                pass.steps_ns.push(ns);
                if pass.traced {
                    if let Some(m) = METHODS.iter().position(|m| m == method) {
                        pass.layers.method_ns[m] += ns;
                    }
                }
                sessions
                    .cells
                    .push((format!("{}/{method}", spec.name), result));
            }
        }
    }

    fn verify(&self, sessions: &mut Sessions, pass: &mut Pass) {
        for (i, spec) in sessions.specs.iter().enumerate() {
            if let Err(e) = spec {
                pass.op(&format!("spec {i}"), Err(format!("parse: {e}")));
            }
        }
        for (name, result) in &sessions.cells {
            let outcome = result.as_ref().map_err(Clone::clone).map(|r| {
                pass.batches += r.batches as u64;
                pass.delay_sum_s += r.mean_delay_s * r.batches as f64;
                pass.stable += (r.stable_fraction * r.batches as f64).round() as u64;
                pass.layers.rounds += r.rounds.unwrap_or(0);
                let mut d = Fnv::default();
                d.word(r.batches as u64);
                for v in [
                    r.stable_fraction,
                    r.mean_delay_s,
                    r.mean_processing_s,
                    r.final_interval_s,
                    r.final_executors,
                ] {
                    d.float(v);
                }
                for v in [r.resets, r.converged_round, r.rounds] {
                    d.word(v.map_or(u64::MAX, |x| x));
                }
                d.0
            });
            pass.op(name, outcome);
        }
    }
}
