//! `tuner-arena`: `BayesOpt` over the 8-knob `ConfigSpace::extended()` on
//! WordCount and PageAnalyze systems. One step is one evaluation:
//! `Tuner::propose` → `measure_config` → `Tuner::observe`.

use crate::paper::paper_system;
use crate::probe::{derive, ns_since, Fnv, Pass, Sys};
use crate::Workload;
use nostop_baselines::{BayesOpt, Tuner};
use nostop_bench::driver::{measure_config, paper_rate, penalized_objective, stats_of, RunStats};
use nostop_core::space::ConfigSpace;
use nostop_core::system::{BatchObservation, StreamingSystem};
use nostop_workloads::WorkloadKind;
use std::time::Instant;

const KINDS: [WorkloadKind; 2] = [WorkloadKind::WordCount, WorkloadKind::PageAnalyze];
const SESSIONS_PER_KIND: usize = 64;
/// Evaluations per session: the GP ends with this many points.
const EVALS: usize = 104;

pub struct Session {
    name: String,
    tuner: BayesOpt,
    sys: Sys,
    evaluated: Fnv,
}

pub struct TunerArena {
    pub seed: u64,
}

/// `measure_config` over any system: the traced passes run this copy on
/// the traced system, and must reproduce the untraced digests exactly.
fn measure<S: StreamingSystem>(
    sys: &mut S,
    physical: &[f64],
    batches: usize,
    settle: usize,
) -> RunStats {
    sys.apply_config(physical);
    for _ in 0..settle {
        let b = sys.next_batch();
        if (b.interval_s - physical[0]).abs() < 0.051 && b.queued_batches == 0 {
            break;
        }
    }
    let window: Vec<BatchObservation> = (0..batches).map(|_| sys.next_batch()).collect();
    stats_of(&window)
}

impl Workload for TunerArena {
    type Sessions = Vec<Session>;

    fn setup(&self, pass: &mut Pass) -> Vec<Session> {
        let mut sessions = Vec::with_capacity(KINDS.len() * SESSIONS_PER_KIND);
        for (k, &kind) in KINDS.iter().enumerate() {
            for j in 0..SESSIONS_PER_KIND {
                let seed = derive(self.seed, 0xA4E7_0000 | (k as u64) << 8 | j as u64);
                sessions.push(Session {
                    name: format!("{}#{j}", kind.name()),
                    tuner: BayesOpt::new(ConfigSpace::extended(), seed),
                    sys: paper_system(pass.traced, kind, seed, paper_rate(kind, seed ^ 0x5EED)),
                    evaluated: Fnv::default(),
                });
            }
        }
        sessions
    }

    fn run(&self, sessions: &mut Vec<Session>, pass: &mut Pass) {
        for s in sessions.iter_mut() {
            for _ in 0..EVALS {
                let start = Instant::now();
                let physical = s.tuner.propose();
                let proposed = Instant::now();
                let stats = match &mut s.sys {
                    Sys::Plain(sys) => measure_config(sys, &physical, 3, 15),
                    Sys::Traced(sys) => measure(sys, &physical, 3, 15),
                };
                let objective = penalized_objective(physical[0], &stats);
                let measured = Instant::now();
                s.tuner.observe(&physical, objective);
                pass.steps_ns.push(ns_since(start));
                if pass.traced {
                    pass.layers
                        .propose_ns
                        .push((proposed - start).as_nanos() as u64);
                    pass.layers.observe_ns.push(ns_since(measured));
                }
                for &v in &physical {
                    s.evaluated.float(v);
                }
                s.evaluated.float(objective);
            }
        }
    }

    fn verify(&self, sessions: &mut Vec<Session>, pass: &mut Pass) {
        for s in sessions.iter_mut() {
            s.sys.drain_into(&mut pass.layers);
            let outcome = pass.engine(s.sys.engine()).and_then(|engine| {
                if s.tuner.evaluations() != EVALS {
                    return Err(format!(
                        "{} evaluations, expected {EVALS}",
                        s.tuner.evaluations()
                    ));
                }
                let mut d = s.evaluated;
                d.word(engine);
                Ok(d.0)
            });
            pass.op(&s.name, outcome);
        }
    }
}
