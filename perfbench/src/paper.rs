//! `paper-tuning`: NoStop sessions on all four paper workloads, built the
//! Fig. 6/7 way (`make_system` + `paper_rate` + `nostop_config`). One step
//! is one `SimSystem::next_batch` as the controller sees it.

use crate::probe::{derive, Fnv, Metered, Pass, Sys, TimedRate, TracedSystem};
use crate::Workload;
use nostop_bench::driver::{make_system, nostop_config, paper_rate};
use nostop_core::controller::NoStop;
use nostop_datagen::rate::RateProcess;
use nostop_workloads::WorkloadKind;
use spark_sim::{EngineParams, StreamConfig, StreamingEngine};
use std::time::Instant;

/// Sessions per paper workload in one pass.
const SEEDS_PER_KIND: usize = 48;
/// Controller rounds each session runs.
const ROUNDS: u64 = 40;

/// A paper-configured system: `make_system` itself on untraced passes, the
/// same engine behind [`TracedSystem`] with a timed rate on traced ones.
pub fn paper_system(
    traced: bool,
    kind: WorkloadKind,
    seed: u64,
    rate: Box<dyn RateProcess>,
) -> Sys {
    if traced {
        Sys::Traced(TracedSystem::new(StreamingEngine::new(
            EngineParams::paper(kind, seed),
            StreamConfig::paper_initial(),
            Box::new(TimedRate(rate)),
        )))
    } else {
        Sys::Plain(make_system(kind, seed, rate))
    }
}

pub struct Session {
    name: String,
    ctrl: NoStop,
    sys: Sys,
    observed: Fnv,
}

pub struct PaperTuning {
    pub seed: u64,
}

impl Workload for PaperTuning {
    type Sessions = Vec<Session>;

    fn setup(&self, pass: &mut Pass) -> Vec<Session> {
        let mut sessions = Vec::with_capacity(WorkloadKind::ALL.len() * SEEDS_PER_KIND);
        for (k, &kind) in WorkloadKind::ALL.iter().enumerate() {
            for j in 0..SEEDS_PER_KIND {
                let seed = derive(self.seed, 0x9A9E_0000 | (k as u64) << 8 | j as u64);
                sessions.push(Session {
                    name: format!("{}#{j}", kind.name()),
                    ctrl: NoStop::new(nostop_config(kind), seed),
                    sys: paper_system(pass.traced, kind, seed, paper_rate(kind, seed ^ 0x5EED)),
                    observed: Fnv::default(),
                });
            }
        }
        sessions
    }

    fn run(&self, sessions: &mut Vec<Session>, pass: &mut Pass) {
        for s in sessions.iter_mut() {
            let mut sys = Metered {
                sys: &mut s.sys,
                steps_ns: &mut pass.steps_ns,
                digest: Fnv::default(),
                sys_ns: 0,
            };
            for _ in 0..ROUNDS {
                if pass.traced {
                    let start = Instant::now();
                    s.ctrl.run_round(&mut sys);
                    pass.layers.round_ns += crate::probe::ns_since(start);
                } else {
                    s.ctrl.run_round(&mut sys);
                }
            }
            pass.layers.round_sys_ns += sys.sys_ns;
            s.observed = sys.digest;
        }
    }

    fn verify(&self, sessions: &mut Vec<Session>, pass: &mut Pass) {
        for s in sessions.iter_mut() {
            s.sys.drain_into(&mut pass.layers);
            pass.layers.rounds += s.ctrl.rounds();
            pass.layers.config_changes += s.ctrl.config_changes();
            let outcome = pass.engine(s.sys.engine()).map(|engine| {
                let mut d = s.observed;
                d.word(engine);
                d.word(s.ctrl.rounds());
                d.word(s.ctrl.config_changes());
                d.0
            });
            pass.op(&s.name, outcome);
        }
    }
}
