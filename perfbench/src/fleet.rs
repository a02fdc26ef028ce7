//! `fleet-steady`: `FleetSim`s of `TenantSpec::steady` WordCount /
//! PageAnalyze tenants under a fair-share budget, on one worker, stepped
//! far past the arming runway so the sparse fast path carries most
//! epochs. One step is one `FleetSim::step_epoch`.

use crate::probe::{derive, ns_since, Fnv, Pass};
use crate::Workload;
use nostop_core::arbiter::ArbiterPolicy;
use nostop_workloads::WorkloadKind;
use spark_sim::{FleetSim, TenantSpec};
use std::time::Instant;

/// Fleets in one pass, each from its own seed and stepped one after the
/// other. Two, not one: a pass's step p90 then rests on twice the epochs
/// and on two tenant mixes, which halved its spread across seeds.
const FLEETS: u64 = 2;
const TENANTS: u32 = 128;
const EPOCHS: u64 = 160;
/// Fleet-wide executors: 10 per tenant, below the 20-executor ceiling a
/// tenant may ask for, so the arbiter has real sharing to decide.
const BUDGET: u32 = 10 * TENANTS;

pub struct FleetSteady {
    pub seed: u64,
}

fn build_fleet(seed: u64) -> FleetSim {
    let fleet_seed = derive(seed, 0xF1EE7);
    // Tenant ids come from the seed too: they pick each tenant's RNG
    // streams and its steady rate.
    let first_id = (derive(seed, 0x1D) % 100_000) as u32;
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|i| {
            let kind = if i % 2 == 0 {
                WorkloadKind::WordCount
            } else {
                WorkloadKind::PageAnalyze
            };
            let mut spec = TenantSpec::steady(kind, fleet_seed, first_id + i);
            spec.priority = 1 + i % 5;
            spec
        })
        .collect();
    let mut fleet = FleetSim::new(&specs, Some(BUDGET), ArbiterPolicy::FairShare);
    fleet.set_jobs(1);
    fleet
}

impl Workload for FleetSteady {
    type Sessions = Vec<FleetSim>;

    fn setup(&self, _pass: &mut Pass) -> Vec<FleetSim> {
        (0..FLEETS)
            .map(|f| build_fleet(derive(self.seed, 0xF1EE_0000 | f)))
            .collect()
    }

    fn run(&self, fleets: &mut Vec<FleetSim>, pass: &mut Pass) {
        for fleet in fleets.iter_mut() {
            for _ in 0..EPOCHS {
                let skipped = fleet.total_skipped_epochs();
                let start = Instant::now();
                fleet.step_epoch();
                let ns = ns_since(start);
                pass.steps_ns.push(ns);
                if pass.traced {
                    if fleet.total_skipped_epochs() > skipped {
                        pass.layers.quiet_epoch_ns.push(ns);
                    } else {
                        pass.layers.dense_epoch_ns.push(ns);
                    }
                }
            }
        }
    }

    fn verify(&self, fleets: &mut Vec<FleetSim>, pass: &mut Pass) {
        for fleet in fleets.iter() {
            verify_fleet(fleet, pass);
        }
    }
}

fn verify_fleet(fleet: &FleetSim, pass: &mut Pass) {
    let mut failures = Vec::new();
    let mut digest = Fnv(fleet.digest());
    for i in 0..fleet.tenants() {
        match pass.engine(fleet.tenant_system(i).engine()) {
            Ok(d) => digest.word(d),
            Err(e) => failures.push(format!("tenant {i}: {e}")),
        }
        let ctrl = fleet.tenant_controller(i);
        pass.layers.rounds += ctrl.rounds();
        pass.layers.config_changes += ctrl.config_changes();
    }
    let arbiter = fleet.arbiter();
    if let Err(e) = arbiter.check_conservation() {
        failures.push(format!("arbiter ledger: {e}"));
    }
    let l = &mut pass.layers;
    l.epochs += fleet.epoch();
    l.tenant_epochs += fleet.epoch() * fleet.tenants() as u64;
    l.skipped_epochs += fleet.total_skipped_epochs();
    l.would_skip_epochs += fleet.would_skip_epochs();
    l.ledger_events += arbiter.ledger().len() as u64;
    l.coalesced_rounds += arbiter.stats().coalesced_rounds;
    let outcome = if failures.is_empty() {
        Ok(digest.0)
    } else {
        Err(failures.join("; "))
    };
    pass.op("fleet", outcome);
}
