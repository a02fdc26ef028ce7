//! The benchmark trajectory — writes `BENCH_perf.json`.
//!
//! Times two layers and records the numbers the performance work is
//! judged by:
//!
//! 1. **Engine matrix** — the DES hot path, single-threaded: a fixed
//!    matrix of `(workload, interval, executors)` cells, each simulating a
//!    few hundred batches on one `StreamingEngine`. Reported as wall time
//!    and simulated batches per second (the unit the scheduler/broker
//!    optimizations move).
//! 2. **Driver matrix** — the experiment fabric: fig7-style and
//!    fig8-style cell grids run twice, once with `NOSTOP_JOBS=1` and once
//!    with the configured worker count. On a multi-core host the second
//!    pass shows the fan-out speedup; on a single-core host it honestly
//!    shows ~1× (the fabric's value there is the byte-identity contract,
//!    not throughput).
//!
//! Plus three single-cell rows: the incremental GP surrogate fit
//! (`gp_fit_256`, the tuner arena's steady state), the adversarial
//! scenario stack (flash crowds + hot-key skew through the
//! `scenario_runner` library), and the steady multi-tenant fleet.
//!
//! Also records the peak RSS (`VmHWM` from `/proc/self/status`, a proxy
//! for the bounded-listener memory guarantee) and the worker counts.
//! Non-deterministic by construction (it measures wall time); everything
//! else in the harness stays deterministic.
//!
//! Engine cells run `NOSTOP_PERF_REPEATS` times (default 3) and keep the
//! best wall time — on shared hosts the best-of-N is the least polluted
//! estimate of what the code costs.
//!
//! `perf_report --smoke [path]` is the CI guard: it re-times the engine
//! matrix and exits non-zero if any cell panics, lands more than 25%
//! below the throughput committed in `BENCH_perf.json` (or `path`), or
//! has no usable committed baseline at all (a stale report is a distinct
//! hard failure, never a silent pass). Nothing is written in smoke mode.

use nostop_baselines::BayesOpt;
use nostop_bench::driver::{
    make_system, measure_config, nostop_config, paper_rate, run_nostop, run_tuner,
};
use nostop_bench::parallel::{grid, jobs, map_cells_weighted};
use nostop_bench::scenario::run_method;
use nostop_bench::smoke::engine_baseline;
use nostop_core::arbiter::ArbiterPolicy;
use nostop_core::scenario::{ClusterKind, RateSpec, ScenarioSpec, SkewSpec};
use nostop_core::system::StreamingSystem;
use nostop_datagen::rate::ConstantRate;
use nostop_simcore::json::{self, Json};
use nostop_simcore::SimDuration;
use nostop_workloads::{CostModel, WorkloadKind};
use spark_sim::fleet::{FleetSim, TenantSpec};
use spark_sim::{EngineParams, SimSystem, StreamConfig, StreamingEngine};
use std::time::Instant;

const ENGINE_BATCHES: usize = 300;
const DRIVER_SEEDS: [u64; 2] = [11, 22];
const FIG8_ROUNDS: u64 = 12;
const BO_ITERATIONS: usize = 15;
/// Throughput floor for `--smoke`: fail below 75% of the committed number.
const SMOKE_FLOOR: f64 = 0.75;

/// Fleet smoke cell: a steady multi-tenant fleet run long enough that
/// most epochs are quiescent, single-threaded so the number tracks
/// per-core work (the worker pool is the driver matrix's story, not this
/// cell's). The cell's story is the sparse fast path: after the arming
/// runway (~25 dense epochs while controllers park and windows cap) the
/// remaining epochs replay in closed form, so epochs/s measures the
/// skip machinery, not the DES.
const FLEET_TENANTS: u32 = 32;
const FLEET_EPOCHS: u64 = 128;
const FLEET_BUDGET: u32 = 640;
/// `--smoke` scale guard: a 2,000-tenant steady fleet must complete with
/// the fast path engaged (skipped epochs > 0).
const SCALE_TENANTS: u32 = 2_000;
const SCALE_EPOCHS: u64 = 40;

/// The committed engine matrix: `(workload, interval_s, executors)`.
const MATRIX: [(WorkloadKind, f64, u32); 6] = [
    (WorkloadKind::LogisticRegression, 15.0, 14),
    (WorkloadKind::LinearRegression, 15.0, 14),
    (WorkloadKind::WordCount, 15.0, 8),
    (WorkloadKind::PageAnalyze, 15.0, 8),
    (WorkloadKind::WordCount, 2.0, 8),
    (WorkloadKind::WordCount, 40.0, 8),
];

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Engine-cell repeat count: `NOSTOP_PERF_REPEATS` (clamped ≥ 1), else 3.
fn engine_repeats() -> usize {
    std::env::var("NOSTOP_PERF_REPEATS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(3usize)
        .max(1)
}

/// One engine-matrix cell: simulate `ENGINE_BATCHES` batches at a fixed
/// configuration and return the simulated virtual seconds covered.
fn run_engine_cell(kind: WorkloadKind, interval_s: f64, executors: u32) -> f64 {
    let engine = StreamingEngine::new(
        EngineParams::paper(kind, 7),
        StreamConfig::new(SimDuration::from_secs_f64(interval_s), executors),
        Box::new(ConstantRate::new(match kind {
            WorkloadKind::LogisticRegression | WorkloadKind::LinearRegression => 10_000.0,
            _ => 120_000.0,
        })),
    );
    let mut sys = SimSystem::new(engine);
    let mut virtual_s = 0.0;
    for _ in 0..ENGINE_BATCHES {
        virtual_s += sys.next_batch().interval_s;
    }
    virtual_s
}

/// A fig7-shaped driver cell: measure the default configuration, then a
/// short managed run. Much smaller than the real fig7 cell but the same
/// code path (engine + controller + measurement protocol).
fn fig7_style_cell(kind: WorkloadKind, seed: u64) -> f64 {
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0xDEF));
    let default = measure_config(&mut sys, &[20.5, 10.0], 8, 15)
        .end_to_end
        .mean;
    let (run, _) = run_nostop(kind, seed, FIG8_ROUNDS);
    default + run.virtual_time_s
}

/// A fig8-shaped driver cell: a short SPSA run plus a short BO run.
fn fig8_style_cell(kind: WorkloadKind, seed: u64) -> f64 {
    let (run, _) = run_nostop(kind, seed, FIG8_ROUNDS);
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0x0B0));
    let mut tuner = BayesOpt::new(nostop_config(kind).space, seed);
    let bo = run_tuner(&mut tuner, &mut sys, BO_ITERATIONS);
    run.virtual_time_s + bo.virtual_time_s
}

/// Relative host-time weight of one driver cell: the cost model's
/// closed-form estimate for a nominal paper batch. Only the ordering
/// matters (heaviest workloads get scheduled first).
fn cell_weight(kind: WorkloadKind) -> f64 {
    let rate = match kind {
        WorkloadKind::LogisticRegression | WorkloadKind::LinearRegression => 10_000.0,
        _ => 120_000.0,
    };
    CostModel::preset(kind).estimate_processing_secs((rate * 15.0) as u64, 8, 75)
}

/// Time one driver grid at a given worker count; returns `(wall_ms, sum)`
/// where the sum pins the work against dead-code elimination and lets the
/// two passes assert they computed the same thing.
fn time_grid(jobs_env: usize, cell: impl Fn(WorkloadKind, u64) -> f64 + Sync) -> (f64, f64) {
    std::env::set_var("NOSTOP_JOBS", jobs_env.to_string());
    let cells = grid(&WorkloadKind::ALL, &DRIVER_SEEDS);
    let (results, wall) = time_ms(|| {
        map_cells_weighted(
            &cells,
            |&(kind, _)| cell_weight(kind),
            |&(kind, seed)| cell(kind, seed),
        )
    });
    (wall, results.iter().sum())
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Best-of-`repeats` engine cell: `(virtual_s, best_wall_ms)`.
fn best_engine_cell(
    kind: WorkloadKind,
    interval: f64,
    executors: u32,
    repeats: usize,
) -> (f64, f64) {
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..repeats {
        let (virtual_s, wall) = time_ms(|| run_engine_cell(kind, interval, executors));
        if best.map(|(_, w)| wall < w).unwrap_or(true) {
            best = Some((virtual_s, wall));
        }
    }
    best.expect("at least one repeat")
}

/// One fleet cell: run the steady 32-tenant fleet on one worker and
/// return its deterministic digest (pins the work against DCE and lets
/// repeats assert they simulated the same fleet). Steady tenants park
/// and arm, so the bulk of the epochs exercise the quiescent-tenant
/// fast-forward and the delta-driven arbiter barrier.
fn run_fleet_cell() -> u64 {
    let specs: Vec<TenantSpec> = (0..FLEET_TENANTS)
        .map(|i| {
            let kind = if i % 2 == 0 {
                WorkloadKind::WordCount
            } else {
                WorkloadKind::PageAnalyze
            };
            let mut spec = TenantSpec::steady(kind, 7, i);
            spec.priority = 1 + (i % 5);
            spec
        })
        .collect();
    let mut fleet = FleetSim::new(&specs, Some(FLEET_BUDGET), ArbiterPolicy::FairShare);
    fleet.set_jobs(1);
    fleet.run_epochs(FLEET_EPOCHS);
    fleet.digest()
}

/// Best-of-`repeats` fleet cell: `(digest, best_wall_ms)`.
fn best_fleet_cell(repeats: usize) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..repeats {
        let (digest, wall) = time_ms(run_fleet_cell);
        if let Some((prev, _)) = best {
            assert_eq!(prev, digest, "fleet cell digest changed between repeats");
        }
        if best.map(|(_, w)| wall < w).unwrap_or(true) {
            best = Some((digest, wall));
        }
    }
    best.expect("at least one repeat")
}

/// Scenario smoke cell: horizon of the adversarial-arrivals run.
const SCENARIO_HORIZON_S: f64 = 600.0;

/// The inline spec for the scenario cell: flash crowds over a constant
/// base with hot-key partition skew, driven by the static default —
/// exercising the scenario stack end to end (combinators + skewed broker
/// + skew-stretched engine) without any controller variance.
fn scenario_cell_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "perf-smoke".into(),
        workload: "wordcount".into(),
        cluster: ClusterKind::Paper,
        seed: 17,
        rate_seed: None,
        horizon_s: SCENARIO_HORIZON_S,
        rounds: None,
        methods: vec!["static".into()],
        rate: RateSpec::FlashCrowd {
            base: Box::new(RateSpec::Constant { rate: 150_000.0 }),
            mean_gap_secs: 120.0,
            crowd_secs: 45.0,
            pareto_shape: 1.5,
            min_magnitude: 1.5,
            max_magnitude: 3.0,
        },
        skew: SkewSpec::HotKey {
            hot_fraction: 0.125,
            hot_weight: 6.0,
        },
        faults: vec![],
    }
}

/// One scenario cell: replay the inline adversarial spec with the static
/// default and return the batch count (deterministic — repeats assert
/// they simulated the same run).
fn run_scenario_cell() -> u64 {
    let spec = scenario_cell_spec();
    let r = run_method(&spec, "static").expect("scenario smoke cell runs");
    r.batches as u64
}

/// Best-of-`repeats` scenario cell: `(batches, best_wall_ms)`.
fn best_scenario_cell(repeats: usize) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..repeats {
        let (batches, wall) = time_ms(run_scenario_cell);
        if let Some((prev, _)) = best {
            assert_eq!(
                prev, batches,
                "scenario cell batch count changed between repeats"
            );
        }
        if best.map(|(_, w)| wall < w).unwrap_or(true) {
            best = Some((batches, wall));
        }
    }
    best.expect("at least one repeat")
}

/// GP smoke cell: observations in the incremental fit (the tuner arena's
/// surrogate at full budget ×~5).
const GP_OBSERVATIONS: usize = 256;
const GP_DIM: usize = 8;

/// One GP cell: fit a [`GP_OBSERVATIONS`]-point surrogate through the
/// incremental add path (the BayesOpt steady state) and return a
/// posterior checksum that pins the work and lets repeats assert they
/// fitted the same model.
fn run_gp_cell() -> f64 {
    use nostop_baselines::gp::{GaussianProcess, Kernel};
    let mut rng = nostop_simcore::SimRng::seed_from_u64(29);
    let mut gp = GaussianProcess::new(Kernel::default()).with_incremental(true);
    for _ in 0..GP_OBSERVATIONS {
        let x: Vec<f64> = (0..GP_DIM).map(|_| rng.uniform(1.0, 20.0)).collect();
        let y = rng.uniform(-10.0, 10.0);
        gp.add(&x, y);
    }
    let (m, v) = gp.posterior(&[10.5; GP_DIM]);
    m + v
}

/// Best-of-`repeats` GP cell: `(checksum, best_wall_ms)`.
fn best_gp_cell(repeats: usize) -> (f64, f64) {
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..repeats {
        let (check, wall) = time_ms(run_gp_cell);
        if let Some((prev, _)) = best {
            assert_eq!(
                prev.to_bits(),
                check.to_bits(),
                "gp cell checksum changed between repeats"
            );
        }
        if best.map(|(_, w)| wall < w).unwrap_or(true) {
            best = Some((check, wall));
        }
    }
    best.expect("at least one repeat")
}

/// Find the committed `gp_adds_per_s` for the `gp_fit_256` smoke row.
fn gp_baseline(committed: &Json) -> Result<f64, String> {
    let gp = committed
        .get("gp_fit_256")
        .ok_or_else(|| "no committed gp_fit_256 section".to_string())?;
    match gp.field_f64("gp_adds_per_s") {
        Ok(aps) if aps > 0.0 && aps.is_finite() => Ok(aps),
        Ok(aps) => Err(format!(
            "gp_adds_per_s = {aps} (must be a positive finite number)"
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Find the committed `scenario_batches_per_s` for the scenario smoke row.
fn scenario_baseline(committed: &Json) -> Result<f64, String> {
    let sc = committed
        .get("scenario")
        .ok_or_else(|| "no committed scenario section".to_string())?;
    match sc.field_f64("scenario_batches_per_s") {
        Ok(bps) if bps > 0.0 && bps.is_finite() => Ok(bps),
        Ok(bps) => Err(format!(
            "scenario_batches_per_s = {bps} (must be a positive finite number)"
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Find the committed `fleet_epochs_per_s` for the fleet smoke row.
fn fleet_baseline(committed: &Json) -> Result<f64, String> {
    let fleet = committed
        .get("fleet")
        .ok_or_else(|| "no committed fleet section".to_string())?;
    match fleet.field_f64("fleet_epochs_per_s") {
        Ok(eps) if eps > 0.0 && eps.is_finite() => Ok(eps),
        Ok(eps) => Err(format!(
            "fleet_epochs_per_s = {eps} (must be a positive finite number)"
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// CI smoke guard: re-time the engine matrix and compare against the
/// committed report at `path`. Returns the process exit code.
fn smoke(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke: cannot read {path}: {e}");
            return 1;
        }
    };
    let committed = Json::parse(&text).expect("committed report parses");
    let rows = committed
        .field_array("engine_matrix")
        .expect("engine_matrix array");
    let repeats = engine_repeats();
    let mut regressed = 0;
    let mut unusable = 0;
    for &(kind, interval, executors) in &MATRIX {
        let base_bps = match engine_baseline(rows, kind.name(), interval, executors) {
            Ok(bps) => bps,
            Err(e) => {
                // A cell the committed report cannot price is a hard
                // failure in its own right — NOT a pass, and NOT counted
                // as a regression (nothing got slower; the baseline is
                // stale or corrupt and must be regenerated).
                eprintln!(
                    "smoke: {} @ {interval}s × {executors}: {e} — \
                     regenerate {path} with `perf_report`",
                    kind.name()
                );
                unusable += 1;
                continue;
            }
        };
        let (_, wall) = best_engine_cell(kind, interval, executors, repeats);
        let bps = ENGINE_BATCHES as f64 / (wall / 1e3);
        let ratio = bps / base_bps;
        let verdict = if ratio >= SMOKE_FLOOR { "ok" } else { "FAIL" };
        println!(
            "smoke {:<22} {interval:>5.1}s x{executors:<3} {bps:>9.0} b/s vs {base_bps:>9.0} committed  ({ratio:.2}x) {verdict}",
            kind.name()
        );
        if ratio < SMOKE_FLOOR {
            regressed += 1;
        }
    }
    // 2,000-tenant scale row: a steady fleet at real fleet scale must
    // complete with the sparse fast path engaged. No committed baseline
    // — this is a functional floor (the fast path exists and engages at
    // scale), not a throughput comparison, so it runs once.
    {
        let start = Instant::now();
        let specs: Vec<TenantSpec> = (0..SCALE_TENANTS)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    WorkloadKind::WordCount
                } else {
                    WorkloadKind::PageAnalyze
                };
                TenantSpec::steady(kind, 2026, i)
            })
            .collect();
        let mut fleet = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
        fleet.set_jobs(1);
        fleet.enable_ledger_checkpointing(4_096);
        fleet.run_epochs(SCALE_EPOCHS);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let eps = SCALE_EPOCHS as f64 / (wall_ms / 1e3);
        fleet
            .arbiter()
            .check_conservation()
            .expect("2000-tenant ledger conserves");
        let skipped = fleet.total_skipped_epochs();
        if fleet.fastpath_enabled() && skipped == 0 {
            eprintln!("smoke: 2000-tenant steady fleet never fast-forwarded");
            regressed += 1;
        }
        println!(
            "smoke {:<22} {SCALE_TENANTS:>3}t x{SCALE_EPOCHS:<4} {eps:>9.1} ep/s  skipped={skipped} ok",
            "fleet(2000 steady)"
        );
    }
    // GP smoke row: the incremental surrogate fit. Same floor, same
    // stale-vs-slow distinction — a missing gp_fit_256 section is a
    // stale report, not a regression, and still fails hard.
    match gp_baseline(&committed) {
        Ok(base_aps) => {
            let (_, wall) = best_gp_cell(repeats);
            let aps = GP_OBSERVATIONS as f64 / (wall / 1e3);
            let ratio = aps / base_aps;
            let verdict = if ratio >= SMOKE_FLOOR { "ok" } else { "FAIL" };
            println!(
                "smoke {:<22} {GP_OBSERVATIONS:>3}obs dim{GP_DIM} {aps:>9.0} add/s vs {base_aps:>9.0} committed  ({ratio:.2}x) {verdict}",
                "gp_fit_256"
            );
            if ratio < SMOKE_FLOOR {
                regressed += 1;
            }
        }
        Err(e) => {
            eprintln!("smoke: gp_fit_256 cell: {e} — regenerate {path} with `perf_report`");
            unusable += 1;
        }
    }
    // Fleet smoke row: same floor, same stale-vs-slow distinction as the
    // engine cells — a missing fleet section is a stale report, not a
    // regression, and still fails hard.
    match fleet_baseline(&committed) {
        Ok(base_eps) => {
            let (_, wall) = best_fleet_cell(repeats);
            let eps = FLEET_EPOCHS as f64 / (wall / 1e3);
            let ratio = eps / base_eps;
            let verdict = if ratio >= SMOKE_FLOOR { "ok" } else { "FAIL" };
            println!(
                "smoke {:<22} {FLEET_TENANTS:>3}t x{FLEET_EPOCHS:<4} {eps:>9.1} ep/s vs {base_eps:>9.1} committed  ({ratio:.2}x) {verdict}",
                "fleet(steady)"
            );
            if ratio < SMOKE_FLOOR {
                regressed += 1;
            }
        }
        Err(e) => {
            eprintln!("smoke: fleet cell: {e} — regenerate {path} with `perf_report`");
            unusable += 1;
        }
    }
    // Scenario smoke row: the adversarial scenario stack (flash crowds +
    // hot-key skew through `scenario_runner`'s library). Same floor, same
    // stale-vs-slow distinction — a missing scenario section is a stale
    // report, not a regression, and still fails hard.
    match scenario_baseline(&committed) {
        Ok(base_bps) => {
            let (batches, wall) = best_scenario_cell(repeats);
            let bps = batches as f64 / (wall / 1e3);
            let ratio = bps / base_bps;
            let verdict = if ratio >= SMOKE_FLOOR { "ok" } else { "FAIL" };
            println!(
                "smoke {:<22} {SCENARIO_HORIZON_S:>4.0}s x{batches:<4} {bps:>9.1} b/s vs {base_bps:>9.1} committed  ({ratio:.2}x) {verdict}",
                "scenario(adversarial)"
            );
            if ratio < SMOKE_FLOOR {
                regressed += 1;
            }
        }
        Err(e) => {
            eprintln!("smoke: scenario cell: {e} — regenerate {path} with `perf_report`");
            unusable += 1;
        }
    }
    if regressed > 0 {
        eprintln!("smoke: {regressed} cell(s) regressed >25% vs {path}");
    }
    if unusable > 0 {
        eprintln!(
            "smoke: {unusable} matrix cell(s) missing from or unusable in {path} — \
             the committed report is stale, not the code slow"
        );
    }
    if regressed + unusable > 0 {
        1
    } else {
        println!(
            "smoke: engine matrix + gp + scenario + fleet cells within 25% of committed throughput"
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    if smoke_mode {
        std::process::exit(smoke(&path));
    }

    let configured_jobs = jobs();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- Layer 1: engine matrix, single-threaded, best-of-N ---
    let repeats = engine_repeats();
    let mut engine_rows = Vec::new();
    for &(kind, interval, executors) in &MATRIX {
        let (virtual_s, wall) = best_engine_cell(kind, interval, executors, repeats);
        engine_rows.push(json::obj(vec![
            ("workload", json::str(kind.name())),
            ("interval_s", json::num(interval)),
            ("executors", json::uint(executors as u64)),
            ("batches", json::uint(ENGINE_BATCHES as u64)),
            ("wall_ms", json::num(wall)),
            (
                "sim_batches_per_s",
                json::num(ENGINE_BATCHES as f64 / (wall / 1e3)),
            ),
            ("virtual_s_simulated", json::num(virtual_s)),
        ]));
    }

    // --- Layer 2: driver grids, serial vs parallel ---
    let mut driver_rows = Vec::new();
    for (name, cell) in [
        (
            "fig7_style",
            &fig7_style_cell as &(dyn Fn(WorkloadKind, u64) -> f64 + Sync),
        ),
        ("fig8_style", &fig8_style_cell),
    ] {
        let (serial_ms, serial_sum) = time_grid(1, cell);
        // With one job the "parallel" pass would re-run the identical
        // serial code and report a fake ~1× "speedup" (previously dressed
        // up as a `degraded` flag). Skip the comparison and say why
        // instead: a single-worker host has no fan-out to measure.
        let comparison = if configured_jobs > 1 {
            let (parallel_ms, parallel_sum) = time_grid(configured_jobs, cell);
            assert_eq!(
                serial_sum.to_bits(),
                parallel_sum.to_bits(),
                "fabric determinism violated in {name}"
            );
            Some((parallel_ms, serial_ms / parallel_ms))
        } else {
            None
        };
        driver_rows.push(json::obj(vec![
            ("grid", json::str(name)),
            (
                "cells",
                json::uint((WorkloadKind::ALL.len() * DRIVER_SEEDS.len()) as u64),
            ),
            ("serial_wall_ms", json::num(serial_ms)),
            (
                "parallel_wall_ms",
                comparison
                    .map(|(ms, _)| json::num(ms))
                    .unwrap_or(Json::Null),
            ),
            ("parallel_jobs", json::uint(configured_jobs as u64)),
            (
                "speedup",
                comparison.map(|(_, s)| json::num(s)).unwrap_or(Json::Null),
            ),
            (
                "parallel_comparison",
                if comparison.is_some() {
                    json::str("measured")
                } else {
                    json::str("n/a: single job configured, nothing to fan out")
                },
            ),
        ]));
    }

    // --- Layer 3: GP surrogate fit, single-threaded, best-of-N ---
    let (gp_check, gp_wall) = best_gp_cell(repeats);
    let gp_row = json::obj(vec![
        ("observations", json::uint(GP_OBSERVATIONS as u64)),
        ("dim", json::uint(GP_DIM as u64)),
        ("wall_ms", json::num(gp_wall)),
        (
            "gp_adds_per_s",
            json::num(GP_OBSERVATIONS as f64 / (gp_wall / 1e3)),
        ),
        ("posterior_check", json::num(gp_check)),
    ]);

    // --- Layer 3b: adversarial scenario cell, single-threaded, best-of-N ---
    let (scenario_batches, scenario_wall) = best_scenario_cell(repeats);
    let scenario_row = json::obj(vec![
        ("horizon_s", json::num(SCENARIO_HORIZON_S)),
        ("batches", json::uint(scenario_batches)),
        ("wall_ms", json::num(scenario_wall)),
        (
            "scenario_batches_per_s",
            json::num(scenario_batches as f64 / (scenario_wall / 1e3)),
        ),
    ]);

    // --- Layer 4: fleet cell, single-threaded, best-of-N ---
    let (fleet_digest, fleet_wall) = best_fleet_cell(repeats);
    let fleet_row = json::obj(vec![
        ("tenants", json::uint(FLEET_TENANTS as u64)),
        ("epochs", json::uint(FLEET_EPOCHS)),
        ("budget", json::uint(FLEET_BUDGET as u64)),
        ("policy", json::str(ArbiterPolicy::FairShare.name())),
        ("wall_ms", json::num(fleet_wall)),
        (
            "fleet_epochs_per_s",
            json::num(FLEET_EPOCHS as f64 / (fleet_wall / 1e3)),
        ),
        ("digest", json::str(format!("{fleet_digest:016x}"))),
    ]);

    let report = json::obj(vec![
        ("schema", json::str("nostop-perf/1")),
        ("configured_jobs", json::uint(configured_jobs as u64)),
        ("available_parallelism", json::uint(parallelism as u64)),
        ("engine_repeats", json::uint(repeats as u64)),
        ("engine_matrix", Json::Arr(engine_rows)),
        ("driver_grids", Json::Arr(driver_rows)),
        ("gp_fit_256", gp_row),
        ("scenario", scenario_row),
        ("fleet", fleet_row),
        (
            "peak_rss_kb",
            peak_rss_kb().map(json::uint).unwrap_or(Json::Null),
        ),
    ]);

    let text = report.to_string_pretty();
    std::fs::write(&path, format!("{text}\n")).expect("write BENCH_perf.json");
    println!("{text}");
    eprintln!("wrote {path}");
}
