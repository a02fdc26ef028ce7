//! End-to-end and per-layer benchmark of the NoStop reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats passes over the workload until `--seconds` have gone by.
//! Each pass builds every session from the seed (timed as set-up), runs
//! every step closed-loop on one thread (the timed phase), then checks
//! every operation's outputs. Step and throughput timings are read at the
//! slow decile over passes (see [`SLOW_DECILE`]), set-up time at the
//! median; the deterministic figures come from the passes themselves and
//! must repeat exactly. `--trace 1` alternates untraced and traced passes and prints
//! the per-layer metrics instead. The last line of stdout is one JSON
//! object; see README.md for every metric.

mod alloc;
mod arena;
mod corpus;
mod fleet;
mod paper;
mod probe;

use probe::{median_us, quantile, Pass};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest passes of each kind a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Quantile over passes at which timings are read: the slowest tenth of
/// passes, i.e. p90 of times and p10 of throughput. The host alternates
/// between a contended speed it returns to again and again and faster
/// spells of a few seconds; the median over a run lands in one or the
/// other depending on how long the spells last, while the slow decile
/// stays on the contended speed (README.md, noise findings).
const SLOW_DECILE: f64 = 0.9;

/// Largest share of traced wall time the layers may leave unattributed.
const MAX_OTHER_SHARE: f64 = 0.1;

/// One benchmark workload: a set of sessions built from the seed.
pub trait Workload {
    type Sessions;
    /// Build every session, tenant or parsed spec one pass runs.
    fn setup(&self, pass: &mut Pass) -> Self::Sessions;
    /// The timed phase: every step, closed-loop.
    fn run(&self, sessions: &mut Self::Sessions, pass: &mut Pass);
    /// Account and check every operation's outputs (untimed).
    fn verify(&self, sessions: &mut Self::Sessions, pass: &mut Pass);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One pass and what the harness measured around it.
struct PassRun {
    pass: Pass,
    setup_s: f64,
    wall_s: f64,
    peak_bytes: usize,
    allocs: u64,
}

fn one_pass<W: Workload>(w: &W, traced: bool, steps_hint: usize) -> PassRun {
    let mut pass = Pass::new(traced, steps_hint);
    let base = alloc::reset_peak();
    let start = Instant::now();
    let mut sessions = w.setup(&mut pass);
    let setup_s = start.elapsed().as_secs_f64();
    let calls = alloc::calls();
    probe::take_rate_counters();
    let start = Instant::now();
    w.run(&mut sessions, &mut pass);
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = alloc::calls() - calls;
    let peak_bytes = alloc::peak() - base;
    (pass.layers.rate_ns, pass.layers.rate_calls) = probe::take_rate_counters();
    w.verify(&mut sessions, &mut pass);
    drop(sessions);
    PassRun {
        pass,
        setup_s,
        wall_s,
        peak_bytes,
        allocs,
    }
}

/// Run passes until `seconds` have gone by (at least [`MIN_PASSES`] of
/// each kind). With `trace`, untraced and traced passes alternate.
fn run_passes<W: Workload>(w: &W, seconds: f64, trace: bool) -> Vec<PassRun> {
    let kinds = if trace { 2 } else { 1 };
    let start = Instant::now();
    let mut runs: Vec<PassRun> = Vec::new();
    loop {
        let traced = trace && runs.len() % 2 == 1;
        let hint = runs.last().map_or(0, |r| r.pass.steps_ns.len());
        let run = one_pass(w, traced, hint);
        eprintln!(
            "pass {:>3} {}: set-up {:.3} ms, timed {:.1} ms, {} batches",
            runs.len(),
            if traced { "traced  " } else { "untraced" },
            run.setup_s * 1e3,
            run.wall_s * 1e3,
            run.pass.batches
        );
        runs.push(run);
        let done = start.elapsed().as_secs_f64() >= seconds;
        if done && runs.len() >= MIN_PASSES * kinds && runs.len().is_multiple_of(kinds) {
            return runs;
        }
    }
}

/// `num / den`, 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(runs: &[&PassRun], f: impl Fn(&PassRun) -> f64) -> f64 {
    quantile_of(runs, 0.5, f)
}

fn quantile_of(runs: &[&PassRun], q: f64, f: impl Fn(&PassRun) -> f64) -> f64 {
    let mut xs: Vec<f64> = runs.iter().map(|r| f(r)).collect();
    quantile(&mut xs, q)
}

/// A time over passes, read at the slow decile.
fn slow_time(runs: &[&PassRun], f: impl Fn(&PassRun) -> f64) -> f64 {
    quantile_of(runs, SLOW_DECILE, f)
}

/// A throughput over passes, read at the slow decile.
fn slow_rate(runs: &[&PassRun], f: impl Fn(&PassRun) -> f64) -> f64 {
    quantile_of(runs, 1.0 - SLOW_DECILE, f)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn end_to_end(untraced: &[&PassRun]) -> Vec<(&'static str, f64, &'static str)> {
    let first = &untraced[0].pass;
    vec![
        (
            "sim_batches_per_s",
            slow_rate(untraced, |r| r.pass.batches as f64 / r.wall_s),
            "1/s",
        ),
        (
            "step_p50_us",
            slow_time(untraced, |r| step_quantile_us(&r.pass, 0.5)),
            "us",
        ),
        (
            "step_p90_us",
            slow_time(untraced, |r| step_quantile_us(&r.pass, 0.9)),
            "us",
        ),
        ("setup_s", median_of(untraced, |r| r.setup_s), "s"),
        (
            "peak_heap_mb",
            median_of(untraced, |r| r.peak_bytes as f64 / 1e6),
            "MB",
        ),
        (
            "mean_e2e_delay_s",
            ratio(first.delay_sum_s, first.batches as f64),
            "s",
        ),
        (
            "stable_fraction",
            ratio(first.stable as f64, first.batches as f64),
            "share",
        ),
    ]
}

fn step_quantile_us(pass: &Pass, q: f64) -> f64 {
    let mut us: Vec<f64> = pass.steps_ns.iter().map(|&v| v as f64 / 1e3).collect();
    quantile(&mut us, q)
}

fn per_layer(untraced: &[&PassRun], traced: &[&PassRun]) -> Vec<(&'static str, f64, &'static str)> {
    let first = &untraced[0].pass;
    let counts = &first.layers;
    let wall_ns: f64 = traced.iter().map(|r| r.wall_s * 1e9).sum();
    let sum = |f: &dyn Fn(&probe::Layers) -> u64| -> f64 {
        traced.iter().map(|r| f(&r.pass.layers) as f64).sum()
    };
    let pooled = |f: &dyn Fn(&probe::Layers) -> &Vec<u64>| -> f64 {
        let all: Vec<u64> = traced
            .iter()
            .flat_map(|r| f(&r.pass.layers).iter().copied())
            .collect();
        median_us(&all)
    };
    let traced_batches: f64 = traced.iter().map(|r| r.pass.batches as f64).sum();
    let share = |ns: f64| ratio(ns, wall_ns);

    let rate = share(sum(&|l| l.rate_ns));
    let engine = share(sum(&|l| l.engine_ns)) - rate;
    let wire = share(sum(&|l| l.wire_ns));
    let controller = share(sum(&|l| l.round_ns) - sum(&|l| l.round_sys_ns));
    let tuner = share(sum(&|l| {
        l.propose_ns.iter().sum::<u64>() + l.observe_ns.iter().sum::<u64>()
    }));
    let fleet = share(sum(&|l| {
        l.quiet_epoch_ns.iter().sum::<u64>() + l.dense_epoch_ns.iter().sum::<u64>()
    }));
    let method = |m: usize| share(sum(&|l| l.method_ns[m]));
    let (nostop, bo, stat) = (method(0), method(1), method(2));
    let other = 1.0 - (engine + rate + wire + controller + tuner + fleet + nostop + bo + stat);
    let untraced_wall = median_of(untraced, |r| r.wall_s);
    let traced_wall = median_of(traced, |r| r.wall_s);
    let sb_batches = first.batches as f64;

    vec![
        ("engine.share", engine, "share"),
        ("engine.batch_us_p50", pooled(&|l| &l.batch_ns), "us"),
        ("listener.wire_share", wire, "share"),
        ("controller.self_share", controller, "share"),
        ("controller.rounds", counts.rounds as f64, "count"),
        (
            "controller.config_changes",
            counts.config_changes as f64,
            "count",
        ),
        ("rate.share", rate, "share"),
        (
            "rate.calls_per_batch",
            ratio(sum(&|l| l.rate_calls), traced_batches),
            "count",
        ),
        (
            "superbatch.fast_share",
            ratio(counts.superbatch_fast as f64, sb_batches),
            "share",
        ),
        (
            "superbatch.fallback_batches",
            counts.superbatch_fallbacks as f64,
            "count",
        ),
        ("tuner.share", tuner, "share"),
        ("tuner.propose_us_p50", pooled(&|l| &l.propose_ns), "us"),
        ("tuner.observe_us_p50", pooled(&|l| &l.observe_ns), "us"),
        ("fleet.share", fleet, "share"),
        (
            "fleet.skip_share",
            ratio(counts.skipped_epochs as f64, counts.tenant_epochs as f64),
            "share",
        ),
        (
            "fleet.would_skip_share",
            ratio(counts.would_skip_epochs as f64, counts.tenant_epochs as f64),
            "share",
        ),
        (
            "fleet.quiet_epoch_us_p50",
            pooled(&|l| &l.quiet_epoch_ns),
            "us",
        ),
        (
            "fleet.dense_epoch_us_p50",
            pooled(&|l| &l.dense_epoch_ns),
            "us",
        ),
        (
            "arbiter.ledger_events_per_epoch",
            ratio(counts.ledger_events as f64, counts.epochs as f64),
            "count",
        ),
        (
            "arbiter.coalesced_rounds",
            counts.coalesced_rounds as f64,
            "count",
        ),
        ("scenario.parse_us", pooled(&|l| &l.parse_ns), "us"),
        ("scenario.nostop_share", nostop, "share"),
        ("scenario.bo_share", bo, "share"),
        ("scenario.static_share", stat, "share"),
        (
            "alloc.per_batch",
            median_of(untraced, |r| ratio(r.allocs as f64, r.pass.batches as f64)),
            "count",
        ),
        ("other.share", other, "share"),
        (
            "trace.overhead_share",
            ratio(traced_wall - untraced_wall, untraced_wall),
            "share",
        ),
    ]
}

fn measure<W: Workload>(w: &W, args: &Args) -> Report {
    let runs = run_passes(w, args.seconds, args.trace);
    // The first pass pins every operation's digest; every later pass,
    // traced or not, must reproduce it bit for bit.
    let pinned = &runs[0].pass.digests;
    let mut attempted = 0;
    let mut failed = 0;
    let mut shown = 0;
    for (i, r) in runs.iter().enumerate() {
        let p = &r.pass;
        for msg in &p.failures {
            if shown < 10 {
                eprintln!("pass {i}: {msg}");
                shown += 1;
            }
        }
        attempted += p.digests.len() as u64;
        if p.digests.len() != pinned.len() {
            eprintln!(
                "pass {i}: {} operations, pass 0 ran {}",
                p.digests.len(),
                pinned.len()
            );
            failed += p.digests.len().max(pinned.len()) as u64;
            continue;
        }
        let bad = p
            .digests
            .iter()
            .zip(pinned)
            .filter(|(d, pin)| d.is_none() || d != pin)
            .count() as u64;
        if bad > p.failures.len() as u64 && shown < 10 {
            eprintln!("pass {i}: digests differ from pass 0");
            shown += 1;
        }
        failed += bad;
    }
    let untraced: Vec<&PassRun> = runs.iter().filter(|r| !r.pass.traced).collect();
    let traced: Vec<&PassRun> = runs.iter().filter(|r| r.pass.traced).collect();
    println!(
        "# {} seed {}: {} untraced + {} traced passes; per pass {} operations, {} steps, {} batches",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        pinned.len(),
        untraced[0].pass.steps_ns.len(),
        untraced[0].pass.batches,
    );
    let metrics = if args.trace {
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced)
    };
    // The layers must account for the traced wall time: what they leave
    // unattributed may not exceed a tenth of it.
    let attributed = metrics
        .iter()
        .all(|&(name, value, _)| name != "other.share" || value <= MAX_OTHER_SHARE);
    if !attributed {
        eprintln!("other.share exceeds {MAX_OTHER_SHARE}: the layers miss wall time");
    }
    Report {
        correct: failed == 0 && attributed,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker, and the fast paths the program ships with: none of the
    // environment switches that select another code path may leak in.
    std::env::set_var("NOSTOP_JOBS", "1");
    for var in [
        "NOSTOP_NO_SUPERBATCH",
        "NOSTOP_NO_FLEET_FASTPATH",
        "NOSTOP_NO_GP_INCREMENTAL",
    ] {
        std::env::remove_var(var);
    }
    let report = match args.workload.as_str() {
        "paper-tuning" => measure(&paper::PaperTuning { seed: args.seed }, &args),
        "adversarial-corpus" => measure(&corpus::Corpus::new(args.seed), &args),
        "fleet-steady" => measure(&fleet::FleetSteady { seed: args.seed }, &args),
        "tuner-arena" => measure(&arena::TunerArena { seed: args.seed }, &args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Vec::new();
    let mut finite = true;
    for (name, value, unit) in &report.metrics {
        println!("# {name:<32} {value:>16.6} {unit}");
        finite &= value.is_finite();
        let value = if value.is_finite() { *value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct && finite,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
