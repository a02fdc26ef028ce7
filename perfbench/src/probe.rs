//! Measurement plumbing shared by the workloads: the per-pass record, the
//! outside-in layer timers, and the checks every operation goes through.
//!
//! Layer times come from timing calls into each layer's public functions
//! from the benchmark's side of the boundary; nothing inside the program
//! is instrumented. Two adapters make that possible:
//!
//! - [`TracedSystem`] re-composes `SimSystem::next_batch` from its public
//!   parts (`StreamingEngine::run_batches`, then the StatusReport wire
//!   round-trip) so engine and JSON wire time can be told apart;
//! - [`TimedRate`] forwards every `RateProcess` method, counts `rate_at`
//!   calls and times a sample of them.
//!
//! Traced passes must reproduce the untraced passes' digests bit for bit,
//! which is the proof that the adapters change no behaviour.

use nostop_core::listener::StatusReport;
use nostop_core::system::{BatchObservation, StreamingSystem};
use nostop_datagen::rate::RateProcess;
use nostop_simcore::{SimRng, SimTime};
use spark_sim::{ExtendedConfig, SimSystem, StreamConfig, StreamingEngine};
use std::cell::Cell;
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A seed derived from the benchmark seed for one input stream, so every
/// session, variant and tenant draws from its own stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SimRng::seed_from_u64(seed).fork(stream).next_u64()
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn observation(&mut self, b: &BatchObservation) {
        for v in [
            b.completed_at_s,
            b.interval_s,
            b.processing_s,
            b.scheduling_delay_s,
            b.input_rate,
        ] {
            self.float(v);
        }
        for v in [
            b.records,
            b.num_executors as u64,
            b.queued_batches as u64,
            b.executor_failures as u64,
        ] {
            self.word(v);
        }
    }
}

/// Linear-interpolated quantile of `xs` (sorted in place), `q` in [0, 1].
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median of a sample of nanosecond durations, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let mut us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    median(&mut us)
}

/// Per-layer wall time and counts gathered in one pass. Times are only
/// taken on traced passes; counts are read on every pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// `run_batches` + `apply_config`, rate process included.
    pub engine_ns: u64,
    /// Each `run_batches(1)` call.
    pub batch_ns: Vec<u64>,
    /// StatusReport write + parse + `to_observation`.
    pub wire_ns: u64,
    /// `NoStop::run_round` calls.
    pub round_ns: u64,
    /// System calls made from inside those rounds.
    pub round_sys_ns: u64,
    /// `RateProcess::rate_at` calls and their time.
    pub rate_ns: u64,
    pub rate_calls: u64,
    /// `Tuner::propose` / `Tuner::observe` calls.
    pub propose_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    /// `FleetSim::step_epoch`, split by whether any tenant was skipped.
    pub quiet_epoch_ns: Vec<u64>,
    pub dense_epoch_ns: Vec<u64>,
    /// `run_method` time by method: nostop, bo, static.
    pub method_ns: [u64; 3],
    /// `parse_scenario` per spec (set-up phase).
    pub parse_ns: Vec<u64>,
    /// Controller rounds and configuration changes.
    pub rounds: u64,
    pub config_changes: u64,
    /// Superbatch counters summed over engines.
    pub superbatch_fast: u64,
    pub superbatch_fallbacks: u64,
    /// Fleet counters.
    pub tenant_epochs: u64,
    pub skipped_epochs: u64,
    pub would_skip_epochs: u64,
    pub epochs: u64,
    pub ledger_events: u64,
    pub coalesced_rounds: u64,
}

/// Everything one pass over a workload's sessions produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub traced: bool,
    /// Wall time of each step of the timed phase.
    pub steps_ns: Vec<u64>,
    /// Simulated batches completed.
    pub batches: u64,
    /// Σ Eq. 3 end-to-end delay over those batches, seconds.
    pub delay_sum_s: f64,
    /// Batches that met Eq. 2.
    pub stable: u64,
    /// One digest per operation, in operation order; `None` when the
    /// operation failed a check.
    pub digests: Vec<Option<u64>>,
    /// One message per failed check.
    pub failures: Vec<String>,
    pub layers: Layers,
}

impl Pass {
    pub fn new(traced: bool, steps: usize) -> Self {
        Pass {
            traced,
            steps_ns: Vec::with_capacity(steps),
            ..Pass::default()
        }
    }

    /// Record an operation's outcome: its digest, or the check it failed.
    pub fn op(&mut self, name: &str, outcome: Result<u64, String>) {
        match outcome {
            Ok(d) => self.digests.push(Some(d)),
            Err(e) => {
                self.digests.push(None);
                self.failures.push(format!("{name}: {e}"));
            }
        }
    }

    /// Account one engine's whole run: batches, delays, stability and
    /// superbatch counters. Returns the engine's digest, or the reason its
    /// record conservation failed.
    pub fn engine(&mut self, engine: &StreamingEngine) -> Result<u64, String> {
        let listener = engine.listener();
        let history = listener.history();
        if listener.completed() != history.len() as u64 {
            return Err("listener evicted batches; conservation is uncheckable".into());
        }
        let mut digest = Fnv::default();
        let mut records = 0;
        for m in history {
            let b = m.to_observation();
            self.delay_sum_s += b.end_to_end_s();
            self.stable += b.is_stable() as u64;
            records += m.records;
            digest.word(m.batch_id);
            digest.observation(&b);
        }
        for w in engine.rng_fingerprint() {
            digest.word(w);
        }
        self.batches += history.len() as u64;
        let sb = engine.superbatch_stats();
        self.layers.superbatch_fast += sb.fast_batches;
        self.layers.superbatch_fallbacks += sb.quiescence_fallbacks;
        let held = records
            + engine.queued_records()
            + engine.in_flight_records()
            + engine.broker_lag()
            + engine.dropped_records();
        if engine.total_produced() != held {
            return Err(format!(
                "record conservation: produced {} != accounted {held}",
                engine.total_produced()
            ));
        }
        Ok(digest.0)
    }
}

/// One `rate_at` call in this many is sampled: the process answers in a
/// few nanoseconds and is called dozens of times per batch, so timing
/// every call would cost more than the calls themselves.
const RATE_SAMPLE: u64 = 32;

thread_local! {
    static RATE_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Sampled calls: count and total time.
    static RATE_TIMED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Sampled empty intervals (the clock's own cost): count and time.
    static RATE_EMPTY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn add(cell: &'static std::thread::LocalKey<Cell<(u64, u64)>>, ns: u64) {
    let (n, total) = cell.get();
    cell.set((n + 1, total + ns));
}

/// Take (and zero) the `rate_at` call count of every [`TimedRate`] on this
/// thread, with their estimated total time: the mean sampled call less
/// the mean empty interval, times the call count.
pub fn take_rate_counters() -> (u64, u64) {
    let calls = RATE_CALLS.take();
    let (timed, timed_ns) = RATE_TIMED.take();
    let (empty, empty_ns) = RATE_EMPTY.take();
    if timed == 0 || empty == 0 {
        return (0, calls);
    }
    let per_call = timed_ns as f64 / timed as f64 - empty_ns as f64 / empty as f64;
    ((per_call.max(0.0) * calls as f64) as u64, calls)
}

/// A forwarding [`RateProcess`] that counts `rate_at` calls and times a
/// sample of them.
pub struct TimedRate(pub Box<dyn RateProcess>);

impl RateProcess for TimedRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let n = RATE_CALLS.get();
        RATE_CALLS.set(n + 1);
        if !n.is_multiple_of(RATE_SAMPLE) {
            return self.0.rate_at(t);
        }
        // Sampled calls alternate between timing the call and timing
        // nothing, so the clock's own cost is measured under the same
        // conditions and can be subtracted.
        let start = Instant::now();
        if (n / RATE_SAMPLE).is_multiple_of(2) {
            let r = self.0.rate_at(t);
            add(&RATE_TIMED, ns_since(start));
            r
        } else {
            add(&RATE_EMPTY, ns_since(start));
            self.0.rate_at(t)
        }
    }

    fn bounds(&self) -> Option<(f64, f64)> {
        self.0.bounds()
    }

    fn constant(&self) -> Option<f64> {
        self.0.constant()
    }

    fn next_change_at(&self, after: SimTime) -> SimTime {
        self.0.next_change_at(after)
    }
}

/// `SimSystem` re-composed from its public parts so engine and JSON wire
/// time are timed apart. Behaviour is `SimSystem`'s with the default JSON
/// round-trip on.
pub struct TracedSystem {
    engine: StreamingEngine,
    json_buf: String,
    engine_ns: u64,
    wire_ns: u64,
    batch_ns: Vec<u64>,
}

impl TracedSystem {
    pub fn new(engine: StreamingEngine) -> Self {
        TracedSystem {
            engine,
            json_buf: String::new(),
            engine_ns: 0,
            wire_ns: 0,
            batch_ns: Vec::new(),
        }
    }
}

impl StreamingSystem for TracedSystem {
    fn apply_config(&mut self, physical: &[f64]) {
        let start = Instant::now();
        if physical.len() >= 8 {
            self.engine
                .apply_extended_config(&ExtendedConfig::from_physical(physical));
        } else {
            self.engine
                .apply_config(StreamConfig::from_physical(physical));
        }
        self.engine_ns += ns_since(start);
    }

    fn next_batch(&mut self) -> BatchObservation {
        let start = Instant::now();
        self.engine.run_batches(1);
        let ran = Instant::now();
        let metrics = *self
            .engine
            .listener()
            .last()
            .expect("run_batches(1) completed a batch");
        self.json_buf.clear();
        metrics.to_status_report().write_json(&mut self.json_buf);
        let obs = StatusReport::from_json(&self.json_buf)
            .expect("wire format must round-trip")
            .to_observation();
        let batch = (ran - start).as_nanos() as u64;
        self.engine_ns += batch;
        self.batch_ns.push(batch);
        self.wire_ns += ns_since(ran);
        obs
    }

    fn now_s(&self) -> f64 {
        self.engine.now().as_secs_f64()
    }
}

/// The system a session drives: the program's own `SimSystem` on untraced
/// passes, the [`TracedSystem`] on traced ones.
pub enum Sys {
    Plain(SimSystem),
    Traced(TracedSystem),
}

impl Sys {
    pub fn engine(&self) -> &StreamingEngine {
        match self {
            Sys::Plain(s) => s.engine(),
            Sys::Traced(s) => &s.engine,
        }
    }

    /// Move the traced system's layer times into `layers`.
    pub fn drain_into(&mut self, layers: &mut Layers) {
        if let Sys::Traced(s) = self {
            layers.engine_ns += std::mem::take(&mut s.engine_ns);
            layers.wire_ns += std::mem::take(&mut s.wire_ns);
            layers.batch_ns.append(&mut s.batch_ns);
        }
    }
}

impl StreamingSystem for Sys {
    fn apply_config(&mut self, physical: &[f64]) {
        match self {
            Sys::Plain(s) => s.apply_config(physical),
            Sys::Traced(s) => s.apply_config(physical),
        }
    }

    fn next_batch(&mut self) -> BatchObservation {
        match self {
            Sys::Plain(s) => s.next_batch(),
            Sys::Traced(s) => s.next_batch(),
        }
    }

    fn now_s(&self) -> f64 {
        match self {
            Sys::Plain(s) => s.now_s(),
            Sys::Traced(s) => s.now_s(),
        }
    }
}

/// The controller's view of a session's system: every `next_batch` is one
/// workload step, timed into the pass, and folded into an
/// observation-stream digest. All time spent inside the system is summed
/// so a controller round's self time can be separated from it.
pub struct Metered<'a> {
    pub sys: &'a mut Sys,
    pub steps_ns: &'a mut Vec<u64>,
    pub digest: Fnv,
    pub sys_ns: u64,
}

impl StreamingSystem for Metered<'_> {
    fn apply_config(&mut self, physical: &[f64]) {
        let start = Instant::now();
        self.sys.apply_config(physical);
        self.sys_ns += ns_since(start);
    }

    fn next_batch(&mut self) -> BatchObservation {
        let start = Instant::now();
        let b = self.sys.next_batch();
        let step = ns_since(start);
        self.sys_ns += step;
        self.steps_ns.push(step);
        self.digest.observation(&b);
        b
    }

    fn now_s(&self) -> f64 {
        self.sys.now_s()
    }
}
