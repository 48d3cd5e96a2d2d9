//! The simulation workloads: single-thread sweeps of `lfrt-sim` engine runs
//! scheduled by the `lfrt-core` RUA schedulers, the way the paper's figures
//! and what-if studies use them.
//!
//! * `sim_overload`: lock-free RUA, 32 tasks on 8 objects at load 1.3 with
//!   heterogeneous TUFs and bursty random UAM arrivals, `s = 40`.
//! * `sim_lockbased`: lock-based RUA, 8 tasks on 2 objects at load 1.1,
//!   `r = 60`.
//!
//! A sweep is [`SWEEP`] simulations with seeds derived from the workload
//! seed; a phase runs the sweep repeatedly. Each simulation is one window:
//! its timings are computed per simulation and reported as medians across
//! simulations.

use lfrt_analysis::RetryBoundInput;
use lfrt_core::{RuaLockBased, RuaLockFree};
use lfrt_sim::workload::{ArrivalStyle, TufClass, WorkloadSpec};
use lfrt_sim::{
    Decision, Engine, OverheadModel, SchedulerContext, SharingMode, SimConfig, SimOutcome,
    TaskSpec, UaScheduler,
};
use lfrt_uam::{ArrivalTrace, Uam};
use std::time::Instant;

use crate::report::ratio;
use crate::spans::{self_times, Clock, Span, SpanLog};
use crate::stats::{median, percentile_sorted, splitmix};

/// Simulations per sweep.
pub const SWEEP: usize = 128;
/// Simulated scheduler cost per `Decision.ops` operation, in ticks. Small
/// enough that 32-task lock-free RUA under overload still completes about
/// half its jobs (at the figure binaries' 0.2 the overhead alone misses
/// nearly every critical time); nonzero, so a change in the operation count
/// moves `aur` and `cmr`.
const OVERHEAD_TICKS_PER_OP: f64 = 0.01;
/// Setups per phase; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Which simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Lock-free RUA under overload.
    Overload,
    /// Lock-based RUA with blocking.
    LockBased,
}

impl Kind {
    /// The workload recipe of simulation `index` of the sweep for `seed`.
    pub fn spec(self, seed: u64, index: usize) -> WorkloadSpec {
        let seed = splitmix(seed, index as u64);
        match self {
            Kind::Overload => WorkloadSpec {
                num_tasks: 32,
                num_objects: 8,
                accesses_per_job: 4,
                tuf_class: TufClass::Heterogeneous,
                target_load: 1.3,
                window_range: (5_000, 20_000),
                max_burst: 3,
                critical_time_frac: 0.9,
                arrival_style: ArrivalStyle::RandomUam { intensity: 2.0 },
                horizon: 120_000,
                read_fraction: 0.0,
                seed,
            },
            Kind::LockBased => WorkloadSpec {
                num_tasks: 8,
                num_objects: 2,
                accesses_per_job: 2,
                tuf_class: TufClass::Heterogeneous,
                target_load: 1.1,
                window_range: (5_000, 20_000),
                max_burst: 3,
                critical_time_frac: 0.9,
                arrival_style: ArrivalStyle::RandomUam { intensity: 2.0 },
                horizon: 300_000,
                read_fraction: 0.0,
                seed,
            },
        }
    }

    fn config(self) -> SimConfig {
        let sharing = match self {
            Kind::Overload => SharingMode::LockFree { access_ticks: 40 },
            Kind::LockBased => SharingMode::LockBased { access_ticks: 60 },
        };
        SimConfig::new(sharing).overhead(OverheadModel::per_op(OVERHEAD_TICKS_PER_OP))
    }

    fn run(self, engine: Engine, timed: Timed<'_>) -> SimOutcome {
        match self {
            Kind::Overload => engine.run(timed.with(RuaLockFree::new())),
            Kind::LockBased => engine.run(timed.with(RuaLockBased::new())),
        }
    }
}

/// What the timing wrapper accumulates over one simulation.
#[derive(Debug, Default)]
struct DecisionLog {
    samples: Vec<u32>,
    ops: u64,
    aborts: u64,
}

/// Where the timing wrapper records spans, when tracing.
struct SpanSink<'a> {
    log: &'a mut SpanLog,
    parent: u32,
    request: u64,
}

/// The timing wrapper's state, before it is given a scheduler to wrap.
struct Timed<'a> {
    clock: Clock,
    decisions: &'a mut DecisionLog,
    spans: Option<SpanSink<'a>>,
}

impl<'a> Timed<'a> {
    fn with<S: UaScheduler>(self, inner: S) -> TimedScheduler<'a, S> {
        TimedScheduler { inner, timed: self }
    }
}

/// A [`UaScheduler`] that times every `schedule` call of the scheduler it
/// wraps and tallies the decisions' exact operation and abort counts.
struct TimedScheduler<'a, S> {
    inner: S,
    timed: Timed<'a>,
}

impl<S: UaScheduler> UaScheduler for TimedScheduler<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let t = &mut self.timed;
        let start_ns = t.clock.now_ns();
        let decision = self.inner.schedule(ctx);
        let end_ns = t.clock.now_ns();
        let d = &mut *t.decisions;
        d.samples
            .push(u32::try_from(end_ns - start_ns).unwrap_or(u32::MAX));
        d.ops += decision.ops;
        d.aborts += decision.aborts.len() as u64;
        if let Some(sink) = &mut t.spans {
            sink.log.record(Span {
                name: "core.schedule",
                start_ns,
                end_ns,
                parent: Some(sink.parent),
                request: sink.request,
            });
        }
        decision
    }
}

/// Exact outcome of one simulation: identical for identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    aur_bits: u64,
    cmr_bits: u64,
    ops: u64,
    aborts: u64,
    decisions: u64,
    released: u64,
    completed: u64,
    aborted: u64,
    retries: u64,
    blockings: u64,
}

impl Fingerprint {
    /// Accrued-utility ratio.
    pub fn aur(&self) -> f64 {
        f64::from_bits(self.aur_bits)
    }

    /// Critical-time meet ratio.
    pub fn cmr(&self) -> f64 {
        f64::from_bits(self.cmr_bits)
    }
}

/// One simulation of a phase.
#[derive(Debug, Clone, Copy)]
pub struct SimRun {
    /// Index into the sweep.
    pub entry: usize,
    /// Jobs released per wall second of `Engine::run`.
    pub jobs_per_s: f64,
    /// p50 of this simulation's `schedule` wall times, ns.
    pub p50_ns: f64,
    /// p99 of this simulation's `schedule` wall times, ns.
    pub p99_ns: f64,
    /// Exact outcome.
    pub fp: Fingerprint,
}

/// A built sweep entry.
struct Entry {
    tasks: Vec<TaskSpec>,
    traces: Vec<ArrivalTrace>,
    /// Theorem 2 retry bound per task (lock-free workloads only).
    bounds: Option<Vec<u64>>,
}

impl Entry {
    fn new(kind: Kind, tasks: Vec<TaskSpec>, traces: Vec<ArrivalTrace>) -> Self {
        let bounds = (kind == Kind::Overload).then(|| {
            let params: Vec<(Uam, u64)> = tasks
                .iter()
                .map(|t| (*t.uam(), t.tuf().critical_time()))
                .collect();
            (0..tasks.len())
                .map(|i| RetryBoundInput::for_task(&params, i).retry_bound())
                .collect()
        });
        Self {
            tasks,
            traces,
            bounds,
        }
    }

    fn engine(&self, kind: Kind) -> Result<Engine, String> {
        Engine::new(self.tasks.clone(), self.traces.clone(), kind.config())
            .map_err(|e| e.to_string())
    }
}

/// Result of one phase.
pub struct Phase {
    /// Median of per-setup wall times (untraced phases), seconds.
    pub setup_s: f64,
    /// Simulations run, in order.
    pub runs: Vec<SimRun>,
    /// Simulations that failed a check.
    pub failed: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Exact outcome of each sweep entry (first run of each).
    pub fingerprints: Vec<Option<Fingerprint>>,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<(&'static str, f64)>,
    /// Spans (traced phases only).
    pub log: SpanLog,
}

impl Phase {
    /// Median across simulations of jobs released per wall second.
    pub fn jobs_per_s(&self) -> f64 {
        median(&self.runs.iter().map(|r| r.jobs_per_s).collect::<Vec<_>>())
    }

    /// Medians across simulations of the per-simulation decision p50, p99.
    pub fn decision_p50_p99_ns(&self) -> (f64, f64) {
        let p50: Vec<f64> = self.runs.iter().map(|r| r.p50_ns).collect();
        let p99: Vec<f64> = self.runs.iter().map(|r| r.p99_ns).collect();
        (median(&p50), median(&p99))
    }

    /// Mean AUR and CMR over the sweep (exact for a seed).
    pub fn aur_cmr(&self) -> (f64, f64) {
        let fps: Vec<&Fingerprint> = self.fingerprints.iter().flatten().collect();
        let n = fps.len() as f64;
        (
            ratio(fps.iter().map(|f| f.aur()).sum(), n),
            ratio(fps.iter().map(|f| f.cmr()).sum(), n),
        )
    }

    /// Mean `Decision.ops` per decision over the sweep (exact for a seed).
    pub fn ops_per_decision(&self) -> f64 {
        let fps: Vec<&Fingerprint> = self.fingerprints.iter().flatten().collect();
        ratio(
            fps.iter().map(|f| f.ops as f64).sum(),
            fps.iter().map(|f| f.decisions as f64).sum(),
        )
    }
}

/// One sweep entry's inputs and its first engine.
type Built = Result<(Vec<TaskSpec>, Vec<ArrivalTrace>, Engine), String>;

/// Builds every entry of the sweep: `WorkloadSpec::build` (UAM arrivals and
/// TUFs) plus `Engine::new` on a copy of the inputs (later runs of the entry
/// need them again).
fn setup(kind: Kind, seed: u64) -> Vec<Built> {
    (0..SWEEP)
        .map(|i| {
            let (tasks, traces) = kind.spec(seed, i).build().map_err(|e| e.to_string())?;
            let engine = Engine::new(tasks.clone(), traces.clone(), kind.config())
                .map_err(|e| e.to_string())?;
            Ok((tasks, traces, engine))
        })
        .collect()
}

/// Runs an untraced phase: `SETUP_REPS` timed setups, then sweeps until
/// `seconds` have passed and at least one full sweep is done.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Phase {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        built = setup(kind, seed);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut phase = Phase::new(median(&setups));
    let mut entries = Vec::with_capacity(SWEEP);
    let mut first_engines = Vec::with_capacity(SWEEP);
    for (index, b) in built.into_iter().enumerate() {
        let (entry, engine) = match b {
            Ok((tasks, traces, engine)) => (Some(Entry::new(kind, tasks, traces)), Some(engine)),
            Err(e) => {
                phase.fail(index, format!("setup error: {e}"));
                (None, None)
            }
        };
        entries.push(entry);
        first_engines.push(engine);
    }
    let clock = Clock::start();
    let start = Instant::now();
    let mut decisions = DecisionLog::default();
    let mut i = 0;
    while i < SWEEP || start.elapsed().as_secs_f64() < seconds {
        let index = i % SWEEP;
        i += 1;
        let Some(entry) = &entries[index] else {
            continue;
        };
        let engine = match first_engines[index].take() {
            Some(engine) => engine,
            None => match entry.engine(kind) {
                Ok(engine) => engine,
                Err(e) => {
                    phase.fail(index, e);
                    continue;
                }
            },
        };
        let (run, outcome) = simulate(kind, index, engine, &clock, &mut decisions, None);
        phase.check(entry, run, &outcome, None);
    }
    phase
}

/// Runs one traced sweep: per simulation, spans `sim.workload.build`,
/// `sim.engine.new` and `sim.engine.run` with one `core.schedule` child per
/// decision. `reference` holds the untraced phase's exact outcomes, which
/// the traced ones must equal.
pub fn run_traced(kind: Kind, seed: u64, reference: &[Option<Fingerprint>]) -> Phase {
    let mut phase = Phase::new(0.0);
    let mut log = SpanLog::with_capacity(SPAN_CAPACITY);
    let clock = Clock::start();
    let mut decisions = DecisionLog::default();
    let mut arrivals = 0u64;
    for index in 0..SWEEP {
        let request = index as u64;
        let b0 = clock.now_ns();
        let built = kind.spec(seed, index).build();
        log.record(span(
            "sim.workload.build",
            b0,
            clock.now_ns(),
            None,
            request,
        ));
        let (tasks, traces) = match built {
            Ok(built) => built,
            Err(e) => {
                phase.fail(index, format!("setup error: {e}"));
                continue;
            }
        };
        arrivals += traces.iter().map(|t| t.len() as u64).sum::<u64>();
        let entry = Entry::new(kind, tasks, traces);
        let n0 = clock.now_ns();
        let engine = entry.engine(kind);
        log.record(span("sim.engine.new", n0, clock.now_ns(), None, request));
        let engine = match engine {
            Ok(engine) => engine,
            Err(e) => {
                phase.fail(index, e);
                continue;
            }
        };
        let (run, outcome) = simulate(kind, index, engine, &clock, &mut decisions, Some(&mut log));
        phase.check(
            &entry,
            run,
            &outcome,
            reference.get(index).copied().flatten(),
        );
    }
    phase.layers = sim_layers(&phase, &log, arrivals);
    phase.log = log;
    phase
}

/// Span capacity of a traced sweep (every decision of every simulation).
const SPAN_CAPACITY: usize = 1 << 20;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>, request: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request,
    }
}

/// Runs simulation `index` through the timing wrapper, inside a
/// `sim.engine.run` span when `spans` is given.
fn simulate(
    kind: Kind,
    index: usize,
    engine: Engine,
    clock: &Clock,
    decisions: &mut DecisionLog,
    mut spans: Option<&mut SpanLog>,
) -> (SimRun, SimOutcome) {
    decisions.samples.clear();
    decisions.ops = 0;
    decisions.aborts = 0;
    let request = index as u64;
    let t0 = clock.now_ns();
    let parent = spans
        .as_deref_mut()
        .and_then(|log| log.open("sim.engine.run", request, None, t0));
    let sink = match (spans.as_deref_mut(), parent) {
        (Some(log), Some(parent)) => Some(SpanSink {
            log,
            parent,
            request,
        }),
        _ => None,
    };
    let outcome = kind.run(
        engine,
        Timed {
            clock: *clock,
            decisions: &mut *decisions,
            spans: sink,
        },
    );
    let t1 = clock.now_ns();
    if let (Some(log), Some(parent)) = (spans, parent) {
        log.close(parent, t1);
    }
    let mut sorted: Vec<f64> = decisions.samples.iter().map(|&s| f64::from(s)).collect();
    sorted.sort_by(f64::total_cmp);
    let run_ns = (t1 - t0).max(1);
    let run = SimRun {
        entry: index,
        jobs_per_s: outcome.metrics.released() as f64 / (run_ns as f64 / 1e9),
        p50_ns: percentile_sorted(&sorted, 50.0),
        p99_ns: percentile_sorted(&sorted, 99.0),
        fp: fingerprint(&outcome, decisions),
    };
    (run, outcome)
}

fn fingerprint(outcome: &SimOutcome, d: &DecisionLog) -> Fingerprint {
    let m = &outcome.metrics;
    Fingerprint {
        aur_bits: m.aur().to_bits(),
        cmr_bits: m.cmr().to_bits(),
        ops: d.ops,
        aborts: d.aborts,
        decisions: d.samples.len() as u64,
        released: m.released(),
        completed: m.completed(),
        aborted: m.aborted(),
        retries: m.retries(),
        blockings: m.blockings(),
    }
}

impl Phase {
    fn new(setup_s: f64) -> Self {
        Phase {
            setup_s,
            runs: Vec::new(),
            failed: 0,
            failures: Vec::new(),
            fingerprints: vec![None; SWEEP],
            layers: Vec::new(),
            log: SpanLog::with_capacity(0),
        }
    }

    fn fail(&mut self, index: usize, why: String) {
        self.failed += 1;
        self.failures.push(format!("simulation {index}: {why}"));
    }

    /// Records one simulation and applies the simulation checks: Theorem 2
    /// retry bounds (lock-free), and an exact outcome equal to every other
    /// run of the same sweep entry and to `reference` when given.
    fn check(
        &mut self,
        entry: &Entry,
        run: SimRun,
        outcome: &SimOutcome,
        reference: Option<Fingerprint>,
    ) {
        let index = run.entry;
        let mut why = Vec::new();
        if let Some(bounds) = &entry.bounds {
            let over = outcome
                .records
                .iter()
                .filter(|r| r.retries > bounds[r.task.index()])
                .count();
            if over > 0 {
                why.push(format!(
                    "{over} jobs retried more than their Theorem 2 bound"
                ));
            }
        }
        let first = *self.fingerprints[index].get_or_insert(run.fp);
        if first != run.fp {
            why.push(format!(
                "outcome differs from an earlier run: {first:?} vs {:?}",
                run.fp
            ));
        }
        if let Some(reference) = reference {
            if reference != run.fp {
                why.push(format!(
                    "traced outcome differs from the untraced one: {reference:?} vs {:?}",
                    run.fp
                ));
            }
        }
        if !why.is_empty() {
            self.fail(index, why.join("; "));
        }
        self.runs.push(run);
    }
}

/// Per-layer metrics of a traced sweep. Layer timings are self times as
/// shares of the sweep's traced wall time (its root spans: workload build,
/// engine construction, engine run), so the shares add up to 1.
fn sim_layers(phase: &Phase, log: &SpanLog, arrivals: u64) -> Vec<(&'static str, f64)> {
    let spans = log.spans();
    let mut total_ns = 0;
    let (mut build_ns, mut new_ns, mut engine_ns, mut schedule_ns) = (0, 0, 0, 0);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_none() {
            total_ns += s.duration_ns();
        }
        match s.name {
            "sim.workload.build" => build_ns += self_ns,
            "sim.engine.new" => new_ns += self_ns,
            "sim.engine.run" => engine_ns += self_ns,
            "core.schedule" => schedule_ns += self_ns,
            _ => {}
        }
    }
    let share = |ns: u64| ratio(ns as f64, total_ns as f64);
    let fps: Vec<&Fingerprint> = phase.runs.iter().map(|r| &r.fp).collect();
    let sum = |f: fn(&Fingerprint) -> u64| fps.iter().map(|fp| f(fp) as f64).sum::<f64>();
    let jobs = sum(|f| f.released);
    let decisions = sum(|f| f.decisions);
    let sims = phase.runs.len() as f64;
    let (aur, cmr) = phase.aur_cmr();
    vec![
        ("sim.count", sims),
        ("sim.jobs", jobs),
        ("engine.self_share", share(engine_ns)),
        ("engine.new_share", share(new_ns)),
        ("engine.decisions_per_job", ratio(decisions, jobs)),
        ("workload.build_share", share(build_ns)),
        ("uam.arrivals", ratio(arrivals as f64, sims)),
        ("core.decisions", decisions),
        ("core.schedule_share", share(schedule_ns)),
        ("core.ops_per_decision", phase.ops_per_decision()),
        (
            "core.aborts_per_decision",
            ratio(sum(|f| f.aborts), decisions),
        ),
        ("sim.retries_per_job", ratio(sum(|f| f.retries), jobs)),
        ("sim.blockings_per_job", ratio(sum(|f| f.blockings), jobs)),
        ("sim.aborts_per_job", ratio(sum(|f| f.aborted), jobs)),
        ("sim.aur", aur),
        ("sim.cmr", cmr),
        ("trace.spans", spans.len() as f64),
    ]
}
