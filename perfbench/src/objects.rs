//! The shared-object workloads: two worker threads in a closed loop on the
//! `lfrt-lockfree` structures, each waiting for its operation to finish
//! before issuing the next.
//!
//! * `objects_churn`: one request is a round of enqueue+dequeue on a pooled
//!   [`LockFreeQueue`], push+pop on a [`TreiberStack::with_elimination`] and
//!   push+pop on a [`ShardedMpmcQueue`].
//! * `objects_lookup`: one request is one operation on a [`LockFreeList`]
//!   prefilled with 256 of 512 keys: 90% `contains`, 5% `insert`, 5%
//!   `remove`, on seeded uniform keys.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lfrt_lockfree::{
    LockFreeList, LockFreeQueue, RawPool, ShardedMpmcQueue, StatsSnapshot, TreiberStack,
};

use crate::affinity;
use crate::counters::{self, EpochCounts};
use crate::report::ratio;
use crate::spans::{self_times, Clock, Span, SpanLog};
use crate::stats::{median, splitmix, window_medians, xorshift, Reservoir};

/// Worker threads (the machine this benchmark was defined on has 2 vCPUs).
pub const WORKERS: usize = 2;
/// Elements each of the queue and the stack holds before the run, and
/// elements each worker puts into its home shard of the sharded queue.
pub const PREFILL: u64 = 8192;
/// Key space and initial size of the lookup list.
pub const LIST_KEYS: u64 = 512;
/// Keys the lookup list holds before the run.
pub const LIST_PREFILL: usize = 256;
/// Setups per instance; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Latency samples kept per worker per window.
const RESERVOIR: usize = 8192;
/// Windows with fewer samples than this are left out of the percentiles.
const MIN_WINDOW_SAMPLES: usize = 1000;
/// Traced requests per worker per window (spans are kept in memory).
const TRACED_PER_WINDOW: usize = 400;

/// Which object workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Queue + elimination stack + sharded queue rounds.
    Churn,
    /// Read-mostly list operations.
    Lookup,
}

impl Kind {
    /// Every `stride`-th request is timed.
    fn sample_stride(self) -> u64 {
        match self {
            Kind::Churn => 16,
            Kind::Lookup => 64,
        }
    }

    /// In a traced phase, every `stride`-th request gets spans.
    fn trace_stride(self) -> u64 {
        self.sample_stride() * 16
    }

    /// Object operations per request.
    fn ops_per_request(self) -> u64 {
        match self {
            Kind::Churn => 6,
            Kind::Lookup => 1,
        }
    }

    /// Spans one traced request records (the request and its calls).
    fn spans_per_request(self) -> usize {
        match self {
            Kind::Churn => 7,
            Kind::Lookup => 2,
        }
    }
}

/// The structure calls a request makes, in span-name form.
const CALLS: [&str; 9] = [
    "queue.enqueue",
    "queue.dequeue",
    "stack.push",
    "stack.pop",
    "sharded.push",
    "sharded.pop",
    "list.contains",
    "list.insert",
    "list.remove",
];

/// An order-insensitive fingerprint of a multiset of `u64` values: equal
/// multisets give equal fingerprints; a lost, duplicated or altered value
/// changes all three sums except with negligible probability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Multiset {
    count: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Multiset {
    /// Adds one value.
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.count += 1;
        self.sum_a = self.sum_a.wrapping_add(splitmix(0xA5A5, v));
        self.sum_b = self.sum_b.wrapping_add(splitmix(0x5A5A, v));
    }

    /// Adds another fingerprint's values.
    pub fn merge(&mut self, other: &Multiset) {
        self.count += other.count;
        self.sum_a = self.sum_a.wrapping_add(other.sum_a);
        self.sum_b = self.sum_b.wrapping_add(other.sum_b);
    }
}

/// Shared structures of the churn workload.
struct Churn {
    queue: LockFreeQueue<u64>,
    stack: TreiberStack<u64>,
    sharded: ShardedMpmcQueue<u64>,
}

/// The structures one instance drives.
enum Objects {
    Churn(Box<Churn>),
    Lookup(LockFreeList),
}

/// A value unique to worker `tid` (main thread: `tid = None`).
fn value(tid: Option<usize>, seq: u64) -> u64 {
    ((tid.map_or(0, |t| t as u64 + 1)) << 40) | seq
}

/// Builds and prefills the structures; returns them with the multiset of
/// values put into each of queue, stack and sharded queue.
fn build(kind: Kind, seed: u64) -> (Objects, [Multiset; 3]) {
    let mut pushed = [Multiset::default(); 3];
    match kind {
        Kind::Churn => {
            let churn = Churn {
                queue: LockFreeQueue::new(),
                stack: TreiberStack::with_elimination(),
                // Room for both workers' prefill in one shard, should their
                // home shards coincide, plus the values in flight.
                sharded: ShardedMpmcQueue::new(4, 2 * PREFILL as usize + 64),
            };
            for seq in 0..PREFILL {
                let v = value(None, seq);
                churn.queue.enqueue(v);
                pushed[0].add(v);
                churn.stack.push(v);
                pushed[1].add(v);
            }
            (Objects::Churn(Box::new(churn)), pushed)
        }
        Kind::Lookup => {
            let list = LockFreeList::new();
            let mut keys: Vec<u64> = (0..LIST_KEYS).collect();
            // Seeded Fisher–Yates: the first LIST_PREFILL keys are the set.
            let mut rng = splitmix(seed, 0) | 1;
            for i in (1..keys.len()).rev() {
                rng = xorshift(rng);
                keys.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            for &k in &keys[..LIST_PREFILL] {
                list.insert(k);
            }
            (Objects::Lookup(list), pushed)
        }
    }
}

/// Records child spans of the current traced request, if any.
struct Tracer<'a> {
    log: &'a mut SpanLog,
    clock: Clock,
    parent: u32,
    request: u64,
}

/// Runs `f` as one structure call, inside a span when tracing.
#[inline]
fn call<R>(tracer: &mut Option<Tracer<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let start_ns = t.clock.now_ns();
            let r = f();
            let end_ns = t.clock.now_ns();
            t.log.record(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(t.parent),
                request: t.request,
            });
            r
        }
    }
}

/// Per-window counts of one worker.
struct WindowOut {
    ops: u64,
    latency: Reservoir,
    traced: usize,
}

/// Everything one worker brings back.
struct WorkerOut {
    windows: Vec<WindowOut>,
    requests: u64,
    failed_requests: u64,
    /// Empty pops of queue, stack, sharded queue; refused sharded pushes.
    empty: [u64; 3],
    refused: u64,
    calls: [u64; CALLS.len()],
    pushed: [Multiset; 3],
    popped: [Multiset; 3],
    inserted: u64,
    removed: u64,
    log: SpanLog,
}

/// Start/stop signalling between the main thread and the workers.
struct Control {
    clock: Clock,
    windows: usize,
    window: AtomicUsize,
    run: AtomicBool,
    ready: Barrier,
    go: Barrier,
    end: Barrier,
    /// CPUs the workers are pinned to, worker `i` on `cpus[i % len]`.
    cpus: Vec<usize>,
}

/// One worker: prefill its share, wait for the start, run the closed loop
/// until the last window ends.
fn worker(
    tid: usize,
    kind: Kind,
    objects: &Objects,
    ctl: &Control,
    traced: bool,
    seed: u64,
) -> Option<WorkerOut> {
    let mut out = WorkerOut {
        windows: (0..ctl.windows)
            .map(|w| WindowOut {
                ops: 0,
                latency: Reservoir::new(RESERVOIR, splitmix(seed, (tid * 1000 + w) as u64)),
                traced: 0,
            })
            .collect(),
        requests: 0,
        failed_requests: 0,
        empty: [0; 3],
        refused: 0,
        calls: [0; CALLS.len()],
        pushed: [Multiset::default(); 3],
        popped: [Multiset::default(); 3],
        inserted: 0,
        removed: 0,
        log: SpanLog::with_capacity(if traced {
            ctl.windows * TRACED_PER_WINDOW * kind.spans_per_request()
        } else {
            0
        }),
    };
    if !ctl.cpus.is_empty() {
        affinity::pin_current_thread(ctl.cpus[tid % ctl.cpus.len()]);
    }
    let mut seq = 0u64;
    let mut rng = splitmix(seed, 1 + tid as u64) | 1;
    // This worker's prefill of its home shard, and one warm-up request so
    // thread-local pool caches and the epoch record exist before timing.
    match objects {
        Objects::Churn(c) => {
            for _ in 0..PREFILL {
                let v = value(Some(tid), seq);
                seq += 1;
                if c.sharded.push(v).is_ok() {
                    out.pushed[2].add(v);
                } else {
                    out.refused += 1;
                    out.failed_requests += 1;
                }
            }
            let v = value(Some(tid), seq);
            seq += 1;
            churn_round(c, v, &mut out, &mut None);
        }
        Objects::Lookup(list) => {
            list.contains(0);
        }
    }
    ctl.ready.wait();
    ctl.go.wait();
    if !ctl.run.load(Ordering::Acquire) {
        return None;
    }
    let stride = kind.sample_stride();
    let trace_stride = kind.trace_stride();
    let spans = kind.spans_per_request();
    let ops = kind.ops_per_request();
    let mut w = 0;
    let mut n = 0u64;
    loop {
        let current = ctl.window.load(Ordering::Relaxed);
        if current != w {
            if current >= ctl.windows {
                break;
            }
            w = current;
        }
        n += 1;
        let v = value(Some(tid), seq);
        seq += 1;
        let ok = if !n.is_multiple_of(stride) {
            request(objects, v, &mut rng, &mut out, &mut None)
        } else {
            let t0 = ctl.clock.now_ns();
            let trace_this = traced
                && n.is_multiple_of(trace_stride)
                && out.windows[w].traced < TRACED_PER_WINDOW
                && out.log.has_room(spans);
            let ok = if trace_this {
                out.windows[w].traced += 1;
                let request_id = ((tid as u64) << 48) | n;
                let mut log = std::mem::replace(&mut out.log, SpanLog::with_capacity(0));
                let parent = log
                    .open("request", request_id, None, t0)
                    .expect("room checked");
                let mut tracer = Some(Tracer {
                    log: &mut log,
                    clock: ctl.clock,
                    parent,
                    request: request_id,
                });
                let ok = request(objects, v, &mut rng, &mut out, &mut tracer);
                log.close(parent, ctl.clock.now_ns());
                out.log = log;
                ok
            } else {
                request(objects, v, &mut rng, &mut out, &mut None)
            };
            let t1 = ctl.clock.now_ns();
            out.windows[w]
                .latency
                .push(u32::try_from(t1 - t0).unwrap_or(u32::MAX));
            ok
        };
        out.windows[w].ops += ops;
        out.requests += 1;
        if !ok {
            out.failed_requests += 1;
        }
    }
    ctl.end.wait();
    Some(out)
}

/// One request of either workload; returns whether its checks passed.
#[inline]
fn request(
    objects: &Objects,
    v: u64,
    rng: &mut u64,
    out: &mut WorkerOut,
    tracer: &mut Option<Tracer<'_>>,
) -> bool {
    match objects {
        Objects::Churn(c) => churn_round(c, v, out, tracer),
        Objects::Lookup(list) => {
            *rng = xorshift(*rng);
            let key = *rng % LIST_KEYS;
            match (*rng >> 32) % 100 {
                0..=89 => {
                    out.calls[6] += 1;
                    call(tracer, CALLS[6], || list.contains(key));
                }
                90..=94 => {
                    out.calls[7] += 1;
                    if call(tracer, CALLS[7], || list.insert(key)) {
                        out.inserted += 1;
                    }
                }
                _ => {
                    out.calls[8] += 1;
                    if call(tracer, CALLS[8], || list.remove(key)) {
                        out.removed += 1;
                    }
                }
            }
            // Concurrent lookups have no oracle; the list is checked whole
            // at the end of the run.
            true
        }
    }
}

/// One churn round. Every pop follows this worker's own completed push and
/// every structure holds its prefill, so an empty pop or a refused push is
/// a failure.
#[inline]
fn churn_round(c: &Churn, v: u64, out: &mut WorkerOut, tracer: &mut Option<Tracer<'_>>) -> bool {
    let mut ok = true;
    for i in 0..6 {
        out.calls[i] += 1;
    }
    call(tracer, CALLS[0], || c.queue.enqueue(v));
    out.pushed[0].add(v);
    match call(tracer, CALLS[1], || c.queue.dequeue()) {
        Some(x) => out.popped[0].add(x),
        None => {
            out.empty[0] += 1;
            ok = false;
        }
    }
    call(tracer, CALLS[2], || c.stack.push(v));
    out.pushed[1].add(v);
    match call(tracer, CALLS[3], || c.stack.pop()) {
        Some(x) => out.popped[1].add(x),
        None => {
            out.empty[1] += 1;
            ok = false;
        }
    }
    match call(tracer, CALLS[4], || c.sharded.push(v)) {
        Ok(()) => out.pushed[2].add(v),
        Err(_) => {
            out.refused += 1;
            ok = false;
        }
    }
    match call(tracer, CALLS[5], || c.sharded.pop()) {
        Some(x) => out.popped[2].add(x),
        None => {
            out.empty[2] += 1;
            ok = false;
        }
    }
    ok
}

/// Counters read from the program's public telemetry before and after a
/// measured phase.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    queue: StatsSnapshot,
    stack: StatsSnapshot,
    sharded: StatsSnapshot,
    list: StatsSnapshot,
    elim_hits: u64,
    elim_misses: u64,
    pool_hits: u64,
    pool_acquires: u64,
    pool_refills: u64,
    allocations: u64,
    epoch: EpochCounts,
}

fn pools(objects: &Objects) -> Vec<&'static RawPool> {
    let mut pools: Vec<&'static RawPool> = match objects {
        Objects::Churn(c) => vec![c.queue.node_pool(), c.stack.node_pool()],
        Objects::Lookup(list) => vec![list.node_pool()],
    };
    // Queue and stack nodes of `u64` may share one pool (pools are keyed by
    // layout); count each pool once.
    pools.dedup_by(|a, b| std::ptr::eq(*a, *b));
    pools
}

impl Snapshot {
    fn take(objects: &Objects) -> Self {
        let mut s = Snapshot {
            allocations: counters::allocations(),
            epoch: counters::epoch_counts(),
            ..Snapshot::default()
        };
        for pool in pools(objects) {
            let p = pool.stats();
            s.pool_hits += p.hits as u64;
            s.pool_acquires += (p.hits + p.misses) as u64;
            s.pool_refills += p.refills as u64;
        }
        match objects {
            Objects::Churn(c) => {
                s.queue = c.queue.stats().snapshot();
                s.stack = c.stack.stats().snapshot();
                s.sharded = c.sharded.stats_snapshot();
                let elim = c.stack.elimination().expect("built with elimination");
                s.elim_hits = elim.hits();
                s.elim_misses = elim.misses();
            }
            Objects::Lookup(list) => s.list = list.stats().snapshot(),
        }
        s
    }
}

/// Result of one measured phase.
pub struct Phase {
    /// Median of per-setup wall times, seconds.
    pub setup_s: f64,
    /// Requests issued.
    pub requests: u64,
    /// Failed requests plus failed end-of-run checks.
    pub failed: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Object operations completed per second, per window.
    pub window_ops_per_s: Vec<f64>,
    /// Median across windows of the per-window request p50 / p99 (ns).
    pub p50_ns: f64,
    /// See `p50_ns`.
    pub p99_ns: f64,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<(&'static str, f64)>,
    /// Span logs of the workers (traced phases only).
    pub logs: Vec<SpanLog>,
}

impl Phase {
    /// Median across windows of object operations per second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.window_ops_per_s)
    }
}

/// Sets up the workload `SETUP_REPS` times, then measures the last setup
/// for `seconds` split into `windows` windows.
pub fn run(kind: Kind, seed: u64, seconds: f64, windows: usize, traced: bool) -> Phase {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (setup, phase) = instance(kind, seed, seconds, windows, traced, last);
        setups.push(setup.as_secs_f64());
        if let Some(mut phase) = phase {
            phase.setup_s = median(&setups);
            return phase;
        }
    }
    unreachable!("the last repetition measures")
}

/// One set-up (timed) and, if `measure`, one measured phase on it.
fn instance(
    kind: Kind,
    seed: u64,
    seconds: f64,
    windows: usize,
    traced: bool,
    measure: bool,
) -> (Duration, Option<Phase>) {
    let ctl = Control {
        clock: Clock::start(),
        windows,
        window: AtomicUsize::new(0),
        run: AtomicBool::new(measure),
        ready: Barrier::new(WORKERS + 1),
        go: Barrier::new(WORKERS + 1),
        end: Barrier::new(WORKERS + 1),
        cpus: affinity::allowed_cpus(),
    };
    let t0 = Instant::now();
    let (objects, prefill) = build(kind, seed);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let (objects, ctl) = (&objects, &ctl);
                s.spawn(move || worker(tid, kind, objects, ctl, traced, seed))
            })
            .collect();
        ctl.ready.wait();
        let setup = t0.elapsed();
        if !measure {
            ctl.go.wait();
            for h in handles {
                h.join().expect("worker panicked");
            }
            return (setup, None);
        }
        let before = Snapshot::take(&objects);
        let mut backlog_peak = before.epoch.backlog;
        ctl.go.wait();
        let start = Instant::now();
        let window_len = Duration::from_secs_f64(seconds / windows as f64);
        let mut bounds = vec![start];
        for w in 0..windows {
            let due = start + window_len * (w as u32 + 1);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            backlog_peak = backlog_peak.max(counters::epoch_counts().backlog);
            ctl.window.store(w + 1, Ordering::Relaxed);
            bounds.push(Instant::now());
        }
        ctl.end.wait();
        let allocations = counters::allocations() - before.allocations;
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked").expect("measured"))
            .collect();
        let after = Snapshot::take(&objects);
        let phase = summarize(
            &objects,
            prefill,
            outs,
            &bounds,
            before,
            after,
            allocations,
            backlog_peak,
            traced,
        );
        (setup, Some(phase))
    })
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    objects: &Objects,
    prefill: [Multiset; 3],
    outs: Vec<WorkerOut>,
    bounds: &[Instant],
    before: Snapshot,
    after: Snapshot,
    allocations: u64,
    backlog_peak: u64,
    traced: bool,
) -> Phase {
    let windows = bounds.len() - 1;
    let window_ops_per_s: Vec<f64> = (0..windows)
        .map(|w| {
            let ops: u64 = outs.iter().map(|o| o.windows[w].ops).sum();
            ops as f64 / (bounds[w + 1] - bounds[w]).as_secs_f64()
        })
        .collect();
    let latency: Vec<Vec<u32>> = (0..windows)
        .map(|w| {
            outs.iter()
                .flat_map(|o| o.windows[w].latency.samples().iter().copied())
                .collect()
        })
        .collect();
    let (p50_ns, p99_ns) = window_medians(&latency, MIN_WINDOW_SAMPLES);
    let requests: u64 = outs.iter().map(|o| o.requests).sum();
    let mut failed: u64 = outs.iter().map(|o| o.failed_requests).sum();
    let mut failures = Vec::new();
    if failed > 0 {
        let empty: Vec<u64> = (0..3)
            .map(|i| outs.iter().map(|o| o.empty[i]).sum())
            .collect();
        let refused: u64 = outs.iter().map(|o| o.refused).sum();
        failures.push(format!(
            "{failed} requests failed: empty pops queue {} stack {} sharded {}, refused pushes {refused}",
            empty[0], empty[1], empty[2]
        ));
    }
    for failure in final_checks(objects, prefill, &outs) {
        failed += 1;
        failures.push(failure);
    }
    let mut calls = [0u64; CALLS.len()];
    for o in &outs {
        for (total, c) in calls.iter_mut().zip(o.calls) {
            *total += c;
        }
    }
    let layers = if traced {
        layer_metrics(
            objects,
            &outs,
            &calls,
            before,
            after,
            allocations,
            backlog_peak,
        )
    } else {
        Vec::new()
    };
    Phase {
        setup_s: 0.0,
        requests,
        failed,
        failures,
        window_ops_per_s,
        p50_ns,
        p99_ns,
        layers,
        logs: outs.into_iter().map(|o| o.log).collect(),
    }
}

/// End-of-run checks: every value pushed was popped or is drained exactly
/// once; the list is sorted, duplicate-free, in range, and its size adds up.
fn final_checks(objects: &Objects, prefill: [Multiset; 3], outs: &[WorkerOut]) -> Vec<String> {
    let mut failures = Vec::new();
    match objects {
        Objects::Churn(c) => {
            let mut pushed = prefill;
            let mut popped = [Multiset::default(); 3];
            for o in outs {
                for i in 0..3 {
                    pushed[i].merge(&o.pushed[i]);
                    popped[i].merge(&o.popped[i]);
                }
            }
            while let Some(x) = c.queue.dequeue() {
                popped[0].add(x);
            }
            while let Some(x) = c.stack.pop() {
                popped[1].add(x);
            }
            while let Some(x) = c.sharded.pop() {
                popped[2].add(x);
            }
            for (i, name) in ["queue", "stack", "sharded"].iter().enumerate() {
                if pushed[i] != popped[i] {
                    failures.push(format!(
                        "{name}: {} values pushed, {} popped or drained, or their multisets differ",
                        pushed[i].count, popped[i].count
                    ));
                }
            }
        }
        Objects::Lookup(list) => {
            let keys = list.to_vec();
            if !keys.windows(2).all(|p| p[0] < p[1]) {
                failures.push("list: keys not strictly ascending".to_string());
            }
            if keys.iter().any(|&k| k >= LIST_KEYS) {
                failures.push("list: key outside the key space".to_string());
            }
            let inserted: u64 = outs.iter().map(|o| o.inserted).sum();
            let removed: u64 = outs.iter().map(|o| o.removed).sum();
            let expected = LIST_PREFILL as u64 + inserted - removed;
            if keys.len() as u64 != expected {
                failures.push(format!(
                    "list: {} keys, expected {LIST_PREFILL} + {inserted} inserted - {removed} removed = {expected}",
                    keys.len()
                ));
            }
        }
    }
    failures
}

/// Per-layer metrics of a traced phase.
fn layer_metrics(
    objects: &Objects,
    outs: &[WorkerOut],
    calls: &[u64; CALLS.len()],
    before: Snapshot,
    after: Snapshot,
    allocations: u64,
    backlog_peak: u64,
) -> Vec<(&'static str, f64)> {
    // Busy time of each call and of the harness, as shares of the traced
    // requests' wall time.
    let mut busy_ns = [0u64; CALLS.len()];
    let mut request_ns = 0u64;
    let mut request_self_ns = 0u64;
    for o in outs {
        let spans = o.log.spans();
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            if span.name == "request" {
                request_ns += span.duration_ns();
                request_self_ns += self_ns;
            } else if let Some(i) = CALLS.iter().position(|&c| c == span.name) {
                busy_ns[i] += span.duration_ns();
            }
        }
    }
    let share = |i: usize| ratio(busy_ns[i] as f64, request_ns as f64);
    let retries = |b: StatsSnapshot, a: StatsSnapshot, n: u64| {
        ratio((a.retries - b.retries) as f64, n as f64)
    };
    let ops = calls.iter().sum::<u64>() as f64;
    let pool_acquires = (after.pool_acquires - before.pool_acquires) as f64;
    let mut m = vec![
        ("objects.ops", ops),
        ("pool.acquires", pool_acquires),
        (
            "pool.hit_ratio",
            ratio((after.pool_hits - before.pool_hits) as f64, pool_acquires),
        ),
        (
            "pool.refills_per_kop",
            ratio(
                1000.0 * (after.pool_refills - before.pool_refills) as f64,
                ops,
            ),
        ),
        ("pool.allocs_per_op", ratio(allocations as f64, ops)),
        (
            "epoch.retired_per_op",
            ratio((after.epoch.retired - before.epoch.retired) as f64, ops),
        ),
        ("epoch.backlog_peak", backlog_peak as f64),
        (
            "request.self_share",
            ratio(request_self_ns as f64, request_ns as f64),
        ),
    ];
    match objects {
        Objects::Churn(c) => {
            let attempts =
                (after.elim_hits + after.elim_misses) - (before.elim_hits + before.elim_misses);
            m.extend([
                ("queue.calls", (calls[0] + calls[1]) as f64),
                ("queue.enqueue_share", share(0)),
                ("queue.dequeue_share", share(1)),
                (
                    "queue.retries_per_op",
                    retries(before.queue, after.queue, calls[0] + calls[1]),
                ),
                ("stack.calls", (calls[2] + calls[3]) as f64),
                ("stack.push_share", share(2)),
                ("stack.pop_share", share(3)),
                (
                    "stack.retries_per_op",
                    retries(before.stack, after.stack, calls[2] + calls[3]),
                ),
                ("elimination.attempts", attempts as f64),
                (
                    "elimination.hit_ratio",
                    ratio((after.elim_hits - before.elim_hits) as f64, attempts as f64),
                ),
                (
                    "elimination.width",
                    c.stack
                        .elimination()
                        .expect("built with elimination")
                        .width() as f64,
                ),
                ("sharded.calls", (calls[4] + calls[5]) as f64),
                ("sharded.push_share", share(4)),
                ("sharded.pop_share", share(5)),
                (
                    "sharded.retries_per_op",
                    retries(before.sharded, after.sharded, calls[4] + calls[5]),
                ),
            ]);
        }
        Objects::Lookup(_) => {
            m.extend([
                ("list.calls", (calls[6] + calls[7] + calls[8]) as f64),
                ("list.contains_share", share(6)),
                ("list.insert_share", share(7)),
                ("list.remove_share", share(8)),
                (
                    "list.retries_per_op",
                    retries(before.list, after.list, calls[6] + calls[7] + calls[8]),
                ),
            ]);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_ignores_order_but_not_content() {
        let mut a = Multiset::default();
        let mut b = Multiset::default();
        for v in [1, 2, 3] {
            a.add(v);
        }
        for v in [3, 1, 2] {
            b.add(v);
        }
        assert_eq!(a, b);
        let mut dup = Multiset::default();
        for v in [1, 1, 3] {
            dup.add(v);
        }
        assert_ne!(a, dup);
    }

    #[test]
    fn short_churn_phase_is_correct() {
        let phase = run(Kind::Churn, 3, 0.2, 2, true);
        assert_eq!(phase.failed, 0, "{:?}", phase.failures);
        assert!(phase.requests > 0 && phase.ops_per_s() > 0.0);
        assert!(phase.logs.iter().any(|l| !l.spans().is_empty()));
    }

    #[test]
    fn short_lookup_phase_is_correct() {
        let phase = run(Kind::Lookup, 3, 0.2, 2, false);
        assert_eq!(phase.failed, 0, "{:?}", phase.failures);
        assert!(phase.requests > 0);
    }

    #[test]
    fn lookup_prefill_depends_on_seed() {
        let keys = |seed| match build(Kind::Lookup, seed).0 {
            Objects::Lookup(list) => list.to_vec(),
            Objects::Churn(_) => unreachable!(),
        };
        assert_eq!(keys(5).len(), LIST_PREFILL);
        assert_eq!(keys(5), keys(5));
        assert_ne!(keys(5), keys(6));
    }
}
