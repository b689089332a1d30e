//! Address-sharded parallel replay.
//!
//! The offline analyses ([`profile_batches`], task
//! extraction) are pure functions of a recorded event stream, which makes
//! them parallelizable without touching the capture side. The scheme is the
//! classic shadow-memory sharding used by parallel memory profilers:
//!
//! * memory events are partitioned by a block-cyclic address split chosen
//!   by [`ShardSpec`] — every address's full access history lands on
//!   exactly one shard, so per-address shadow state (last write, read set,
//!   cap evictions) evolves *identically* to the sequential run;
//! * control events (enter/exit/block/predicate) are broadcast to all
//!   shards, so every shard maintains an identical execution-index tree and
//!   construct pool — dependence attribution needs the tree, and the tree
//!   is cheap next to shadow lookups;
//! * per-shard [`DepProfile`]s are merged deterministically: duration,
//!   instance and nesting statistics are control-derived and therefore
//!   identical in every shard (shard 0's copy is kept); dependence edges are
//!   disjoint per dynamic occurrence and union with min/sum semantics via
//!   [`DepProfile::merge_edge`], whose lowest-address tie rule makes the
//!   merge commutative.
//!
//! The result is **equal** (`==`) to the sequential and live profiles: the
//! determinism guarantee the `replay --jobs N` CLI path and the CI parity
//! gate assert for every bundled workload. Callers choose the partition
//! once per stream ([`ShardSpec::for_batches`]) and pass that spec to every
//! sharded operation; [`run_sharded_batched`] is the one fan-out.
//!
//! The fan-out has no hand-off between threads: every worker walks the
//! shared, already-decoded batch slice itself and gathers the rows it owns
//! into a reused sub-batch, so no thread waits on another until the join.
//! The price is that every worker reads every row's tag and address.
//!
//! Memory note: the partition starts page-granular —
//! `(addr >> PAGE_SHIFT) % jobs` with the page size matched to
//! [`ShadowMemory`](crate::shadow::ShadowMemory)'s
//! [`PAGE_WORDS`](crate::shadow::PAGE_WORDS)-cell
//! pages — so each worker faults only the shadow pages it owns and the
//! fleet's `pages_allocated` sums to the sequential run's instead of
//! multiplying by `jobs`. Page ownership is only kept when the stream's
//! page traffic actually spreads: [`ShardSpec::for_batches`] measures the
//! per-shard balance at a ladder of block sizes
//! ([`CANDIDATE_SHIFTS`]: 4096 → 512 → 64 → 8 → 1 words) and takes the
//! coarsest stride whose max/min shard load stays within
//! [`MAX_SHARD_IMBALANCE`]. Small single-threaded programs concentrate
//! their globals and frame slots on one or two pages, so the ladder
//! deliberately falls through to finer strides — ultimately `addr % jobs`,
//! which rebalances perfectly but re-introduces the `jobs ×` page
//! duplication. That duplication is bounded by `jobs × touched pages` and
//! is the right trade below tens of jobs; streams that genuinely spread
//! (threaded workloads whose spawned stacks live on their own pages, big
//! multi-page arrays) keep whole-page ownership automatically.

use crate::pool::PoolStats;
use crate::profile::DepProfile;
use crate::profiler::{AlchemistProfiler, ProfileConfig};
use crate::runner::profile_batches;
use crate::shadow::PAGE_SHIFT;
use alchemist_obs::{span_opt, Counter, Metrics, ShardMetrics, Stage};
use alchemist_vm::{EventBatch, Module, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A shard replay worker died mid-stream.
///
/// Workers run under [`catch_unwind`], so one shard's panic (an analysis
/// bug, a poisoned sink) no longer aborts the whole replay: the panicking
/// shard is reported here — with its id, how many events it had consumed
/// and the panic payload — while the surviving shards finish the stream
/// and join cleanly. Only the *first* failing shard (lowest id) is
/// returned; the merged result is unusable either way once any address
/// shard is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Shard id of the worker that panicked.
    pub shard: u32,
    /// Events the worker had handed to its sink before dying.
    pub events: u64,
    /// The panic payload, stringified (`&str` / `String` payloads verbatim,
    /// anything else as `<non-string panic payload>`).
    pub payload: String,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard worker {} panicked after {} events: {}",
            self.shard, self.events, self.payload
        )
    }
}

impl std::error::Error for ShardError {}

/// Stringifies a panic payload for [`ShardError::payload`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Joins every worker, collecting finished sinks; if any worker panicked,
/// returns the lowest-id failure *after* all handles joined (surviving
/// shards always finish cleanly, no thread is left detached).
fn join_shards<S>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<S, (u64, String)>>>,
) -> Result<Vec<S>, ShardError> {
    let mut sinks = Vec::with_capacity(handles.len());
    let mut first_err: Option<ShardError> = None;
    for (k, handle) in handles.into_iter().enumerate() {
        let joined = match handle.join() {
            Ok(result) => result,
            // The worker body is wrapped in catch_unwind, so a join error
            // means the panic escaped the wrapper (e.g. a panicking Drop
            // during unwind) — still report it rather than re-panic.
            Err(payload) => Err((0, panic_message(payload))),
        };
        match joined {
            Ok(sink) => sinks.push(sink),
            Err((events, payload)) => {
                first_err.get_or_insert(ShardError {
                    shard: k as u32,
                    events,
                    payload,
                });
            }
        }
    }
    match first_err {
        None => Ok(sinks),
        Some(err) => Err(err),
    }
}

/// Block-size ladder (log2 words) the partition chooser walks, coarsest
/// first: whole shadow pages, then 512-, 64- and 8-word blocks, down to
/// single-word interleaving (`addr % jobs`, the pre-page-partition scheme).
pub const CANDIDATE_SHIFTS: [u32; 5] = [PAGE_SHIFT, 9, 6, 3, 0];

/// A candidate stride is accepted when `max <= MAX_SHARD_IMBALANCE * min`
/// over its per-shard memory-event counts — the same `>2x` threshold the
/// report's `shard imbalance` note uses.
pub const MAX_SHARD_IMBALANCE: u64 = 2;

/// The chooser samples at most ~this many rows (deterministic stride over
/// the stream) so spec selection stays a fraction of one decode pass even
/// at tens of millions of events.
const CHOOSER_SAMPLE_ROWS: usize = 1 << 21;

/// How a recorded stream's address space is split across replay workers: a
/// block-cyclic partition `(addr >> shift) % jobs`.
///
/// `shift = PAGE_SHIFT` gives whole-page ownership (each worker faults
/// only its own shadow pages); `shift = 0` is single-word interleaving
/// (best balance, `jobs ×` page duplication). [`ShardSpec::for_batches`]
/// picks the coarsest balanced stride for a
/// concrete stream; the choice is a pure function of the stream and `jobs`,
/// so sequential/parallel parity holds for every choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    jobs: u32,
    shift: u32,
}

impl ShardSpec {
    /// A spec with an explicit block size (`1 << shift` words). `jobs` is
    /// clamped to at least 1, `shift` to at most 31.
    pub fn with_shift(jobs: u32, shift: u32) -> Self {
        ShardSpec {
            jobs: jobs.max(1),
            shift: shift.min(31),
        }
    }

    /// Worker count of the partition.
    pub fn jobs(&self) -> u32 {
        self.jobs
    }

    /// Log2 of the block size in words.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Block size in words (`1 << shift`).
    pub fn block_words(&self) -> u32 {
        1 << self.shift
    }

    /// The shard owning `addr`.
    #[inline]
    pub fn shard_of(&self, addr: u32) -> u32 {
        (addr >> self.shift) % self.jobs
    }

    /// Chooses the coarsest balanced stride for a batched stream: walks
    /// [`CANDIDATE_SHIFTS`] coarsest-first and returns the first whose
    /// per-shard memory-event counts stay within [`MAX_SHARD_IMBALANCE`];
    /// if none qualifies, the stride minimizing the *largest* shard (the
    /// replay's critical path), coarsest-first on ties.
    pub fn for_batches(batches: &[EventBatch], jobs: u32) -> Self {
        if jobs <= 1 {
            return Self::with_shift(jobs, PAGE_SHIFT);
        }
        let total: usize = batches.iter().map(|b| b.len()).sum();
        let stride = (total / CHOOSER_SAMPLE_ROWS).max(1);
        let addrs = batches
            .iter()
            .flat_map(|b| (0..b.len()).map(move |i| (b, i)))
            .step_by(stride)
            .filter(|(b, i)| b.tag(*i).is_memory())
            .map(|(b, i)| b.addr(i));
        Self::with_shift(jobs, choose_shift(jobs, addrs))
    }
}

/// One counting pass over (sampled) memory addresses, tallying every
/// candidate stride at once, then the ladder walk described on
/// [`ShardSpec::for_batches`].
fn choose_shift(jobs: u32, addrs: impl Iterator<Item = u32>) -> u32 {
    let j = jobs as usize;
    let mut counts = vec![0u64; CANDIDATE_SHIFTS.len() * j];
    for addr in addrs {
        for (si, &shift) in CANDIDATE_SHIFTS.iter().enumerate() {
            counts[si * j + ((addr >> shift) % jobs) as usize] += 1;
        }
    }
    let row_max_min = |si: usize| {
        let row = &counts[si * j..(si + 1) * j];
        // Invariant: `jobs >= 1` (clamped by every caller), so each row has
        // at least one cell and the fallbacks below never fire — they exist
        // only to keep the closure total.
        (
            *row.iter().max().unwrap_or(&0),
            *row.iter().min().unwrap_or(&0),
        )
    };
    for (si, &shift) in CANDIDATE_SHIFTS.iter().enumerate() {
        let (max, min) = row_max_min(si);
        if max <= MAX_SHARD_IMBALANCE * min {
            return shift;
        }
    }
    // Nothing balances (hot frame slots usually guarantee that for small
    // single-threaded programs): minimize the critical path instead.
    let mut best = (u64::MAX, CANDIDATE_SHIFTS[0]);
    for (si, &shift) in CANDIDATE_SHIFTS.iter().enumerate() {
        let (max, _) = row_max_min(si);
        if max < best.0 {
            best = (max, shift);
        }
    }
    best.1
}

/// Flush threshold: a worker hands its gathered sub-batch to its sink once
/// the sub-batch holds at least this many rows (the stream's tail flushes
/// whatever remains), so per-call sink overhead amortizes over thousands of
/// rows.
pub const SHARD_FLUSH_EVENTS: usize = 4096;

/// Fan-out settings: none. The fan-out has no tunables and
/// [`SHARD_FLUSH_EVENTS`] is a constant; callers pass
/// `ShardTuning::default()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTuning {}

/// The row-ownership rule: appends to `out` the rows of `batch` that shard
/// `k` of `spec` owns, in recorded order — every control row, plus the
/// memory rows whose address [`ShardSpec::shard_of`] maps to `k`.
#[inline]
fn gather_shard(batch: &EventBatch, spec: ShardSpec, k: u32, out: &mut EventBatch) {
    for i in 0..batch.len() {
        if !batch.tag(i).is_memory() || spec.shard_of(batch.addr(i)) == k {
            out.push_index(batch, i);
        }
    }
}

/// Splits one batch into `spec.jobs()` per-shard sub-batches: control rows
/// are appended to every sub-batch, memory rows only to the shard owning
/// their address ([`ShardSpec::shard_of`]). Concatenating sub-batch `k`
/// across a batch stream therefore reproduces, in recorded order, every
/// control event plus exactly the memory events shard `k` owns.
pub fn partition_batch(batch: &EventBatch, spec: ShardSpec) -> Vec<EventBatch> {
    let jobs = spec.jobs();
    // Size sub-batches from one cheap tag scan — every sub-batch carries
    // all control rows plus its share of the memory rows. Capacity at
    // `batch.len()` each would pin ~jobs× the stream's memory.
    let memory = batch.tags().iter().filter(|t| t.is_memory()).count();
    let control = batch.len() - memory;
    let capacity = control + memory / jobs as usize + 1;
    (0..jobs)
        .map(|k| {
            let mut sub = EventBatch::with_capacity(capacity);
            gather_shard(batch, spec, k, &mut sub);
            sub
        })
        .collect()
}

/// Runs one sink per address shard of `spec` over a batch stream on scoped
/// worker threads and returns the finished sinks in shard order.
///
/// `make_sink(k)` builds shard `k`'s sequential analysis sink; the caller
/// merges the returned sinks. There is no hand-off between threads: worker
/// `k` walks the shared `batches` slice itself, gathers the rows it owns
/// ([`partition_batch`]'s rule) into one reused sub-batch, and calls
/// `on_batch` whenever that sub-batch holds [`SHARD_FLUSH_EVENTS`] rows
/// and once more at the end of the stream. `tuning` carries no settings.
///
/// With `metrics`, each worker records its delivered and memory row counts
/// and its whole loop (gathering plus sink time) as `busy_ns` at one clock
/// pair per worker; nothing blocks, so the wait fields stay 0. The
/// `shard.batches_partitioned` counter counts input batches once and
/// `shard.sub_batches_sent` the sub-batches delivered, summed over workers.
/// With `None` there are no clock reads.
///
/// # Errors
///
/// [`ShardError`] if any worker panicked; the surviving workers finish the
/// stream and join first.
pub fn run_sharded_batched<S, F>(
    batches: &[EventBatch],
    spec: ShardSpec,
    _tuning: ShardTuning,
    metrics: Option<&Metrics>,
    make_sink: F,
) -> Result<Vec<S>, ShardError>
where
    S: TraceSink + Send,
    F: Fn(u32) -> S + Sync,
{
    let sinks = std::thread::scope(|s| {
        let make_sink = &make_sink;
        let handles = (0..spec.jobs())
            .map(|k| {
                s.spawn(move || {
                    let mut done = 0u64;
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut sink = make_sink(k);
                        drive_shard(batches, spec, k, &mut sink, metrics, &mut done);
                        sink
                    }))
                    .map_err(|payload| (done, panic_message(payload)))
                })
            })
            .collect();
        join_shards(handles)
    })?;
    if let Some(m) = metrics {
        m.add(Counter::ShardBatchesPartitioned, batches.len() as u64);
    }
    Ok(sinks)
}

/// Worker `k`'s loop of [`run_sharded_batched`]: gathers its rows and feeds
/// them to `sink` in sub-batches of at least [`SHARD_FLUSH_EVENTS`] rows.
/// `done` counts the rows handed to the sink so far, for [`ShardError`].
fn drive_shard<S: TraceSink>(
    batches: &[EventBatch],
    spec: ShardSpec,
    k: u32,
    sink: &mut S,
    metrics: Option<&Metrics>,
    done: &mut u64,
) {
    let start = metrics.map(|_| Instant::now());
    let (mut sent, mut mem_events) = (0u64, 0u64);
    let mut sub = EventBatch::with_capacity(SHARD_FLUSH_EVENTS);
    let mut deliver = |sub: &mut EventBatch| {
        *done += sub.len() as u64;
        sent += 1;
        if metrics.is_some() {
            mem_events += sub.tags().iter().filter(|t| t.is_memory()).count() as u64;
        }
        sink.on_batch(sub);
        sub.clear();
    };
    for batch in batches {
        gather_shard(batch, spec, k, &mut sub);
        if sub.len() >= SHARD_FLUSH_EVENTS {
            deliver(&mut sub);
        }
    }
    if !sub.is_empty() {
        deliver(&mut sub);
    }
    if let (Some(m), Some(start)) = (metrics, start) {
        m.record_shard(ShardMetrics {
            shard: k as usize,
            events: *done,
            mem_events,
            busy_ns: start.elapsed().as_nanos() as u64,
            ..ShardMetrics::default()
        });
        m.add(Counter::ShardSubBatchesSent, sent);
    }
}

/// Memory events per shard under `spec` (control events are broadcast and
/// not counted): one pass over the tag and address columns. `replay --jobs`
/// prints it to show how balanced the address partition is.
pub fn shard_batch_counts_spec(batches: &[EventBatch], spec: ShardSpec) -> Vec<u64> {
    let mut counts = vec![0u64; spec.jobs() as usize];
    for batch in batches {
        for i in 0..batch.len() {
            if batch.tag(i).is_memory() {
                counts[spec.shard_of(batch.addr(i)) as usize] += 1;
            }
        }
    }
    counts
}

/// Merges per-shard profiles into the sequential-equivalent whole.
///
/// Shard 0 contributes everything (its control-derived statistics are
/// identical to every other shard's); the remaining shards contribute only
/// their dependence edges, dropped-reader counts and shadow-layout
/// telemetry (summed: under a page-granular spec each page faults in
/// exactly one worker and the sum equals the sequential run's; under
/// finer strides workers fault overlapping pages and the sum reports the
/// fleet's total — either way the counters are excluded from profile
/// equality).
pub fn merge_shard_profiles(shards: Vec<DepProfile>) -> DepProfile {
    let mut iter = shards.into_iter();
    // Invariant: callers pass one profile per shard and `jobs >= 1`; the
    // default only materializes for an (accepted, degenerate) empty input.
    let mut base = iter.next().unwrap_or_default();
    for shard in iter {
        base.dropped_readers += shard.dropped_readers;
        base.shadow_stats.pages_allocated += shard.shadow_stats.pages_allocated;
        base.shadow_stats.read_set_spills += shard.shadow_stats.read_set_spills;
        // Dependence detections partition by address exactly like the
        // memory events that produce them, so the thread-classification
        // counters sum to the sequential run's.
        base.intra_thread_deps += shard.intra_thread_deps;
        base.cross_thread_deps += shard.cross_thread_deps;
        for c in shard.constructs() {
            for (key, stat) in &c.edges {
                base.merge_edge(c.id, *key, *stat);
            }
        }
    }
    base
}

/// Extracts per-shard profiles from finished profilers and merges them.
/// When `metrics` is `Some`, each shard's shadow-layout telemetry (pages
/// faulted, read-set spills) is recorded per shard and the merge runs under
/// a `merge` stage span.
fn finish_shard_profilers(
    profilers: Vec<AlchemistProfiler<'_>>,
    total_steps: u64,
    metrics: Option<&Metrics>,
) -> (DepProfile, PoolStats, usize) {
    let mut shards: Vec<(DepProfile, PoolStats, usize)> = profilers
        .into_iter()
        .map(|prof| {
            let pool_stats = prof.pool_stats();
            let max_depth = prof.max_depth();
            (prof.into_profile(total_steps), pool_stats, max_depth)
        })
        .collect();
    // Invariant: the fan-out produced exactly `jobs >= 1` profilers, so
    // shard 0 always exists here.
    let (pool_stats, max_depth) = (shards[0].1, shards[0].2);
    debug_assert!(
        shards
            .iter()
            .all(|(_, ps, d)| (*ps, *d) == (pool_stats, max_depth)),
        "control-derived statistics must be identical across shards"
    );
    if let Some(m) = metrics {
        for (k, (profile, _, _)) in shards.iter().enumerate() {
            m.record_shard(ShardMetrics {
                shard: k,
                pages_allocated: profile.shadow_stats.pages_allocated,
                read_set_spills: profile.shadow_stats.read_set_spills,
                ..ShardMetrics::default()
            });
        }
    }
    let profiles = shards.drain(..).map(|(p, _, _)| p).collect();
    let _merge_span = span_opt(metrics, Stage::Merge);
    (merge_shard_profiles(profiles), pool_stats, max_depth)
}

/// Profiles a batch stream through the address shards of `spec` (via
/// [`run_sharded_batched`]) and merges the per-shard profiles.
///
/// The [`DepProfile`] is **equal** to sequential and live profiling of the
/// recorded run; the pool statistics and maximum depth are control-derived
/// and identical in every shard. A one-job spec runs the sequential
/// [`profile_batches`]. With `metrics`, the fan-out records per-shard
/// telemetry, the merge runs under a `merge` span, and the `profile.events`
/// / `profile.deps` counters are bumped.
///
/// # Errors
///
/// [`ShardError`] if any shard worker panicked.
///
/// # Examples
///
/// ```
/// use alchemist_core::{
///     profile_batches_par_spec, profile_events, ProfileConfig, ShardSpec, ShardTuning,
/// };
/// use alchemist_vm::{compile_source, run, EventBatch, ExecConfig, RecordingSink};
///
/// let src = "int g; int main() { int i; for (i = 0; i < 9; i++) g += i; return g; }";
/// let module = compile_source(src).unwrap();
/// let mut rec = RecordingSink::default();
/// let out = run(&module, &ExecConfig::default(), &mut rec).unwrap();
///
/// let (seq, _, _) = profile_events(
///     &module, rec.events.iter().copied(), out.steps, ProfileConfig::default());
/// let batches: Vec<EventBatch> = rec.events.chunks(16).map(EventBatch::from_events).collect();
/// let spec = ShardSpec::for_batches(&batches, 4);
/// let (par, _, _) = profile_batches_par_spec(
///     &module, &batches, out.steps, ProfileConfig::default(), spec,
///     ShardTuning::default(), None).unwrap();
/// assert_eq!(par, seq);
/// ```
pub fn profile_batches_par_spec(
    module: &Module,
    batches: &[EventBatch],
    total_steps: u64,
    config: ProfileConfig,
    spec: ShardSpec,
    tuning: ShardTuning,
    metrics: Option<&Metrics>,
) -> Result<(DepProfile, PoolStats, usize), ShardError> {
    let result = if spec.jobs() <= 1 {
        profile_batches(module, batches, total_steps, config)
    } else {
        let profilers = run_sharded_batched(batches, spec, tuning, metrics, |_| {
            AlchemistProfiler::new(module, config.clone())
        })?;
        finish_shard_profilers(profilers, total_steps, metrics)
    };
    if let Some(m) = metrics {
        m.add(
            Counter::ProfileEvents,
            batches.iter().map(|b| b.len() as u64).sum(),
        );
        m.add(
            Counter::ProfileDeps,
            result.0.intra_thread_deps + result.0.cross_thread_deps,
        );
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::profile_events;
    use alchemist_vm::{
        compile_source, run, BlockId, CountingSink, Event, ExecConfig, RecordingSink, Tid, Time,
    };

    const CHURN: &str = "int a[16]; int sum;
        void mix(int k) {
            int i;
            for (i = 0; i < 16; i++) a[i] = a[(i + k) % 16] + i;
        }
        int main() {
            int r;
            for (r = 0; r < 6; r++) { mix(r); sum += a[r]; }
            return sum;
        }";

    fn record(src: &str) -> (alchemist_vm::Module, Vec<Event>, u64) {
        let module = compile_source(src).unwrap();
        let mut rec = RecordingSink::default();
        let out = run(&module, &ExecConfig::default(), &mut rec).unwrap();
        (module, rec.events, out.steps)
    }

    /// Specs covering the ladder's extremes and a middle stride; parity and
    /// partition properties must hold for every one of them.
    fn specs(jobs: u32) -> Vec<ShardSpec> {
        [PAGE_SHIFT, 6, 0]
            .into_iter()
            .map(|shift| ShardSpec::with_shift(jobs, shift))
            .collect()
    }

    /// Batches the recorded stream into blocks of `size` events.
    fn to_batches(events: &[Event], size: usize) -> Vec<EventBatch> {
        events.chunks(size).map(EventBatch::from_events).collect()
    }

    /// The sharded profile under the chooser's spec and default tuning.
    fn profile_par(
        module: &Module,
        batches: &[EventBatch],
        steps: u64,
        config: ProfileConfig,
        jobs: u32,
        metrics: Option<&Metrics>,
    ) -> (DepProfile, PoolStats, usize) {
        let spec = ShardSpec::for_batches(batches, jobs);
        profile_batches_par_spec(
            module,
            batches,
            steps,
            config,
            spec,
            ShardTuning::default(),
            metrics,
        )
        .unwrap()
    }

    #[test]
    fn partition_splits_memory_and_broadcasts_control() {
        let (_m, events, _) = record(CHURN);
        let jobs = 3;
        let mut totals = CountingSink::default();
        for ev in &events {
            ev.dispatch(&mut totals);
        }
        let batches = to_batches(&events, 17);
        for spec in specs(jobs) {
            let mut shards = vec![CountingSink::default(); jobs as usize];
            for batch in &batches {
                for (sink, sub) in shards.iter_mut().zip(partition_batch(batch, spec)) {
                    sink.on_batch(&sub);
                }
            }
            let mut mem_seen = 0;
            for c in &shards {
                assert_eq!(c.enters, totals.enters, "control broadcast");
                assert_eq!(c.predicates, totals.predicates, "control broadcast");
                mem_seen += c.reads + c.writes;
            }
            assert_eq!(
                mem_seen,
                totals.reads + totals.writes,
                "memory events partition exactly (shift {})",
                spec.shift()
            );
        }
    }

    #[test]
    fn shard_counts_cover_all_memory_events() {
        let (_m, events, _) = record(CHURN);
        let mut totals = CountingSink::default();
        for ev in &events {
            ev.dispatch(&mut totals);
        }
        let batches = to_batches(&events, 9);
        for jobs in [1u32, 2, 5] {
            let counts = shard_batch_counts_spec(&batches, ShardSpec::for_batches(&batches, jobs));
            assert_eq!(counts.len(), jobs as usize);
            assert_eq!(counts.iter().sum::<u64>(), totals.reads + totals.writes);
        }
    }

    #[test]
    fn chooser_keeps_page_granularity_when_pages_balance() {
        // Four equally hot pages: page-granular ownership is balanced, so
        // the ladder should stop at PAGE_SHIFT.
        let jobs = 4u32;
        let addrs: Vec<u32> = (0..4096u32)
            .map(|i| (i % 4) * (1 << PAGE_SHIFT) + (i * 7) % 4096)
            .collect();
        assert_eq!(choose_shift(jobs, addrs.into_iter()), PAGE_SHIFT);
    }

    #[test]
    fn chooser_falls_through_when_one_page_dominates() {
        // Everything on page 0, spread within the page: every coarse stride
        // is pathologically clustered and the ladder must fall through to a
        // finer one that balances (word interleave balances perfectly here).
        let jobs = 4u32;
        let addrs: Vec<u32> = (0..4096u32).collect();
        let shift = choose_shift(jobs, addrs.clone().into_iter());
        assert!(shift < PAGE_SHIFT, "page stride kept despite clustering");
        let spec = ShardSpec::with_shift(jobs, shift);
        let mut counts = vec![0u64; jobs as usize];
        for a in addrs {
            counts[spec.shard_of(a) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= MAX_SHARD_IMBALANCE * min, "{counts:?}");
    }

    #[test]
    fn chooser_minimizes_critical_path_when_nothing_balances() {
        // One address takes 90% of the traffic: no stride can balance, so
        // the chooser must pick the stride with the smallest largest shard
        // rather than panic or default blindly.
        let jobs = 4u32;
        let mut addrs = vec![5u32; 900];
        addrs.extend((0..100u32).map(|i| i * 11));
        let shift = choose_shift(jobs, addrs.iter().copied());
        let best_max = CANDIDATE_SHIFTS
            .iter()
            .map(|&s| {
                let spec = ShardSpec::with_shift(jobs, s);
                let mut counts = vec![0u64; jobs as usize];
                for &a in &addrs {
                    counts[spec.shard_of(a) as usize] += 1;
                }
                *counts.iter().max().unwrap()
            })
            .min()
            .unwrap();
        let spec = ShardSpec::with_shift(jobs, shift);
        let mut counts = vec![0u64; jobs as usize];
        for &a in &addrs {
            counts[spec.shard_of(a) as usize] += 1;
        }
        assert_eq!(*counts.iter().max().unwrap(), best_max);
    }

    #[test]
    fn single_job_spec_is_page_granular_and_trivial() {
        let spec = ShardSpec::for_batches(&[], 1);
        assert_eq!(spec.jobs(), 1);
        assert_eq!(spec.shift(), PAGE_SHIFT);
        assert_eq!(spec.shard_of(0xFFFF_FFFF), 0);
    }

    #[test]
    fn more_jobs_than_addresses_is_fine() {
        let (module, events, steps) = record("int g; int main() { g = 1; return g; }");
        let (seq, _, _) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        let batches = to_batches(&events, 16);
        let (par, _, _) = profile_par(&module, &batches, steps, ProfileConfig::default(), 64, None);
        assert_eq!(par, seq);
    }

    #[test]
    fn partition_batch_matches_the_shard_filter_substream() {
        let (_m, events, _) = record(CHURN);
        let batch = EventBatch::from_events(&events);
        for jobs in [1u32, 2, 3, 5] {
            for spec in specs(jobs) {
                let subs = partition_batch(&batch, spec);
                assert_eq!(subs.len(), jobs as usize);
                for (k, sub) in subs.iter().enumerate() {
                    // Ground truth: the per-event ownership predicate over
                    // the recorded stream — every control event, plus the
                    // memory events whose address shard `k` owns.
                    let expect: Vec<Event> = events
                        .iter()
                        .copied()
                        .filter(|ev| match *ev {
                            Event::Read { addr, .. } | Event::Write { addr, .. } => {
                                spec.shard_of(addr) == k as u32
                            }
                            _ => true,
                        })
                        .collect();
                    let got: Vec<Event> = sub.iter().collect();
                    assert_eq!(got, expect, "jobs={jobs} shift={} shard={k}", spec.shift());
                }
            }
        }
    }

    #[test]
    fn fan_out_delivers_each_shard_its_owned_substream() {
        let (_m, events, _) = record(CHURN);
        for batch_size in [1usize, 17, 4096] {
            let batches = to_batches(&events, batch_size);
            for jobs in [1u32, 2, 3, 5] {
                for spec in specs(jobs) {
                    let m = Metrics::new();
                    let sinks = run_sharded_batched(
                        &batches,
                        spec,
                        ShardTuning::default(),
                        Some(&m),
                        |_| RecordingSink::default(),
                    )
                    .unwrap();
                    assert_eq!(sinks.len(), jobs as usize);
                    let mut max_sent = jobs as u64;
                    for (k, sink) in sinks.iter().enumerate() {
                        // Ground truth: the per-event ownership predicate
                        // over the recorded stream, in recorded order.
                        let expect: Vec<Event> = events
                            .iter()
                            .copied()
                            .filter(|ev| match *ev {
                                Event::Read { addr, .. } | Event::Write { addr, .. } => {
                                    spec.shard_of(addr) == k as u32
                                }
                                _ => true,
                            })
                            .collect();
                        let case = format!(
                            "batch_size={batch_size} jobs={jobs} shift={} shard={k}",
                            spec.shift()
                        );
                        assert_eq!(sink.events, expect, "{case}");
                        max_sent += expect.len().div_ceil(SHARD_FLUSH_EVENTS) as u64;
                    }
                    let sent = m.get(Counter::ShardSubBatchesSent);
                    assert!(
                        sent >= jobs as u64 && sent <= max_sent,
                        "{sent} > {max_sent}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_profile_equals_sequential_for_any_job_count() {
        let (module, events, steps) = record(CHURN);
        // A reader cap of 1 forces evictions, which are per-address state:
        // sharding must not change which reads are dropped or how many.
        let tiny_cap = ProfileConfig {
            reader_cap: 1,
            ..Default::default()
        };
        for config in [ProfileConfig::default(), tiny_cap] {
            let (seq, seq_pool, seq_depth) =
                profile_events(&module, events.iter().copied(), steps, config.clone());
            for batch_size in [16usize, 4096] {
                let batches = to_batches(&events, batch_size);
                for jobs in [1u32, 2, 3, 4, 7, 16] {
                    let (par, pool, depth) =
                        profile_par(&module, &batches, steps, config.clone(), jobs, None);
                    let case = format!(
                        "reader_cap={} batch_size={batch_size} jobs={jobs}",
                        config.reader_cap
                    );
                    assert_eq!(par.dropped_readers, seq.dropped_readers, "{case}");
                    assert_eq!(par, seq, "{case}");
                    assert_eq!(pool, seq_pool, "{case}");
                    assert_eq!(depth, seq_depth, "{case}");
                }
            }
        }
    }

    #[test]
    fn batched_profile_equals_sequential_under_every_ladder_stride() {
        // The chooser picks ONE spec per stream, but parity must hold for
        // every spec it could ever pick (any pure address partition works).
        let (module, events, steps) = record(CHURN);
        let (seq, _, _) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        let batches = to_batches(&events, 64);
        for &shift in &CANDIDATE_SHIFTS {
            let spec = ShardSpec::with_shift(3, shift);
            let (par, _, _) = profile_batches_par_spec(
                &module,
                &batches,
                steps,
                ProfileConfig::default(),
                spec,
                ShardTuning::default(),
                None,
            )
            .unwrap();
            assert_eq!(par, seq, "shift={shift}");
        }
    }

    #[test]
    fn instrumented_sharded_profile_equals_uninstrumented() {
        let (module, events, steps) = record(CHURN);
        let batches = to_batches(&events, 16);
        let jobs = 3usize;
        let (plain, _, _) = profile_par(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            jobs as u32,
            None,
        );
        let m = Metrics::new();
        let (instr, _, _) = profile_par(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            jobs as u32,
            Some(&m),
        );
        assert_eq!(instr, plain);

        // Counters describe the stream and the merged profile.
        let total_events: u64 = batches.iter().map(|b| b.len() as u64).sum();
        assert_eq!(m.get(Counter::ProfileEvents), total_events);
        assert_eq!(
            m.get(Counter::ProfileDeps),
            plain.intra_thread_deps + plain.cross_thread_deps
        );
        assert_eq!(
            m.get(Counter::ShardBatchesPartitioned),
            batches.len() as u64
        );
        // Fat sub-batches: rows accumulate to the flush threshold, so far
        // fewer deliveries than input batches — but at least one flush per
        // shard that received anything.
        let sent = m.get(Counter::ShardSubBatchesSent);
        assert!(sent >= 1 && sent <= (batches.len() * jobs) as u64, "{sent}");

        // Per-shard rows: one per shard, mem rows partition exactly, every
        // shard carries its shadow telemetry, and nothing waits.
        let shards = m.shards();
        assert_eq!(shards.len(), jobs);
        let expect_counts =
            shard_batch_counts_spec(&batches, ShardSpec::for_batches(&batches, jobs as u32));
        for (k, sm) in shards.iter().enumerate() {
            assert_eq!(sm.shard, k);
            assert_eq!(sm.mem_events, expect_counts[k], "shard {k}");
            assert!(sm.events >= sm.mem_events);
            assert_eq!((sm.send_wait_ns, sm.recv_wait_ns), (0, 0), "shard {k}");
        }
        let pages: u64 = shards.iter().map(|s| s.pages_allocated).sum();
        assert_eq!(pages, plain.shadow_stats.pages_allocated);

        // The merge span fired exactly once; the fan-out opens no span.
        assert_eq!(m.stage(Stage::ShardPartition).1, 0);
        assert_eq!(m.stage(Stage::Merge).1, 1);
    }

    #[test]
    fn fat_handoff_sends_few_fat_sub_batches() {
        // With the default 4096-row flush threshold, a multi-thousand-event
        // stream split into small input batches must still reach each
        // shard's sink in a handful of fat sub-batches, not one per input
        // batch.
        let (module, events, steps) = record(CHURN);
        let batches = to_batches(&events, 64);
        let jobs = 2usize;
        let m = Metrics::new();
        let _ = profile_par(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            jobs as u32,
            Some(&m),
        );
        let sent = m.get(Counter::ShardSubBatchesSent);
        let delivered: u64 = m.shards().iter().map(|s| s.events).sum();
        assert!(sent > 0);
        // Average rows per send is bounded below by the stream size over
        // the worst-case send count: ceil(rows_k / flush) + 1 per shard.
        let min_avg = delivered / (2 * (delivered / SHARD_FLUSH_EVENTS as u64 + jobs as u64));
        assert!(
            delivered / sent >= min_avg.max(64),
            "sent={sent} delivered={delivered}"
        );
    }

    /// A sink that panics on the first control event when armed.
    #[derive(Debug)]
    struct Bomb {
        armed: bool,
    }

    impl TraceSink for Bomb {
        fn on_block_entry(&mut self, _t: Time, _block: BlockId, _tid: Tid) {
            if self.armed {
                panic!("shard bomb detonated");
            }
        }
    }

    #[test]
    fn panicking_worker_is_a_typed_error() {
        let (_m, events, _) = record(CHURN);
        let batches = to_batches(&events, 16);
        let spec = ShardSpec::with_shift(3, PAGE_SHIFT);
        let err = run_sharded_batched(&batches, spec, ShardTuning::default(), None, |k| Bomb {
            armed: k == 1,
        })
        .unwrap_err();
        assert_eq!(err.shard, 1);
        assert!(err.payload.contains("shard bomb"), "{}", err.payload);
        let msg = err.to_string();
        assert!(msg.contains("shard worker 1 panicked"), "{msg}");
    }

    #[test]
    fn panicking_worker_is_a_typed_error_on_the_batched_path() {
        let (_m, events, _) = record(CHURN);
        let batches = to_batches(&events, 16);
        // Shard 0 dies on its first sub-batch, under word interleaving:
        // the other workers must still walk the whole stream and join.
        let spec = ShardSpec::with_shift(3, 0);
        let err = run_sharded_batched(&batches, spec, ShardTuning::default(), None, |k| Bomb {
            armed: k == 0,
        })
        .unwrap_err();
        assert_eq!(err.shard, 0);
        assert!(err.payload.contains("shard bomb"), "{}", err.payload);
    }

    #[test]
    fn healthy_fanout_still_returns_every_sink() {
        let (_m, events, _) = record(CHURN);
        let batches = to_batches(&events, 16);
        let spec = ShardSpec::for_batches(&batches, 4);
        let sinks = run_sharded_batched(&batches, spec, ShardTuning::default(), None, |_| Bomb {
            armed: false,
        })
        .unwrap();
        assert_eq!(sinks.len(), 4);
    }

    #[test]
    fn non_string_panic_payloads_are_reported_generically() {
        #[derive(Debug)]
        struct IntBomb;
        impl TraceSink for IntBomb {
            fn on_block_entry(&mut self, _t: Time, _block: BlockId, _tid: Tid) {
                std::panic::panic_any(42u32);
            }
        }
        let (_m, events, _) = record(CHURN);
        let batches = to_batches(&events, 16);
        let spec = ShardSpec::with_shift(2, PAGE_SHIFT);
        let err = run_sharded_batched(&batches, spec, ShardTuning::default(), None, |_| IntBomb)
            .unwrap_err();
        assert_eq!(err.payload, "<non-string panic payload>");
    }
}
