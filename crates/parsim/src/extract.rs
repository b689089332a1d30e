//! Task extraction: re-run the program with marked constructs and record
//! the schedule-relevant structure.
//!
//! The extractor maintains the same execution-indexing stack discipline as
//! the profiler (procedure barriers, predicate re-execution, post-dominator
//! pops) but keeps no tree: it only needs to know when instances of the
//! *marked* constructs begin and end. Dependences are detected with the
//! same shadow-memory scheme, attributed to tasks, and turned into schedule
//! constraints:
//!
//! * head in task `A`, tail in the main thread → the main thread joins `A`
//!   at the tail's sequential position (the paper's "join the future at any
//!   possible conflicting read");
//! * head in task `A`, tail in task `B` → precedence edge `A → B`;
//! * head and tail in the same task, or both on the main thread → already
//!   ordered, no constraint;
//! * head and tail on different *program* threads (`spawn`ed mini-C
//!   threads) → no constraint either: the source program already runs the
//!   two sides concurrently, so the what-if schedule must not serialize
//!   them. These dependences are tallied in
//!   [`TaskTrace::cross_thread_sharing`] instead.
//!
//! Variables listed in [`ExtractConfig::privatized`] are excluded from
//! constraint generation: this models the source transformations the paper
//! applies by hand (thread-local copies, reductions, recomputed values).

use crate::task::{TaskId, TaskInstance, TaskTrace};
use alchemist_core::shadow::{Access, ShadowMemory};
use alchemist_core::shard::{run_sharded_batched, ShardError, ShardSpec, ShardTuning};
use alchemist_core::{ConstructId, ConstructKind};
use alchemist_lang::hir::FuncId;
use alchemist_obs::{span_opt, Counter, Metrics, Stage};
use alchemist_vm::{
    BlockId, Event, EventBatch, ExecConfig, Module, Pc, Tid, Time, TraceSink, Trap,
};
use std::collections::HashSet;

/// What to extract and which transformations to assume.
#[derive(Debug, Clone, Default)]
pub struct ExtractConfig {
    /// Heads of the constructs to run asynchronously.
    pub marked: HashSet<Pc>,
    /// Global variables whose conflicts are removed by privatization /
    /// reduction transformations (by name).
    pub privatized: HashSet<String>,
    /// Honor WAR/WAW conflicts as constraints (set when simulating a naive,
    /// untransformed parallelization).
    pub respect_war_waw: bool,
}

impl ExtractConfig {
    /// Marks one construct for asynchronous execution.
    pub fn mark(mut self, head: Pc) -> Self {
        self.marked.insert(head);
        self
    }

    /// Declares a global privatized (its conflicts are transformed away).
    pub fn privatize(mut self, name: &str) -> Self {
        self.privatized.insert(name.to_owned());
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    head: Pc,
    ipdom: Option<BlockId>,
    is_barrier: bool,
    /// Task opened when this entry was pushed, if any.
    opened: Option<TaskId>,
}

/// Per-thread extraction state: the indexing stack and the task (if any)
/// the thread is currently inside.
#[derive(Debug, Default)]
struct Lane {
    stack: Vec<Entry>,
    current_task: Option<TaskId>,
}

/// The extraction sink. Most users call [`extract_tasks`].
#[derive(Debug)]
pub struct TaskExtractor<'m> {
    module: &'m Module,
    config: ExtractConfig,
    /// One lane per thread (dense tids), grown on a thread's first event;
    /// single-threaded runs only ever use `lanes[0]`.
    lanes: Vec<Lane>,
    tasks: Vec<TaskInstance>,
    shadow: ShadowMemory<Option<TaskId>>,
    main_joins: Vec<(u64, TaskId)>,
    task_edges: HashSet<(TaskId, TaskId)>,
    /// Dependences whose head and tail ran on different program threads.
    /// They never become schedule constraints — the program's own spawn
    /// already decoupled the two sides — but they are *sharing*, which the
    /// simulator reports so the cost of the communication is not silently
    /// dropped.
    cross_sharing: u64,
    /// Addresses excluded by privatization.
    excluded: Vec<(u32, u32)>,
}

impl<'m> TaskExtractor<'m> {
    /// Creates an extractor for one run of `module`.
    pub fn new(module: &'m Module, config: ExtractConfig) -> Self {
        let excluded = module
            .globals
            .iter()
            .filter(|g| config.privatized.contains(&g.name))
            .map(|g| (g.offset, g.offset + g.words))
            .collect();
        TaskExtractor {
            module,
            config,
            lanes: vec![Lane::default()],
            tasks: Vec::new(),
            shadow: ShadowMemory::with_dense_limit(8, module.global_words),
            main_joins: Vec::new(),
            task_edges: HashSet::new(),
            cross_sharing: 0,
            excluded,
        }
    }

    /// Finishes extraction.
    pub fn into_trace(mut self, total_steps: u64) -> TaskTrace {
        for li in 0..self.lanes.len() {
            while !self.lanes[li].stack.is_empty() {
                self.pop_one(li, total_steps);
            }
        }
        let mut main_joins = self.main_joins;
        main_joins.sort_unstable();
        main_joins.dedup();
        let mut task_edges: Vec<_> = self.task_edges.into_iter().collect();
        task_edges.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
        TaskTrace {
            tasks: self.tasks,
            main_joins,
            task_edges,
            cross_thread_sharing: self.cross_sharing,
            total_steps,
        }
    }

    /// Index of `tid`'s lane, growing the vector on a thread's first event.
    fn lane_index(&mut self, tid: Tid) -> usize {
        let idx = tid.0 as usize;
        if idx >= self.lanes.len() {
            self.lanes.resize_with(idx + 1, Lane::default);
        }
        idx
    }

    fn push(&mut self, lane: usize, head: Pc, ipdom: Option<BlockId>, is_barrier: bool, t: Time) {
        let opened =
            if self.lanes[lane].current_task.is_none() && self.config.marked.contains(&head) {
                let id = TaskId(self.tasks.len() as u32);
                self.tasks.push(TaskInstance {
                    head,
                    t_enter: t,
                    t_exit: t,
                });
                self.lanes[lane].current_task = Some(id);
                Some(id)
            } else {
                None
            };
        self.lanes[lane].stack.push(Entry {
            head,
            ipdom,
            is_barrier,
            opened,
        });
    }

    fn pop_one(&mut self, lane: usize, t: Time) {
        let e = self.lanes[lane]
            .stack
            .pop()
            .expect("extractor pop on empty stack");
        if let Some(id) = e.opened {
            self.tasks[id.0 as usize].t_exit = t;
            self.lanes[lane].current_task = None;
        }
    }

    fn traced(&self, addr: u32) -> bool {
        addr < self.module.global_words
            && !self
                .excluded
                .iter()
                .any(|&(lo, hi)| lo <= addr && addr < hi)
    }

    fn constrain(&mut self, lane: usize, head_tag: Option<TaskId>, tail_t: u64) {
        constrain_into(
            &mut self.main_joins,
            &mut self.task_edges,
            self.lanes[lane].current_task,
            head_tag,
            tail_t,
        );
    }
}

/// The schedule-constraint rule, as a free function so the read path
/// (`constrain`) and the write path's split-borrow callback share one
/// implementation: head in a task, tail on the main thread → join; head
/// and tail in different tasks → precedence edge; otherwise ordered.
fn constrain_into(
    main_joins: &mut Vec<(u64, TaskId)>,
    task_edges: &mut HashSet<(TaskId, TaskId)>,
    current: Option<TaskId>,
    head_tag: Option<TaskId>,
    tail_t: u64,
) {
    match (head_tag, current) {
        (Some(a), None) => main_joins.push((tail_t, a)),
        (Some(a), Some(b)) if a != b => {
            task_edges.insert((a, b));
        }
        _ => {}
    }
}

impl TraceSink for TaskExtractor<'_> {
    fn on_enter_function(&mut self, t: Time, func: FuncId, _fp: u32, tid: Tid) {
        let head = self.module.funcs[func.0 as usize].entry;
        let lane = self.lane_index(tid);
        self.push(lane, head, None, true, t);
    }

    fn on_exit_function(&mut self, t: Time, _func: FuncId, tid: Tid) {
        let lane = self.lane_index(tid);
        loop {
            let barrier = self.lanes[lane]
                .stack
                .last()
                .expect("exit without entry")
                .is_barrier;
            self.pop_one(lane, t);
            if barrier {
                return;
            }
        }
    }

    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        let lane = self.lane_index(tid);
        while let Some(top) = self.lanes[lane].stack.last() {
            if top.is_barrier || top.ipdom != Some(block) {
                break;
            }
            self.pop_one(lane, t);
        }
    }

    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, _taken: bool, tid: Tid) {
        let lane = self.lane_index(tid);
        let mut found = None;
        for (i, e) in self.lanes[lane].stack.iter().enumerate().rev() {
            if e.is_barrier {
                break;
            }
            if e.head == pc {
                found = Some(i);
                break;
            }
        }
        if let Some(i) = found {
            while self.lanes[lane].stack.len() > i {
                self.pop_one(lane, t);
            }
        }
        let ipdom = self.module.analysis.block(block).ipdom;
        self.push(lane, pc, ipdom, false, t);
    }

    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if !self.traced(addr) {
            return;
        }
        let lane = self.lane_index(tid);
        let access = Access {
            pc,
            t,
            tid,
            node: self.lanes[lane].current_task,
        };
        if let Some(dep) = self.shadow.on_read(addr, access) {
            if dep.head.tid != tid {
                // Already-parallel: the program's own threads carry this
                // flow; it costs communication, not schedule order.
                self.cross_sharing += 1;
            } else {
                self.constrain(lane, dep.head.node, t);
            }
        }
    }

    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if !self.traced(addr) {
            return;
        }
        let lane = self.lane_index(tid);
        let access = Access {
            pc,
            t,
            tid,
            node: self.lanes[lane].current_task,
        };
        // The write must update shadow state (clear the read set, install
        // the new last-write) whether or not WAR/WAW constraints are
        // honored; only the constraint emission is conditional. The
        // callback streams detected dependences into the constraint sets
        // over split borrows — no Vec — through the same `constrain_into`
        // rule the read path uses. Cross-thread heads never constrain
        // (they are already-parallel) but always count as sharing.
        let respect = self.config.respect_war_waw;
        let current = self.lanes[lane].current_task;
        let (main_joins, task_edges) = (&mut self.main_joins, &mut self.task_edges);
        let cross_sharing = &mut self.cross_sharing;
        self.shadow.on_write(addr, access, &mut |_kind, dep| {
            if dep.head.tid != tid {
                *cross_sharing += 1;
            } else if respect {
                constrain_into(main_joins, task_edges, current, dep.head.node, t);
            }
        });
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        // Bulk path, pinned explicitly (mirrors
        // `AlchemistProfiler::on_batch`): one virtual call per batch, rows
        // consumed column-direct by the monomorphized `dispatch_into`.
        batch.dispatch_into(self);
    }
}

/// Runs `module` once and extracts its task trace.
///
/// # Errors
///
/// Returns the [`Trap`] if the program faults.
pub fn extract_tasks(
    module: &Module,
    exec_config: &ExecConfig,
    config: ExtractConfig,
) -> Result<TaskTrace, Trap> {
    let mut extractor = TaskExtractor::new(module, config);
    let outcome = alchemist_vm::run(module, exec_config, &mut extractor)?;
    Ok(extractor.into_trace(outcome.steps))
}

/// Extracts a task trace from a *replayed* event stream instead of
/// re-running the program.
///
/// Any source of [`Event`]s — a `RecordingSink`, a decoded `.alct` trace —
/// drives the same [`TaskExtractor`] a live run would, so one recorded
/// execution can be re-analyzed under many different mark/privatize
/// configurations without paying re-execution. `total_steps` is the
/// recorded run's final instruction count (a trace stores it in its
/// footer).
pub fn extract_tasks_from_events<I>(
    module: &Module,
    config: ExtractConfig,
    events: I,
    total_steps: u64,
) -> TaskTrace
where
    I: IntoIterator<Item = Event>,
{
    let mut extractor = TaskExtractor::new(module, config);
    for ev in events {
        ev.dispatch(&mut extractor);
    }
    extractor.into_trace(total_steps)
}

/// Address-sharded parallel variant of [`extract_tasks_from_events`] over a
/// batch stream: one [`TaskExtractor`] per shard of `spec` (via
/// [`run_sharded_batched`]) sees every control event — task open/close is
/// control-derived — but only its own addresses' memory events. The merge
/// keeps shard 0's tasks and unions the constraints, so the result is
/// **equal** to the sequential extraction. A one-job spec runs one
/// extractor inline.
///
/// With `metrics`, the extraction runs under an `extract` span and bumps
/// `parsim.tasks_extracted`; the fan-out itself records no shard rows,
/// which stay reserved for the profiling shards.
///
/// # Errors
///
/// [`ShardError`] if any shard worker panicked.
pub fn extract_tasks_from_batches_par(
    module: &Module,
    config: ExtractConfig,
    batches: &[EventBatch],
    total_steps: u64,
    spec: ShardSpec,
    metrics: Option<&Metrics>,
) -> Result<TaskTrace, ShardError> {
    let _extract_span = span_opt(metrics, Stage::Extract);
    let trace = if spec.jobs() <= 1 {
        let mut extractor = TaskExtractor::new(module, config);
        for batch in batches {
            extractor.on_batch(batch);
        }
        extractor.into_trace(total_steps)
    } else {
        let extractors = run_sharded_batched(batches, spec, ShardTuning::default(), None, |_| {
            TaskExtractor::new(module, config.clone())
        })?;
        merge_shard_traces(extractors, total_steps)
    };
    if let Some(m) = metrics {
        m.add(Counter::ParsimTasksExtracted, trace.tasks.len() as u64);
    }
    Ok(trace)
}

/// Merges per-shard extractor results: shard 0's control-derived task list
/// plus the union of every shard's schedule constraints, re-sorted and
/// deduplicated exactly as the sequential path does.
fn merge_shard_traces(extractors: Vec<TaskExtractor<'_>>, total_steps: u64) -> TaskTrace {
    let mut iter = extractors
        .into_iter()
        .map(|e| e.into_trace(total_steps))
        .collect::<Vec<_>>()
        .into_iter();
    // Invariant: only reached from the `jobs > 1` fan-out, which spawns
    // (and here returns) at least two extractors.
    let mut base = iter.next().expect("at least one shard");
    let mut edge_set: HashSet<(TaskId, TaskId)> = base.task_edges.iter().copied().collect();
    for shard in iter {
        debug_assert_eq!(base.tasks, shard.tasks, "task lists are control-derived");
        base.main_joins.extend(shard.main_joins);
        edge_set.extend(shard.task_edges);
        // Each dynamic dependence is detected by exactly one address
        // shard, so sharing counts sum to the sequential run's.
        base.cross_thread_sharing += shard.cross_thread_sharing;
    }
    base.main_joins.sort_unstable();
    base.main_joins.dedup();
    base.task_edges = edge_set.into_iter().collect();
    base.task_edges.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
    base
}

/// Finds the head of a construct by kind and source line (a convenient way
/// for benchmarks to say "the loop at line 14 of main").
pub fn construct_at_line(module: &Module, kind: ConstructKind, line: u32) -> Option<Pc> {
    match kind {
        ConstructKind::Method => module
            .funcs
            .iter()
            .find(|f| f.span.line() == line)
            .map(|f| f.entry),
        _ => (0..module.ops.len() as u32).map(Pc).find(|&pc| {
            module
                .analysis
                .predicate_kind(pc)
                .map(ConstructId::kind_of_pred)
                == Some(kind)
                && module.line_at(pc) == line
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_vm::compile_source;

    /// A loop whose iterations are heavy and independent, calling a worker
    /// per iteration.
    const INDEPENDENT: &str = "\
int out[64];
void work(int i) {
    int j;
    int acc = 0;
    for (j = 0; j < 200; j++) acc += j * i;
    out[i] = acc;
}
int main() {
    int i;
    for (i = 0; i < 8; i++) work(i);
    return out[7];
}";

    fn work_head(m: &Module) -> Pc {
        m.func_by_name("work").unwrap().1.entry
    }

    #[test]
    fn marked_function_instances_become_tasks() {
        let m = compile_source(INDEPENDENT).unwrap();
        let cfg = ExtractConfig::default().mark(work_head(&m));
        let trace = extract_tasks(&m, &ExecConfig::default(), cfg).unwrap();
        assert_eq!(trace.tasks.len(), 8);
        for t in &trace.tasks {
            assert!(t.duration() > 200, "worker bodies are heavy");
        }
        // Disjoint, ordered intervals.
        for w in trace.tasks.windows(2) {
            assert!(w[0].t_exit <= w[1].t_enter);
        }
    }

    #[test]
    fn independent_tasks_have_no_task_edges() {
        let m = compile_source(INDEPENDENT).unwrap();
        let cfg = ExtractConfig::default().mark(work_head(&m));
        let trace = extract_tasks(&m, &ExecConfig::default(), cfg).unwrap();
        assert!(trace.task_edges.is_empty(), "{:?}", trace.task_edges);
    }

    #[test]
    fn continuation_read_becomes_main_join() {
        let m = compile_source(INDEPENDENT).unwrap();
        let cfg = ExtractConfig::default().mark(work_head(&m));
        let trace = extract_tasks(&m, &ExecConfig::default(), cfg).unwrap();
        // `return out[7]` reads what task 7 wrote.
        assert!(
            trace.main_joins.iter().any(|&(_, t)| t == TaskId(7)),
            "main must join the producer of out[7]: {:?}",
            trace.main_joins
        );
    }

    #[test]
    fn chained_tasks_get_precedence_edges() {
        // Each call reads the previous call's result: a serial chain.
        let src = "\
int acc;
void step(int i) { acc = acc + i; }
int main() {
    int i;
    for (i = 0; i < 4; i++) step(i);
    return acc;
}";
        let m = compile_source(src).unwrap();
        let head = m.func_by_name("step").unwrap().1.entry;
        let cfg = ExtractConfig::default().mark(head);
        let trace = extract_tasks(&m, &ExecConfig::default(), cfg).unwrap();
        assert_eq!(trace.tasks.len(), 4);
        assert!(
            trace.task_edges.contains(&(TaskId(0), TaskId(1))),
            "chain edges: {:?}",
            trace.task_edges
        );
    }

    #[test]
    fn privatization_removes_constraints() {
        let src = "\
int counter;
int out[8];
void work(int i) { counter++; out[i] = i; }
int main() {
    int i;
    for (i = 0; i < 8; i++) work(i);
    return counter;
}";
        let m = compile_source(src).unwrap();
        let head = m.func_by_name("work").unwrap().1.entry;
        let naive = ExtractConfig::default().mark(head);
        let t1 = extract_tasks(&m, &ExecConfig::default(), naive).unwrap();
        assert!(!t1.task_edges.is_empty(), "counter chain serializes tasks");
        let transformed = ExtractConfig::default().mark(head).privatize("counter");
        let t2 = extract_tasks(&m, &ExecConfig::default(), transformed).unwrap();
        assert!(
            t2.task_edges.is_empty(),
            "privatized counter no longer constrains: {:?}",
            t2.task_edges
        );
    }

    #[test]
    fn loop_iterations_as_tasks() {
        let m = compile_source(INDEPENDENT).unwrap();
        // Mark the for-loop in main (a Loop predicate) instead of `work`.
        let main_line = 9; // "int main() {" is line 9 (1-based) in INDEPENDENT
        let _ = main_line;
        let loop_head = (0..m.ops.len() as u32)
            .map(Pc)
            .find(|&pc| {
                m.analysis.predicate_kind(pc) == Some(alchemist_vm::PredKind::Loop)
                    && m.func_at(pc) == Some(m.main)
            })
            .expect("main's loop predicate");
        let cfg = ExtractConfig::default().mark(loop_head);
        let trace = extract_tasks(&m, &ExecConfig::default(), cfg).unwrap();
        // 8 productive iterations + 1 final test instance.
        assert_eq!(trace.tasks.len(), 9);
    }

    #[test]
    fn replayed_events_extract_the_same_trace() {
        let m = compile_source(INDEPENDENT).unwrap();
        let cfg = ExtractConfig::default().mark(work_head(&m));
        let live = extract_tasks(&m, &ExecConfig::default(), cfg.clone()).unwrap();
        let mut rec = alchemist_vm::RecordingSink::default();
        let out = alchemist_vm::run(&m, &ExecConfig::default(), &mut rec).unwrap();
        let offline = extract_tasks_from_events(&m, cfg, rec.events.iter().copied(), out.steps);
        assert_eq!(live, offline);
    }

    #[test]
    fn sharded_extraction_equals_sequential() {
        // A workload with all three constraint sources: main joins (the
        // final out[7] read), task edges (the counter chain) and WAR/WAW
        // when respected.
        let src = "\
int counter;
int out[8];
void work(int i) { counter++; out[i] = i + counter; }
int main() {
    int i;
    for (i = 0; i < 8; i++) work(i);
    return out[7];
}";
        let m = compile_source(src).unwrap();
        let head = m.func_by_name("work").unwrap().1.entry;
        let mut rec = alchemist_vm::RecordingSink::default();
        let out = alchemist_vm::run(&m, &ExecConfig::default(), &mut rec).unwrap();
        let batches: Vec<EventBatch> = rec.events.chunks(23).map(EventBatch::from_events).collect();
        for respect in [false, true] {
            let cfg = ExtractConfig {
                respect_war_waw: respect,
                ..ExtractConfig::default().mark(head)
            };
            let seq =
                extract_tasks_from_events(&m, cfg.clone(), rec.events.iter().copied(), out.steps);
            assert!(!seq.task_edges.is_empty(), "counter chain constrains");
            for jobs in [1u32, 2, 3, 4, 8] {
                let spec = ShardSpec::for_batches(&batches, jobs);
                let par = extract_tasks_from_batches_par(
                    &m,
                    cfg.clone(),
                    &batches,
                    out.steps,
                    spec,
                    None,
                )
                .unwrap();
                assert_eq!(par, seq, "jobs={jobs} respect_war_waw={respect}");
            }
        }
    }

    #[test]
    fn construct_at_line_finds_methods() {
        let m = compile_source(INDEPENDENT).unwrap();
        let head = construct_at_line(&m, ConstructKind::Method, 2).unwrap();
        assert_eq!(head, work_head(&m));
    }

    #[test]
    fn nested_marks_do_not_nest_tasks() {
        // Both the loop and the callee are marked; only the outermost
        // (whichever opens first) becomes the task.
        let m = compile_source(INDEPENDENT).unwrap();
        let loop_head = (0..m.ops.len() as u32)
            .map(Pc)
            .find(|&pc| {
                m.analysis.predicate_kind(pc) == Some(alchemist_vm::PredKind::Loop)
                    && m.func_at(pc) == Some(m.main)
            })
            .unwrap();
        let cfg = ExtractConfig::default().mark(loop_head).mark(work_head(&m));
        let trace = extract_tasks(&m, &ExecConfig::default(), cfg).unwrap();
        // Tasks are the loop iterations; the nested work() calls fold in.
        assert_eq!(trace.tasks.len(), 9);
        for w in trace.tasks.windows(2) {
            assert!(w[0].t_exit <= w[1].t_enter, "no overlap");
        }
    }
}
