//! Naive and semi-naive bottom-up fixpoint evaluation.
//!
//! This is the execution model of §1.1 of the paper: start from the EDB
//! (plus any seeded IDB facts, for uniform-equivalence tests), apply every
//! rule to a fixpoint, then select/project the query predicate.
//!
//! The semi-naive strategy addresses each rule once per *delta literal*: at
//! iteration `k` the literal designated as the delta ranges over the rows
//! its predicate gained during iteration `k-1`; literals to its left see the
//! full relation as of the start of iteration `k`, literals to its right see
//! the relation as of the start of iteration `k-1`. This enumerates every
//! new body instantiation exactly once.
//!
//! The **boolean-cut runtime** of §3.1 is implemented here: when the program
//! was rewritten so that existential subqueries became zero-arity `B`
//! predicates, enabling [`EvalOptions::boolean_cut`] retires each `B` rule
//! from the fixpoint as soon as `B` is proven, then transitively retires
//! rules whose head predicate no longer has any consumer (the paper's
//! "if `q4` does not appear anywhere else in the program, the rule defining
//! it can also be discarded after `B2` is shown true").
//!
//! # Execution model: freeze, fan out, merge
//!
//! Each fixpoint iteration runs in two halves. First the database is
//! *frozen*: the iteration's work is decomposed into [`Task`]s — one per
//! (rule, delta-variant, chunk) — whose enumeration reads only state fixed
//! at the iteration barrier (rows below the iteration-start marks, plus the
//! up-front composite indexes). Enumeration writes candidate tuples and
//! their premises into per-task buffers. Then the buffers are *merged*:
//! applied to the database in the fixed task order, which is where
//! deduplication, provenance, the fact budget, and the per-rule profile
//! attribution happen.
//!
//! Because the task list is planned from frozen state and the merge replays
//! buffers in task order, the executor is irrelevant to the result: running
//! tasks serially or fanning them out over [`EvalOptions::threads`] workers
//! (a `std::thread::scope` pool — enumeration needs only `&Database`)
//! produces byte-identical databases, stats, provenance, and profile
//! counters at any thread count.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use datalog_ast::{subst, Program, Term, Value};
use datalog_trace::metrics::EvalHists;
use datalog_trace::{EvalProfile, IterationProfile, PredDelta, RuleProfile};

use crate::cancel::CancelToken;
use crate::database::{Database, PredId};
use crate::facts::{AnswerSet, FactSet};
use crate::provenance::Provenance;
use crate::stats::EvalStats;
use crate::EngineError;

/// How many joined rows a rule application may enumerate between
/// cooperative limit checks (deadline / cancellation). Small enough that a
/// single pathological cross product observes its deadline well within the
/// 2× envelope the server promises; large enough that the check (one
/// `Instant::now()` + two atomic loads) is amortized to noise.
const LIMIT_CHECK_INTERVAL: u32 = 4096;

/// Minimum outer-literal rows per chunk when splitting a large range across
/// tasks. Chunk boundaries are a pure function of the frozen range length
/// (never of the thread count), so the task list — and with it every stat —
/// is identical no matter how many workers execute it.
const CHUNK_MIN_ROWS: usize = 1024;

/// Upper bound on chunks per join variant, so tiny per-chunk buffers don't
/// drown the merge in overhead on huge deltas.
const MAX_CHUNKS_PER_VARIANT: usize = 8;

/// Minimum estimated work (sum of every task's body-literal range lengths)
/// before an iteration engages the worker pool. Below this, thread spawn
/// overhead exceeds the enumeration itself; since the executor cannot
/// change the result, falling back to the serial path is free.
const PARALLEL_MIN_WORK: usize = 2048;

/// Fixpoint strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Re-derive everything from the full relations each iteration.
    Naive,
    /// Standard semi-naive (delta-driven) evaluation.
    #[default]
    SemiNaive,
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Fixpoint strategy (default: semi-naive).
    pub strategy: Strategy,
    /// Enable the §3.1 boolean-cut runtime.
    pub boolean_cut: bool,
    /// Record derivation provenance (first derivation per fact).
    pub record_provenance: bool,
    /// Greedily reorder body literals at compile time so that each literal
    /// shares variables with (or has constants bound before) the ones
    /// already placed — turning cold scans into index probes. Off by
    /// default so the experiment counters reflect source order.
    pub reorder_joins: bool,
    /// Collect a per-rule / per-iteration [`EvalProfile`]: each rule's
    /// share of the [`EvalStats`] counters plus wall time, the
    /// per-iteration predicate-growth timeline, and the iteration at which
    /// the §3.1 cut retired each rule. Off by default; when off, the only
    /// cost is one branch per rule per iteration (the join inner loops are
    /// untouched either way — attribution works by differencing the global
    /// counters around each rule's join variants).
    pub profile: bool,
    /// Safety bound on fixpoint iterations.
    pub max_iterations: usize,
    /// Wall-clock deadline. Checked cooperatively at every iteration
    /// boundary and every [`LIMIT_CHECK_INTERVAL`] joined rows inside a
    /// rule application; exceeding it returns
    /// [`EngineError::DeadlineExceeded`] with the partial [`EvalStats`].
    pub deadline: Option<Instant>,
    /// Bound on *new* derived facts. Checked exactly, at every successful
    /// derivation; exceeding it returns [`EngineError::BudgetExceeded`].
    pub fact_budget: Option<u64>,
    /// Cooperative cancellation flag, polled on the same cadence as the
    /// deadline. Triggering it returns [`EngineError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Worker threads for the enumeration half of each fixpoint iteration
    /// (`0` and `1` both mean serial). Any value yields byte-identical
    /// results: tasks are planned from frozen iteration-start state, workers
    /// only enumerate into buffers, and the merge replays the buffers in
    /// fixed (rule, variant, chunk) order.
    pub threads: usize,
    /// Always-on telemetry histograms (task enumeration wall, per-worker
    /// queue wait, merge stall), shared with a server's metric registry.
    /// `None` costs one branch per task; a handle from a disabled registry
    /// costs one more branch inside [`datalog_trace::Histogram::record`].
    pub metrics: Option<EvalHists>,
    /// Per-predicate row-count estimates (rendered predicate name →
    /// estimated rows) that [`EvalOptions::reorder_joins`] uses as cost
    /// tie-breaks: among literals sharing equally many bound variables,
    /// the cheaper relation is joined first, and the seed literal prefers
    /// the smallest estimate. The server evaluates these from the static
    /// size-bound analysis (`datalog_lint::bounds`) against live EDB
    /// cardinalities; `None` keeps the purely structural greedy order
    /// byte-for-byte.
    pub cost_hints: Option<std::sync::Arc<std::collections::BTreeMap<String, u64>>>,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: Strategy::SemiNaive,
            boolean_cut: false,
            record_provenance: false,
            reorder_joins: false,
            profile: false,
            max_iterations: 1_000_000,
            deadline: None,
            fact_budget: None,
            cancel: None,
            threads: 1,
            metrics: None,
            cost_hints: None,
        }
    }
}

/// Result of a fixpoint evaluation.
#[derive(Debug)]
pub struct EvalOutput {
    /// The saturated database (EDB + all derived facts).
    pub database: Database,
    /// Instrumentation counters.
    pub stats: EvalStats,
    /// Provenance, if requested.
    pub provenance: Option<Provenance>,
    /// Per-rule / per-iteration profile, if [`EvalOptions::profile`] was
    /// set. Its per-rule counters partition the global [`EvalStats`]: each
    /// counter summed over all rules equals the global value.
    pub profile: Option<EvalProfile>,
}

/// A term slot in a compiled rule: constant or rule-local variable index.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Const(Value),
    Var(u16),
}

#[derive(Debug, Clone)]
struct LitPlan {
    pred: PredId,
    slots: Vec<Slot>,
    /// Columns bound when the join reaches this literal (constants plus
    /// variables bound by earlier body literals), sorted ascending. Planned
    /// at compile time; non-empty sets name the composite index the literal
    /// probes, and the union over all plans is built up front so probing
    /// never mutates the database. Empty means the literal scans its range.
    probe: Box<[usize]>,
}

#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    rule_idx: usize,
    head: PredId,
    head_slots: Vec<Slot>,
    body: Vec<LitPlan>,
    /// Negated literals, checked once the positive body is fully matched.
    /// Safety guarantees all their variables are bound by then, and
    /// stratification guarantees their relations are complete.
    negatives: Vec<LitPlan>,
    nvars: usize,
}

/// Which row range a literal reads in one join variant.
#[derive(Debug, Clone, Copy)]
enum Range {
    Full,
    Delta,
    Old,
}

/// Which resource limit tripped mid-evaluation. Converted to an
/// [`EngineError`] (with the freshest stats and elapsed time) once the
/// join recursion has unwound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trip {
    Deadline,
    Budget(u64),
    Cancelled,
}

/// One schedulable unit of an iteration: a (rule, delta-variant, chunk)
/// triple. `outer` is the row-id range the *first* body literal enumerates
/// (its delta or full range, possibly one chunk of it); every other literal
/// derives its range from the variant and the frozen marks. Planned from
/// frozen state, so the task list is identical at any thread count.
#[derive(Debug, Clone, Copy)]
struct Task {
    plan_idx: usize,
    /// `None` = all literals read `Full` (naive strategy / seed round).
    delta_idx: Option<usize>,
    outer: (usize, usize),
    /// First chunk of its variant: carries the variant's `evals` count in
    /// the profile so chunking doesn't inflate it.
    lead: bool,
}

/// The frozen, shareable view of one iteration: everything enumeration
/// needs, none of it mutable. `&IterView` is `Send + Sync`, which is what
/// lets `std::thread::scope` workers run [`enumerate_task`] concurrently.
struct IterView<'a> {
    db: &'a Database,
    plans: &'a [RulePlan],
    mark_prev: &'a [usize],
    mark_cur: &'a [usize],
    boolean_cut: bool,
    deadline: Option<Instant>,
    cancel: Option<&'a CancelToken>,
}

impl IterView<'_> {
    fn bounds(&self, pred: PredId, range: Range) -> (usize, usize) {
        let p = pred.0 as usize;
        match range {
            Range::Full => (0, self.mark_cur[p]),
            Range::Delta => (self.mark_prev[p], self.mark_cur[p]),
            Range::Old => (0, self.mark_prev[p]),
        }
    }
}

/// One buffered candidate: the head tuple and its premise rows.
type Emission = (Box<[Value]>, Box<[(PredId, u32)]>);

/// Everything one task's enumeration produced: the candidate tuples (with
/// premises, for provenance) in discovery order, plus the counters the
/// merge folds into the global [`EvalStats`].
#[derive(Debug, Default)]
struct TaskOut {
    emissions: Vec<Emission>,
    derivations: u64,
    tuples_scanned: u64,
    index_probes: u64,
    wall_ns: u64,
    /// Deadline or cancellation observed mid-enumeration. The merge adopts
    /// it (in task order) after applying this task's buffer.
    trip: Option<Trip>,
}

/// Enumerate one task against the frozen view. Pure with respect to the
/// database: all effects land in the returned [`TaskOut`].
fn enumerate_task(view: &IterView<'_>, task: Task) -> TaskOut {
    let t0 = Instant::now();
    let mut en = Enumerator {
        view,
        plan: &view.plans[task.plan_idx],
        delta_idx: task.delta_idx,
        until_check: LIMIT_CHECK_INTERVAL,
        stop: false,
        out: TaskOut::default(),
    };
    let mut bindings: Vec<Option<Value>> = vec![None; en.plan.nvars];
    let mut premises: Vec<(PredId, u32)> = Vec::with_capacity(en.plan.body.len());
    en.join_from(task.outer, 0, &mut bindings, &mut premises);
    en.out.wall_ns = t0.elapsed().as_nanos() as u64;
    en.out
}

/// The per-task join state. Reads only the frozen [`IterView`]; writes only
/// its own [`TaskOut`].
struct Enumerator<'v> {
    view: &'v IterView<'v>,
    plan: &'v RulePlan,
    delta_idx: Option<usize>,
    /// Countdown to the next cooperative limit check.
    until_check: u32,
    /// Set once a boolean head found its witness (§3.1): unwind, one
    /// emission is all the merge will keep anyway.
    stop: bool,
    out: TaskOut,
}

impl Enumerator<'_> {
    /// Poll deadline and cancellation. Returns `true` (recording the trip)
    /// if enumeration must unwind. The fact budget is *not* checked here:
    /// it counts distinct new facts, which only the merge can know.
    fn check_limits(&mut self) -> bool {
        if self.out.trip.is_some() {
            return true;
        }
        if let Some(d) = self.view.deadline {
            if Instant::now() >= d {
                self.out.trip = Some(Trip::Deadline);
                return true;
            }
        }
        if let Some(c) = self.view.cancel {
            if c.is_cancelled() {
                self.out.trip = Some(Trip::Cancelled);
                return true;
            }
        }
        false
    }

    fn join_from(
        &mut self,
        outer: (usize, usize),
        lit: usize,
        bindings: &mut Vec<Option<Value>>,
        premises: &mut Vec<(PredId, u32)>,
    ) {
        let plan = self.plan;
        if lit == plan.body.len() {
            if self.negatives_hold(bindings) {
                self.emit(bindings, premises);
            }
            return;
        }
        let lp = &plan.body[lit];
        let (start, end) = if lit == 0 {
            outer
        } else {
            let range = match self.delta_idx {
                None => Range::Full,
                Some(d) if lit < d => Range::Full,
                Some(d) if lit == d => Range::Delta,
                Some(_) => Range::Old,
            };
            self.view.bounds(lp.pred, range)
        };
        if start >= end {
            return;
        }
        if lp.probe.is_empty() {
            // No bound column: scan the range.
            for row_id in start as u32..end as u32 {
                if !self.try_row(outer, lit, row_id, bindings, premises) {
                    return;
                }
            }
        } else {
            // Probe the composite index over every bound column; the
            // binary-searched subslice holds exactly this range's hits.
            self.out.index_probes += 1;
            let key: Vec<Value> = lp
                .probe
                .iter()
                .map(|&col| match &lp.slots[col] {
                    Slot::Const(c) => *c,
                    Slot::Var(v) => bindings[*v as usize]
                        .expect("compile plans only bound columns as probe columns"),
                })
                .collect();
            let hits = self
                .view
                .db
                .relation(lp.pred)
                .probe_range(&lp.probe, &key, start, end);
            for row_id in hits.iter() {
                if !self.try_row(outer, lit, row_id, bindings, premises) {
                    return;
                }
            }
        }
    }

    /// Match one candidate row at `lit` and recurse. Returns `false` when
    /// the enumeration must unwind (limit trip or boolean stop).
    fn try_row(
        &mut self,
        outer: (usize, usize),
        lit: usize,
        row_id: u32,
        bindings: &mut Vec<Option<Value>>,
        premises: &mut Vec<(PredId, u32)>,
    ) -> bool {
        self.out.tuples_scanned += 1;
        // Cooperative limit check: a task enumerating a pathological cross
        // product must still observe its deadline (or cancellation)
        // promptly, not only at the iteration barrier.
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = LIMIT_CHECK_INTERVAL;
            if self.check_limits() {
                return false;
            }
        }
        let lp = &self.plan.body[lit];
        let row = self.view.db.relation(lp.pred).row(row_id as usize);
        // Match the row against the slots, recording new bindings so we can
        // undo them on backtrack.
        let mut bound_here: Vec<u16> = Vec::new();
        let ok = lp.slots.iter().enumerate().all(|(col, s)| match s {
            Slot::Const(c) => row[col] == *c,
            Slot::Var(v) => match bindings[*v as usize] {
                Some(val) => val == row[col],
                None => {
                    bindings[*v as usize] = Some(row[col]);
                    bound_here.push(*v);
                    true
                }
            },
        });
        if ok {
            premises.push((lp.pred, row_id));
            self.join_from(outer, lit + 1, bindings, premises);
            premises.pop();
        }
        for v in bound_here {
            bindings[v as usize] = None;
        }
        !(self.stop || self.out.trip.is_some())
    }

    /// Check the negated literals under fully-bound `bindings`.
    /// Stratification guarantees the negated relations are complete, so a
    /// plain membership test implements negation-as-failure.
    fn negatives_hold(&mut self, bindings: &[Option<Value>]) -> bool {
        for neg in &self.plan.negatives {
            let tuple: Vec<Value> = neg
                .slots
                .iter()
                .map(|s| match s {
                    Slot::Const(c) => *c,
                    Slot::Var(v) => bindings[*v as usize]
                        .expect("safety guarantees negated variables are bound"),
                })
                .collect();
            self.out.index_probes += 1;
            if self.view.db.relation(neg.pred).contains(&tuple) {
                return false;
            }
        }
        true
    }

    fn emit(&mut self, bindings: &[Option<Value>], premises: &[(PredId, u32)]) {
        self.out.derivations += 1;
        let tuple: Box<[Value]> = self
            .plan
            .head_slots
            .iter()
            .map(|s| match s {
                Slot::Const(c) => *c,
                Slot::Var(v) => {
                    bindings[*v as usize].expect("safety guarantees head variables are bound")
                }
            })
            .collect();
        self.out.emissions.push((tuple, premises.into()));
        // One witness suffices for a boolean head (section 3.1's cut).
        if self.view.boolean_cut && self.plan.head_slots.is_empty() {
            self.stop = true;
        }
    }
}

pub(crate) struct Machine<'a> {
    pub(crate) db: &'a mut Database,
    pub(crate) plans: Vec<RulePlan>,
    /// Active rule mask (boolean cut retires rules by clearing bits).
    pub(crate) active: Vec<bool>,
    /// Per-predicate row-count at the start of the previous iteration.
    pub(crate) mark_prev: Vec<usize>,
    /// Per-predicate row-count at the start of the current iteration.
    pub(crate) mark_cur: Vec<usize>,
    pub(crate) stats: EvalStats,
    pub(crate) provenance: Option<Provenance>,
    /// Per-rule counters + timeline, accumulated when profiling is on.
    pub(crate) profile: Option<EvalProfile>,
    pub(crate) query_pred: Option<PredId>,
    pub(crate) boolean_cut: bool,
    /// Worker threads for the enumeration half (1 = serial).
    pub(crate) threads: usize,
    /// Telemetry histograms shared with the serving layer (see
    /// [`EvalOptions::metrics`]).
    pub(crate) metrics: Option<EvalHists>,
    /// Wall-clock start of the evaluation (for deadline checks and the
    /// `elapsed_ms` a deadline trip reports).
    pub(crate) started: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) fact_budget: Option<u64>,
    pub(crate) cancel: Option<CancelToken>,
    /// A tripped limit; once set, the merge stops applying buffers and the
    /// fixpoint loop converts it into the corresponding [`EngineError`].
    pub(crate) trip: Option<Trip>,
}

impl<'a> Machine<'a> {
    /// Poll deadline and cancellation. Returns `true` (and records the
    /// trip) if the evaluation must unwind. The derived-fact budget is
    /// checked exactly in [`Machine::emit_head`] instead.
    fn check_limits(&mut self) -> bool {
        if self.trip.is_some() {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.trip = Some(Trip::Deadline);
                return true;
            }
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                self.trip = Some(Trip::Cancelled);
                return true;
            }
        }
        false
    }

    /// Convert a recorded trip into its error, with up-to-date stats.
    fn take_trip(&mut self) -> Option<EngineError> {
        self.trip.take().map(|t| match t {
            Trip::Deadline => EngineError::DeadlineExceeded {
                elapsed_ms: self.started.elapsed().as_millis() as u64,
                stats: self.stats,
            },
            Trip::Budget(budget) => EngineError::BudgetExceeded {
                budget,
                stats: self.stats,
            },
            Trip::Cancelled => EngineError::Cancelled { stats: self.stats },
        })
    }

    fn bounds(&self, pred: PredId, range: Range) -> (usize, usize) {
        let p = pred.0 as usize;
        match range {
            Range::Full => (0, self.mark_cur[p]),
            Range::Delta => (self.mark_prev[p], self.mark_cur[p]),
            Range::Old => (0, self.mark_prev[p]),
        }
    }

    /// The frozen, shareable view of the current iteration.
    fn view(&self) -> IterView<'_> {
        IterView {
            db: self.db,
            plans: &self.plans,
            mark_prev: &self.mark_prev,
            mark_cur: &self.mark_cur,
            boolean_cut: self.boolean_cut,
            deadline: self.deadline,
            cancel: self.cancel.as_ref(),
        }
    }

    /// Decompose one iteration into its tasks, in the fixed (rule, variant,
    /// chunk) merge order, plus an estimate of the total enumeration work
    /// (sum of body-literal range lengths) used to decide whether the
    /// worker pool is worth engaging. Reads only frozen iteration-start
    /// state — never the thread count — so every executor applies the
    /// identical task sequence.
    fn plan_tasks(&self, mine: &[usize], seed_round: bool) -> (Vec<Task>, usize) {
        let mut tasks = Vec::new();
        let mut work = 0usize;
        for &i in mine {
            if !self.active[i] {
                continue;
            }
            let plan = &self.plans[i];
            // Under the boolean cut, a proven zero-arity head needs no
            // further derivations at all.
            if self.boolean_cut
                && plan.head_slots.is_empty()
                && !self.db.relation(plan.head).is_empty()
            {
                continue;
            }
            if seed_round {
                work += self.push_variant(&mut tasks, i, None);
            } else {
                for lit in 0..plan.body.len() {
                    let (s, e) = self.bounds(plan.body[lit].pred, Range::Delta);
                    if s < e {
                        work += self.push_variant(&mut tasks, i, Some(lit));
                    }
                }
            }
        }
        (tasks, work)
    }

    /// Push one join variant's tasks, splitting a large outer range into
    /// chunks, and return the variant's estimated work. Chunk count and
    /// boundaries depend only on the frozen range length.
    fn push_variant(
        &self,
        tasks: &mut Vec<Task>,
        plan_idx: usize,
        delta_idx: Option<usize>,
    ) -> usize {
        let plan = &self.plans[plan_idx];
        let outer = match plan.body.first() {
            None => (0, 0),
            Some(l0) => {
                let range = match delta_idx {
                    Some(0) => Range::Delta,
                    _ => Range::Full,
                };
                self.bounds(l0.pred, range)
            }
        };
        let len = outer.1 - outer.0;
        let work: usize = len
            + plan
                .body
                .iter()
                .skip(1)
                .map(|l| {
                    let (s, e) = self.bounds(l.pred, Range::Full);
                    e - s
                })
                .sum::<usize>();
        // A boolean head stops at its first witness; chunking it would only
        // enumerate witnesses the merge discards.
        let chunks = if plan.body.is_empty() || (self.boolean_cut && plan.head_slots.is_empty()) {
            1
        } else {
            (len / CHUNK_MIN_ROWS).clamp(1, MAX_CHUNKS_PER_VARIANT)
        };
        for c in 0..chunks {
            tasks.push(Task {
                plan_idx,
                delta_idx,
                outer: (outer.0 + len * c / chunks, outer.0 + len * (c + 1) / chunks),
                lead: c == 0,
            });
        }
        work
    }

    /// Serial executor: enumerate and merge each task in order. Returns
    /// (enumeration ns, merge ns) for the profiler's iteration split.
    fn run_serial(&mut self, tasks: &[Task]) -> (u64, u64) {
        let mut enum_ns = 0u64;
        let mut merge_ns = 0u64;
        for &task in tasks {
            if self.trip.is_some() {
                break;
            }
            let out = enumerate_task(&self.view(), task);
            enum_ns += out.wall_ns;
            if let Some(h) = &self.metrics {
                h.task_enum.record(out.wall_ns);
            }
            let t0 = Instant::now();
            self.apply_task(task, out);
            merge_ns += t0.elapsed().as_nanos() as u64;
        }
        if let Some(h) = &self.metrics {
            h.merge.record(merge_ns);
        }
        (enum_ns, merge_ns)
    }

    /// Parallel executor: fan enumeration out over `workers` scoped threads
    /// (work-stealing off a shared atomic cursor), then merge the buffers
    /// in task order — the same order [`Machine::run_serial`] applies them.
    fn run_parallel(&mut self, tasks: &[Task], workers: usize) -> (u64, u64) {
        let t0 = Instant::now();
        let mut slots: Vec<Option<TaskOut>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        {
            let view = self.view();
            let next = AtomicUsize::new(0);
            let hists = self.metrics.clone();
            let per_worker: Vec<Vec<(usize, TaskOut)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let view = &view;
                        let next = &next;
                        let hists = hists.clone();
                        s.spawn(move || {
                            let mut done = Vec::new();
                            let mut waited = false;
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&task) = tasks.get(i) else { break };
                                if let Some(h) = &hists {
                                    if !waited {
                                        // Queue wait: fan-out start to this
                                        // worker's first claim (spawn +
                                        // scheduling latency).
                                        h.task_wait.record_duration(t0.elapsed());
                                        waited = true;
                                    }
                                }
                                let out = enumerate_task(view, task);
                                if let Some(h) = &hists {
                                    h.task_enum.record(out.wall_ns);
                                }
                                done.push((i, out));
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("enumeration worker panicked"))
                    .collect()
            });
            for (i, out) in per_worker.into_iter().flatten() {
                slots[i] = Some(out);
            }
        }
        let enum_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        for (&task, out) in tasks.iter().zip(slots) {
            if self.trip.is_some() {
                break;
            }
            self.apply_task(task, out.expect("every task enumerated exactly once"));
        }
        let merge_ns = t1.elapsed().as_nanos() as u64;
        if let Some(h) = &self.metrics {
            h.merge.record(merge_ns);
        }
        (enum_ns, merge_ns)
    }

    /// Merge one task's buffer into the database, in emission order. This
    /// is the single mutation point of the fixpoint: dedup, provenance, the
    /// exact fact budget, and profile attribution all live here, so they
    /// behave identically under any executor.
    fn apply_task(&mut self, task: Task, out: TaskOut) {
        let profiling = self.profile.is_some();
        let before = profiling.then_some(self.stats);
        let t0 = profiling.then(Instant::now);
        self.stats.derivations += out.derivations;
        self.stats.tuples_scanned += out.tuples_scanned;
        self.stats.index_probes += out.index_probes;
        let head = self.plans[task.plan_idx].head;
        let rule_idx = self.plans[task.plan_idx].rule_idx;
        for (tuple, premises) in &out.emissions {
            if self.trip.is_some() {
                break;
            }
            let rel = self.db.relation_mut(head);
            let row_id = rel.len() as u32;
            if rel.insert(tuple) {
                self.stats.facts_derived += 1;
                if let Some(p) = &mut self.provenance {
                    p.record(head, row_id, rule_idx, premises.to_vec());
                }
                // Exact budget enforcement: the (budget+1)-th new fact
                // trips. Checked here, not during enumeration, because only
                // the merge knows which candidates are new.
                if let Some(budget) = self.fact_budget {
                    if self.stats.facts_derived > budget {
                        self.trip = Some(Trip::Budget(budget));
                    }
                }
            } else {
                self.stats.duplicates += 1;
            }
        }
        if self.trip.is_none() {
            self.trip = out.trip;
        }
        if let (Some(before), Some(t0)) = (before, t0) {
            let after = self.stats;
            let rule = &mut self.profile.as_mut().expect("profiling is on").rules[task.plan_idx];
            if task.lead {
                rule.evals += 1;
            }
            rule.derivations += after.derivations - before.derivations;
            rule.facts_derived += after.facts_derived - before.facts_derived;
            rule.duplicates += after.duplicates - before.duplicates;
            rule.tuples_scanned += after.tuples_scanned - before.tuples_scanned;
            rule.index_probes += after.index_probes - before.index_probes;
            rule.wall_ns += out.wall_ns + t0.elapsed().as_nanos() as u64;
        }
    }

    /// Append one iteration to the profile timeline: every predicate's
    /// growth relative to the iteration-start marks, the enumeration/merge
    /// wall split, plus rules retired by the boolean cut this iteration.
    #[allow(clippy::too_many_arguments)]
    fn record_iteration(
        &mut self,
        stratum: usize,
        wall_ns: u64,
        parallel_ns: u64,
        merge_ns: u64,
        tasks: u64,
        retired: u64,
    ) {
        let iteration = self.stats.iterations;
        let mut deltas = Vec::new();
        for p in 0..self.db.pred_count() {
            let id = PredId(p as u32);
            let total = self.db.relation(id).len();
            let new = total - self.mark_cur[p];
            if new > 0 {
                deltas.push(PredDelta {
                    pred: self.db.pred_ref(id).to_string(),
                    new_facts: new as u64,
                    total: total as u64,
                });
            }
        }
        if let Some(profile) = &mut self.profile {
            profile.timeline.push(IterationProfile {
                iteration,
                stratum,
                wall_ns,
                parallel_ns,
                merge_ns,
                tasks,
                deltas,
                rules_retired: retired,
            });
        }
    }

    /// Record the iteration at which the boolean cut retired rule `i`.
    fn mark_retired(&mut self, i: usize) {
        let iteration = self.stats.iterations;
        if let Some(profile) = &mut self.profile {
            let slot = &mut profile.rules[i].retired_at;
            if slot.is_none() {
                *slot = Some(iteration);
            }
        }
    }

    /// Run one stratum's fixpoint to convergence: the freeze → plan →
    /// fan-out → merge loop shared verbatim by [`evaluate`] (cold runs,
    /// `seed_first = true`) and the incremental resident state
    /// ([`crate::incremental::ResidentEval::apply_deltas`], `seed_first =
    /// false`: iteration 1 already has its deltas — the rows inserted past
    /// the converged marks — so no all-`Full` seed round is needed, and the
    /// delta-variant discipline enumerates exactly the new instantiations).
    ///
    /// Sharing this loop is what makes incremental propagation
    /// byte-identical across thread counts: the task list is planned from
    /// frozen marks, the merge replays buffers in fixed order, and nothing
    /// here reads the executor width.
    pub(crate) fn run_stratum(
        &mut self,
        mine: &[usize],
        stratum: usize,
        strategy: Strategy,
        max_iterations: usize,
        seed_first: bool,
    ) -> Result<(), EngineError> {
        if mine.is_empty() {
            return Ok(());
        }
        // Relations registered since the last call (incremental batches may
        // introduce predicates) start with empty history: mark 0 makes all
        // their rows the delta.
        let n_preds = self.db.pred_count();
        self.mark_prev.resize(n_preds, 0);
        self.mark_cur.resize(n_preds, 0);
        let mut local_iter = 0usize;
        loop {
            if self.stats.iterations >= max_iterations {
                return Err(EngineError::IterationLimit {
                    limit: max_iterations,
                    stats: self.stats,
                });
            }
            // Iteration-boundary limit check: covers programs whose
            // per-iteration work never reaches the in-join check cadence.
            self.check_limits();
            if let Some(e) = self.take_trip() {
                return Err(e);
            }
            self.stats.iterations += 1;
            local_iter += 1;
            let first = local_iter == 1 && seed_first;
            let iter_start = self.profile.is_some().then(Instant::now);
            let retired_before = self.stats.rules_retired;
            // Snapshot marks for this iteration.
            for p in 0..n_preds {
                self.mark_cur[p] = self.db.relation(PredId(p as u32)).len();
            }
            // Freeze barrier: seal every relation's mutable tail into
            // sorted runs (and consolidate) so this iteration's probes run
            // against bloom-gated immutable runs. Sealing never changes
            // rows or ids, only the acceleration structures.
            self.db.seal_storage();
            let before = self.db.total_facts();
            // Freeze → plan → fan out → merge. The seed round (and the
            // naive strategy, every round) reads all literals Full;
            // semi-naive rounds get one variant per non-empty delta.
            let seed_round = first || matches!(strategy, Strategy::Naive);
            let (tasks, work) = self.plan_tasks(mine, seed_round);
            let workers = self.threads.min(tasks.len());
            let (parallel_ns, merge_ns) = if workers > 1 && work >= PARALLEL_MIN_WORK {
                self.run_parallel(&tasks, workers)
            } else {
                self.run_serial(&tasks)
            };
            // A limit tripped inside a task: surface it now, before the
            // convergence test could mistake the partially merged
            // iteration for a fixpoint.
            if let Some(e) = self.take_trip() {
                return Err(e);
            }
            if self.boolean_cut {
                self.apply_boolean_cut();
            }
            if let Some(t0) = iter_start {
                let retired = self.stats.rules_retired - retired_before;
                self.record_iteration(
                    stratum,
                    t0.elapsed().as_nanos() as u64,
                    parallel_ns,
                    merge_ns,
                    tasks.len() as u64,
                    retired,
                );
            }
            // Advance marks: what was current becomes previous.
            for p in 0..n_preds {
                self.mark_prev[p] = self.mark_cur[p];
            }
            if self.db.total_facts() == before {
                return Ok(());
            }
        }
    }

    /// §3.1 boolean cut: retire rules defining proven zero-arity predicates,
    /// then transitively retire rules whose head predicate has no remaining
    /// consumer and is not the query predicate.
    fn apply_boolean_cut(&mut self) {
        // Retire rules of proven boolean predicates.
        for i in 0..self.plans.len() {
            if !self.active[i] {
                continue;
            }
            let head = self.plans[i].head;
            if self.db.relation(head).arity() == 0 && !self.db.relation(head).is_empty() {
                self.active[i] = false;
                self.stats.rules_retired += 1;
                self.mark_retired(i);
            }
        }
        // Transitively retire producers that nothing consumes any more.
        loop {
            let mut consumed: Vec<bool> = vec![false; self.db.pred_count()];
            if let Some(q) = self.query_pred {
                consumed[q.0 as usize] = true;
            }
            for (i, plan) in self.plans.iter().enumerate() {
                if self.active[i] {
                    for l in &plan.body {
                        consumed[l.pred.0 as usize] = true;
                    }
                }
            }
            let mut changed = false;
            for i in 0..self.plans.len() {
                if self.active[i] && !consumed[self.plans[i].head.0 as usize] {
                    self.active[i] = false;
                    self.stats.rules_retired += 1;
                    self.mark_retired(i);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// Assign a stratum to every rule (by its head predicate): within a rule,
/// positive derived dependencies may be same-stratum, negated derived
/// dependencies must be strictly lower. Errors if no such assignment exists
/// (negation through recursion).
pub(crate) fn stratify(program: &Program) -> Result<Vec<usize>, EngineError> {
    use std::collections::BTreeMap;
    let idb = program.idb_preds();
    let mut stratum: BTreeMap<&datalog_ast::PredRef, usize> = idb.iter().map(|p| (p, 0)).collect();
    let bound = idb.len() + 1;
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let mut need = 0usize;
            for a in &rule.body {
                if let Some(&s) = stratum.get(&a.pred) {
                    need = need.max(s);
                }
            }
            for a in &rule.negative {
                if let Some(&s) = stratum.get(&a.pred) {
                    need = need.max(s + 1);
                }
            }
            let cur = stratum.get_mut(&rule.head.pred).expect("head is IDB");
            if need > *cur {
                if need > bound {
                    return Err(EngineError::NotStratified {
                        pred: rule.head.pred.to_string(),
                    });
                }
                *cur = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(program
        .rules
        .iter()
        .map(|r| stratum[&r.head.pred])
        .collect())
}

/// Greedy join order: start from the literal with the most constants
/// (ties: smallest estimated relation if `hints` are given, then source
/// order), then repeatedly append the literal sharing the most variables
/// with those already placed (ties: cheaper estimated relation, then more
/// constants, then source order). With `hints == None` the cost key is
/// constant, so the order is byte-identical to the historical structural
/// heuristic. Keeps every literal; only the order changes, which is
/// semantics-preserving for a fixpoint join.
fn greedy_order(
    body: &[datalog_ast::Atom],
    hints: Option<&std::collections::BTreeMap<String, u64>>,
) -> Vec<usize> {
    use std::collections::BTreeSet;
    let n = body.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let consts = |i: usize| body[i].terms.iter().filter(|t| !t.is_var()).count();
    // Estimated rows; relations without an estimate sort last among ties.
    let cost = |i: usize| -> u64 {
        hints
            .and_then(|h| h.get(&body[i].pred.to_string()).copied())
            .unwrap_or(u64::MAX)
    };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut bound: BTreeSet<datalog_ast::Var> = BTreeSet::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    // Seed: most constants, then cheapest relation.
    let first_pos = (0..remaining.len())
        .max_by_key(|&k| {
            let i = remaining[k];
            (consts(i), std::cmp::Reverse(cost(i)), std::cmp::Reverse(k))
        })
        .expect("nonempty");
    let first = remaining.remove(first_pos);
    bound.extend(body[first].var_occurrences());
    order.push(first);
    while !remaining.is_empty() {
        let pos = (0..remaining.len())
            .max_by_key(|&k| {
                let i = remaining[k];
                let shared = body[i]
                    .var_occurrences()
                    .filter(|v| bound.contains(v))
                    .count();
                (
                    shared,
                    std::cmp::Reverse(cost(i)),
                    consts(i),
                    std::cmp::Reverse(k),
                )
            })
            .expect("nonempty");
        let i = remaining.remove(pos);
        bound.extend(body[i].var_occurrences());
        order.push(i);
    }
    order
}

pub(crate) fn compile(
    program: &Program,
    db: &mut Database,
    reorder_joins: bool,
    cost_hints: Option<&std::collections::BTreeMap<String, u64>>,
) -> Result<Vec<RulePlan>, EngineError> {
    let arities = program.arities()?;
    for (pred, &arity) in &arities {
        db.register(pred, arity);
    }
    let mut plans = Vec::with_capacity(program.rules.len());
    for (rule_idx, rule) in program.rules.iter().enumerate() {
        let mut var_ids: HashMap<datalog_ast::Var, u16> = HashMap::new();
        let slot_of = |t: &Term, var_ids: &mut HashMap<datalog_ast::Var, u16>| match t {
            Term::Const(c) => Slot::Const(*c),
            Term::Var(v) => {
                let next = var_ids.len() as u16;
                Slot::Var(*var_ids.entry(*v).or_insert(next))
            }
        };
        let ordered_body: Vec<&datalog_ast::Atom> = if reorder_joins {
            greedy_order(&rule.body, cost_hints)
                .into_iter()
                .map(|i| &rule.body[i])
                .collect()
        } else {
            rule.body.iter().collect()
        };
        let mut body: Vec<LitPlan> = ordered_body
            .iter()
            .map(|a| LitPlan {
                pred: db.pred_id(&a.pred).expect("registered above"),
                slots: a.terms.iter().map(|t| slot_of(t, &mut var_ids)).collect(),
                probe: Box::default(),
            })
            .collect();
        // Statically plan each literal's probe columns: a column is bound
        // when the join reaches the literal iff it holds a constant or a
        // variable some *earlier* literal binds. (A variable repeated
        // within one literal is first bound by the row match itself, so it
        // does not count.) The enumeration order of `slots` is ascending,
        // hence `probe` comes out sorted as the index requires.
        let mut bound_vars: HashSet<u16> = HashSet::new();
        for lp in body.iter_mut() {
            lp.probe = lp
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| match s {
                    Slot::Const(_) => true,
                    Slot::Var(v) => bound_vars.contains(v),
                })
                .map(|(col, _)| col)
                .collect();
            for s in &lp.slots {
                if let Slot::Var(v) = s {
                    bound_vars.insert(*v);
                }
            }
        }
        let negatives: Vec<LitPlan> = rule
            .negative
            .iter()
            .map(|a| LitPlan {
                pred: db.pred_id(&a.pred).expect("registered above"),
                slots: a.terms.iter().map(|t| slot_of(t, &mut var_ids)).collect(),
                // Negation is a fully-bound membership test, not a probe.
                probe: Box::default(),
            })
            .collect();
        let head_slots: Vec<Slot> = rule
            .head
            .terms
            .iter()
            .map(|t| slot_of(t, &mut var_ids))
            .collect();
        plans.push(RulePlan {
            rule_idx,
            head: db.pred_id(&rule.head.pred).expect("registered above"),
            head_slots,
            body,
            negatives,
            nvars: var_ids.len(),
        });
    }
    Ok(plans)
}

/// Load `input` facts into `db`, checking arities against the program's.
/// Facts for predicates the program never mentions are registered and
/// loaded verbatim.
pub(crate) fn load_input(
    db: &mut Database,
    arities: &std::collections::BTreeMap<datalog_ast::PredRef, usize>,
    input: &FactSet,
) -> Result<(), EngineError> {
    for (pred, tuple) in input.iter() {
        if let Some(&expected) = arities.get(pred) {
            if expected != tuple.len() {
                return Err(EngineError::FactArity {
                    pred: pred.to_string(),
                    expected,
                    found: tuple.len(),
                });
            }
        }
        let id = db.register(pred, tuple.len());
        db.insert(id, tuple);
    }
    Ok(())
}

/// Build every composite index the compiled probes need, up front: the
/// join plans fix which columns arrive bound at each literal, so the
/// column sets are known statically. From here on the inner loop probes
/// through `&Relation` only ([`crate::relation::Relation::probe_range`]),
/// which is what lets each iteration freeze the database and share it
/// across workers. `insert` keeps the indexes fresh as the fixpoint grows.
pub(crate) fn ensure_probe_indexes(db: &mut Database, plans: &[RulePlan]) {
    let wanted: BTreeSet<(PredId, &[usize])> = plans
        .iter()
        .flat_map(|p| &p.body)
        .filter(|lp| !lp.probe.is_empty())
        .map(|lp| (lp.pred, &*lp.probe))
        .collect();
    for (pred, cols) in wanted {
        db.ensure_index(pred, cols);
    }
}

/// Run a fixpoint evaluation of `program` over `input`.
///
/// `input` may seed IDB predicates — that is how the uniform-equivalence
/// oracles use the engine. Facts for predicates the program never mentions
/// are loaded verbatim and simply carried through.
pub fn evaluate(
    program: &Program,
    input: &FactSet,
    opts: &EvalOptions,
) -> Result<EvalOutput, EngineError> {
    program.validate()?;
    let mut db = Database::new();
    let plans = compile(
        program,
        &mut db,
        opts.reorder_joins,
        opts.cost_hints.as_deref(),
    )?;
    let arities = program.arities()?;
    load_input(&mut db, &arities, input)?;
    ensure_probe_indexes(&mut db, &plans);
    let n_preds = db.pred_count();
    let query_pred = program
        .query
        .as_ref()
        .and_then(|q| db.pred_id(&q.atom.pred));
    let n_plans = plans.len();
    let mut m = Machine {
        db: &mut db,
        plans,
        active: vec![true; n_plans],
        mark_prev: vec![0; n_preds],
        mark_cur: vec![0; n_preds],
        stats: EvalStats::default(),
        provenance: opts.record_provenance.then(Provenance::new),
        profile: opts.profile.then(|| EvalProfile {
            rules: (0..n_plans)
                .map(|i| RuleProfile {
                    rule_idx: i,
                    ..RuleProfile::default()
                })
                .collect(),
            timeline: Vec::new(),
        }),
        query_pred,
        boolean_cut: opts.boolean_cut,
        threads: opts.threads.max(1),
        metrics: opts.metrics.clone(),
        started: Instant::now(),
        deadline: opts.deadline,
        fact_budget: opts.fact_budget,
        cancel: opts.cancel.clone(),
        trip: None,
    };

    // Stratified evaluation: each stratum runs its own fixpoint; relations
    // of lower strata are complete by the time a negated literal reads
    // them. Pure Datalog programs form a single stratum, and this loop
    // degenerates to the classic one.
    let rule_strata = stratify(program)?;
    let max_stratum = rule_strata.iter().copied().max().unwrap_or(0);
    for stratum in 0..=max_stratum {
        let mine: Vec<usize> = (0..m.plans.len())
            .filter(|&i| rule_strata[m.plans[i].rule_idx] == stratum)
            .collect();
        m.run_stratum(&mine, stratum, opts.strategy, opts.max_iterations, true)?;
    }
    let stats = m.stats;
    let provenance = m.provenance.take();
    let mut profile = m.profile.take();
    if let Some(profile) = &mut profile {
        // Fill in the source renderings now that the machine is done.
        for (i, rp) in profile.rules.iter_mut().enumerate() {
            let rule = &program.rules[i];
            rp.rule = rule.to_string();
            rp.head = rule.head.pred.to_string();
        }
    }
    Ok(EvalOutput {
        database: db,
        stats,
        provenance,
        profile,
    })
}

/// Evaluate and extract the query's answers: the distinct bindings of the
/// query atom's named variables (wildcards are projected out). Constants in
/// the query act as selections; a repeated variable forces equality.
pub fn query_answers(
    program: &Program,
    input: &FactSet,
    opts: &EvalOptions,
) -> Result<(AnswerSet, EvalStats), EngineError> {
    let (answers, out) = query_answers_full(program, input, opts)?;
    Ok((answers, out.stats))
}

/// Like [`query_answers`], but returns the whole [`EvalOutput`] so callers
/// can reach the final database, provenance, and (when
/// [`EvalOptions::profile`] is set) the per-rule/per-iteration profile.
pub fn query_answers_full(
    program: &Program,
    input: &FactSet,
    opts: &EvalOptions,
) -> Result<(AnswerSet, EvalOutput), EngineError> {
    let q = program
        .query
        .clone()
        .ok_or(EngineError::Ast(datalog_ast::AstError::NoQuery))?;
    let out = evaluate(program, input, opts)?;
    let answers = extract_answers(&q.atom, &out.database);
    Ok((answers, out))
}

/// Extract the answers of `q_atom` from a saturated `database`: the
/// distinct bindings of the atom's named variables (wildcards are projected
/// out), matched against the atom's relation. Constants in the atom act as
/// selections; a repeated variable forces equality. Pure read — usable
/// against any frontier, including a resident incremental one.
pub fn extract_answers(q_atom: &datalog_ast::Atom, database: &Database) -> AnswerSet {
    let mut answers = AnswerSet::default();
    // Output columns: named variables in first-occurrence order.
    let mut out_vars = Vec::new();
    for v in q_atom.var_occurrences() {
        if !v.is_wildcard() && !out_vars.contains(&v) {
            out_vars.push(v);
        }
    }
    answers.columns = out_vars.iter().map(|v| v.name()).collect();
    if let Some(id) = database.pred_id(&q_atom.pred) {
        for row in database.relation(id).iter() {
            let fact = datalog_ast::Atom::fact(q_atom.pred.clone(), row.to_vec());
            let mut s = subst::Subst::new();
            if subst::match_atom(q_atom, &fact, &mut s) {
                let tuple: Vec<Value> = out_vars
                    .iter()
                    .map(|v| match s.resolve(Term::Var(*v)) {
                        Term::Const(c) => c,
                        Term::Var(_) => unreachable!("matched against ground fact"),
                    })
                    .collect();
                answers.rows.insert(tuple);
            }
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_program, PredRef};

    fn chain_edb(n: i64) -> FactSet {
        let mut fs = FactSet::new();
        for i in 0..n {
            fs.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
        }
        fs
    }

    const TC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                      a(X, Y) :- p(X, Y).\n\
                      ?- a(X, Y).";

    #[test]
    fn transitive_closure_chain() {
        let p = parse_program(TC).unwrap().program;
        let (ans, stats) = query_answers(&p, &chain_edb(10), &EvalOptions::default()).unwrap();
        // Chain 0->1->...->10: closure has n*(n+1)/2 = 55 pairs.
        assert_eq!(ans.len(), 55);
        assert!(stats.facts_derived >= 55);
        assert!(stats.iterations > 2);
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let p = parse_program(TC).unwrap().program;
        let edb = chain_edb(8);
        let naive = evaluate(
            &p,
            &edb,
            &EvalOptions {
                strategy: Strategy::Naive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let semi = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(naive.database.dump(), semi.database.dump());
        // Semi-naive does strictly less derivation work on a chain.
        assert!(semi.stats.derivations < naive.stats.derivations);
    }

    #[test]
    fn seminaive_derives_each_instantiation_once_on_dag() {
        // On a cycle, semi-naive must still terminate and agree with naive.
        let p = parse_program(TC).unwrap().program;
        let mut edb = FactSet::new();
        for i in 0..5 {
            edb.insert(
                PredRef::new("p"),
                vec![Value::int(i), Value::int((i + 1) % 5)],
            );
        }
        let naive = evaluate(
            &p,
            &edb,
            &EvalOptions {
                strategy: Strategy::Naive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let semi = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        // Cycle: closure is all 25 pairs.
        let a = PredRef::new("a");
        assert_eq!(semi.database.dump().count(&a), 25);
        assert_eq!(naive.database.dump(), semi.database.dump());
    }

    #[test]
    fn constants_in_rules_and_query() {
        let p = parse_program(
            "reach(Y) :- p(0, Y).\n\
             reach(Y) :- reach(X), p(X, Y).\n\
             ?- reach(X).",
        )
        .unwrap()
        .program;
        let (ans, _) = query_answers(&p, &chain_edb(5), &EvalOptions::default()).unwrap();
        assert_eq!(ans.len(), 5); // 1..=5 reachable from 0.
    }

    #[test]
    fn query_constant_selection_and_repeated_vars() {
        let p = parse_program(TC).unwrap().program;
        // Selection: all Y reachable from 2 on a 5-chain: 3,4,5.
        let p2 = {
            let mut p = p.clone();
            p.query = Some(datalog_ast::Query::new(
                datalog_ast::parse_atom("a(2, Y)").unwrap(),
            ));
            p
        };
        let (ans, _) = query_answers(&p2, &chain_edb(5), &EvalOptions::default()).unwrap();
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.columns, vec!["Y".to_string()]);
        // Repeated variable a(X, X): no loops on a chain.
        let p3 = {
            let mut p = p.clone();
            p.query = Some(datalog_ast::Query::new(
                datalog_ast::parse_atom("a(X, X)").unwrap(),
            ));
            p
        };
        let (ans, _) = query_answers(&p3, &chain_edb(5), &EvalOptions::default()).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn wildcards_in_query_are_projected() {
        let p = parse_program(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, _).",
        )
        .unwrap()
        .program;
        let (ans, _) = query_answers(&p, &chain_edb(5), &EvalOptions::default()).unwrap();
        // Distinct first components: 0..4.
        assert_eq!(ans.len(), 5);
        assert_eq!(ans.columns, vec!["X".to_string()]);
    }

    #[test]
    fn seeded_idb_facts_participate() {
        // Uniform-equivalence style input: seed the derived predicate.
        let p = parse_program(TC).unwrap().program;
        let mut input = FactSet::new();
        input.insert(PredRef::new("a"), vec![Value::sym("u"), Value::sym("v")]);
        input.insert(PredRef::new("p"), vec![Value::sym("t"), Value::sym("u")]);
        let out = evaluate(&p, &input, &EvalOptions::default()).unwrap();
        let facts = out.database.dump();
        // p(t,u) ∧ a(u,v) ⇒ a(t,v) by the recursive rule.
        assert!(facts.contains(&PredRef::new("a"), &[Value::sym("t"), Value::sym("v")]));
    }

    #[test]
    fn boolean_cut_retires_rules() {
        // q(X) :- p(X), b.   b :- big(W).
        // With the cut enabled, b's rule retires after it fires once.
        let p = parse_program(
            "q(X) :- p(X), b.\n\
             b :- big(W).\n\
             ?- q(X).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        for i in 0..10 {
            edb.insert(PredRef::new("p"), vec![Value::int(i)]);
            edb.insert(PredRef::new("big"), vec![Value::int(i)]);
        }
        let with_cut = evaluate(
            &p,
            &edb,
            &EvalOptions {
                boolean_cut: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let without = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(with_cut.database.dump(), without.database.dump());
        assert!(with_cut.stats.rules_retired >= 1);
    }

    #[test]
    fn boolean_cut_retires_exclusive_feeders() {
        // Example 2's tail: q4 feeds only B2; once B2 holds, q4's rule
        // retires too.
        let p = parse_program(
            "q(X) :- p(X), b2.\n\
             b2 :- q3(V), q4(V).\n\
             q4(X) :- q6(X).\n\
             ?- q(X).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        edb.insert(PredRef::new("p"), vec![Value::int(1)]);
        edb.insert(PredRef::new("q3"), vec![Value::int(7)]);
        edb.insert(PredRef::new("q6"), vec![Value::int(7)]);
        let out = evaluate(
            &p,
            &edb,
            &EvalOptions {
                boolean_cut: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        // b2's rule and q4's rule both retired.
        assert!(out.stats.rules_retired >= 2);
        assert!(out
            .database
            .dump()
            .contains(&PredRef::new("q"), &[Value::int(1)]));
    }

    #[test]
    fn empty_edb_yields_empty_answers() {
        let p = parse_program(TC).unwrap().program;
        let (ans, stats) = query_answers(&p, &FactSet::new(), &EvalOptions::default()).unwrap();
        assert!(ans.is_empty());
        assert_eq!(stats.facts_derived, 0);
    }

    #[test]
    fn fact_arity_mismatch_is_reported() {
        let p = parse_program(TC).unwrap().program;
        let mut edb = FactSet::new();
        edb.insert(PredRef::new("p"), vec![Value::int(1)]);
        let err = evaluate(&p, &edb, &EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::FactArity { .. }));
    }

    #[test]
    fn iteration_limit_triggers_with_partial_stats() {
        let p = parse_program(TC).unwrap().program;
        let err = evaluate(
            &p,
            &chain_edb(50),
            &EvalOptions {
                max_iterations: 3,
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::IterationLimit { limit: 3, .. }));
        let stats = err.partial_stats().expect("limit trips carry stats");
        assert_eq!(stats.iterations, 3);
        assert!(stats.facts_derived > 0, "partial work is reported");
        assert!(err.is_limit());
    }

    /// A program whose fixpoint is far too large to finish: the full
    /// transitive closure of a dense cycle, plus a cross product.
    fn pathological() -> (Program, FactSet) {
        let p = parse_program(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             big(X, Y, Z, W) :- a(X, Y), a(Z, W).\n\
             ?- big(X, _, _, _).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        for i in 0..60i64 {
            for j in 0..60i64 {
                edb.insert(PredRef::new("p"), vec![Value::int(i), Value::int(j)]);
            }
        }
        (p, edb)
    }

    #[test]
    fn deadline_trips_within_twice_the_deadline() {
        let (p, edb) = pathological();
        let deadline = std::time::Duration::from_millis(30);
        let t0 = Instant::now();
        let err = evaluate(
            &p,
            &edb,
            &EvalOptions {
                deadline: Some(t0 + deadline),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            matches!(err, EngineError::DeadlineExceeded { .. }),
            "{err:?}"
        );
        let stats = err.partial_stats().unwrap();
        assert!(stats.tuples_scanned > 0, "partial stats are reported");
        // The single pathological cross-product rule must not stall past
        // the cooperative check cadence: well within 2x the deadline.
        assert!(
            elapsed < deadline * 2,
            "trip observed after {elapsed:?}, deadline {deadline:?}"
        );
    }

    #[test]
    fn budget_trips_exactly_and_carries_stats() {
        let p = parse_program(TC).unwrap().program;
        let err = evaluate(
            &p,
            &chain_edb(50),
            &EvalOptions {
                fact_budget: Some(100),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        match err {
            EngineError::BudgetExceeded { budget, stats } => {
                assert_eq!(budget, 100);
                // Enforcement is exact: the trip fires on fact 101.
                assert_eq!(stats.facts_derived, 101);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A budget the fixpoint never reaches changes nothing.
        let ok = evaluate(
            &p,
            &chain_edb(10),
            &EvalOptions {
                fact_budget: Some(10_000),
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ok.stats.facts_derived, 55);
    }

    #[test]
    fn cancellation_from_another_thread_unwinds_cleanly() {
        let (p, edb) = pathological();
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            })
        };
        let err = evaluate(
            &p,
            &edb,
            &EvalOptions {
                cancel: Some(token),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err:?}");
        assert!(err.partial_stats().unwrap().tuples_scanned > 0);
    }

    #[test]
    fn pre_cancelled_token_trips_before_any_iteration() {
        let p = parse_program(TC).unwrap().program;
        let token = CancelToken::new();
        token.cancel();
        let err = evaluate(
            &p,
            &chain_edb(5),
            &EvalOptions {
                cancel: Some(token),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        let stats = err.partial_stats().unwrap();
        assert_eq!(stats.iterations, 0, "tripped at the first boundary check");
    }

    /// A dense random-ish digraph: big enough that transitive-closure
    /// iterations cross the [`CHUNK_MIN_ROWS`] and [`PARALLEL_MIN_WORK`]
    /// thresholds, so the parallel tests exercise chunked fan-out for real.
    fn dense_edb(n: i64, m: i64) -> FactSet {
        let mut fs = FactSet::new();
        let mut x: i64 = 42;
        for _ in 0..m {
            // Deterministic xorshift-style scramble; no RNG dependency.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x.rem_euclid(n);
            let b = (x >> 16).rem_euclid(n);
            fs.insert(PredRef::new("p"), vec![Value::int(a), Value::int(b)]);
        }
        fs
    }

    /// Byte-level identity: same row ids per predicate (not just the same
    /// set of facts), same stats partition, same provenance.
    fn assert_identical(a: &EvalOutput, b: &EvalOutput) {
        assert_eq!(a.stats, b.stats, "stats partition differs");
        assert_eq!(a.database.pred_count(), b.database.pred_count());
        for p in 0..a.database.pred_count() {
            let id = PredId(p as u32);
            assert_eq!(a.database.pred_ref(id), b.database.pred_ref(id));
            let ra: Vec<&[Value]> = a.database.relation(id).iter().collect();
            let rb: Vec<&[Value]> = b.database.relation(id).iter().collect();
            assert_eq!(ra, rb, "row order differs for {}", a.database.pred_ref(id));
        }
        assert_eq!(a.provenance, b.provenance, "provenance differs");
    }

    #[test]
    fn parallel_evaluation_is_byte_identical_to_serial() {
        // Programs covering recursion, negation, and the boolean cut.
        let cases: Vec<(&str, bool)> = vec![
            (TC, false),
            (
                "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                 a(X, Y) :- p(X, Y).\n\
                 base(X) :- p(X, _).\n\
                 island(X) :- base(X), not a(X, X).\n\
                 ?- island(X).",
                false,
            ),
            (
                "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                 a(X, Y) :- p(X, Y).\n\
                 b :- a(X, X).\n\
                 q(X) :- p(X, _), b.\n\
                 ?- q(X).",
                true,
            ),
        ];
        let edb = dense_edb(48, 1400);
        for (src, cut) in cases {
            let p = parse_program(src).unwrap().program;
            let opts = |threads: usize| EvalOptions {
                threads,
                boolean_cut: cut,
                record_provenance: true,
                ..EvalOptions::default()
            };
            let serial = evaluate(&p, &edb, &opts(1)).unwrap();
            for threads in [2, 3, 8] {
                let par = evaluate(&p, &edb, &opts(threads)).unwrap();
                assert_identical(&serial, &par);
            }
        }
    }

    #[test]
    fn parallel_profile_counters_match_serial() {
        let p = parse_program(TC).unwrap().program;
        let edb = dense_edb(40, 1000);
        let opts = |threads: usize| EvalOptions {
            threads,
            profile: true,
            ..EvalOptions::default()
        };
        let serial = evaluate(&p, &edb, &opts(1)).unwrap();
        let par = evaluate(&p, &edb, &opts(4)).unwrap();
        assert_identical(&serial, &par);
        // Profiles agree on everything but wall time (which legitimately
        // varies run to run): per-rule counters, retirement, the timeline's
        // per-iteration deltas and task counts.
        assert_eq!(
            serial.profile.unwrap().counters_only(),
            par.profile.unwrap().counters_only()
        );
    }

    #[test]
    fn parallel_budget_trips_exactly_like_serial() {
        let p = parse_program(TC).unwrap().program;
        let opts = |threads: usize| EvalOptions {
            threads,
            fact_budget: Some(100),
            ..EvalOptions::default()
        };
        for threads in [1usize, 4] {
            let err = evaluate(&p, &chain_edb(50), &opts(threads)).unwrap_err();
            match err {
                EngineError::BudgetExceeded { budget, stats } => {
                    assert_eq!(budget, 100);
                    // The merge applies buffers in task order and stops at
                    // the trip, so enforcement stays exact at any width.
                    assert_eq!(stats.facts_derived, 101, "threads={threads}");
                }
                other => panic!("expected BudgetExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_cancellation_unwinds_cleanly() {
        let (p, edb) = pathological();
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            })
        };
        let err = evaluate(
            &p,
            &edb,
            &EvalOptions {
                threads: 4,
                cancel: Some(token),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err:?}");
        assert!(err.partial_stats().unwrap().tuples_scanned > 0);
    }

    #[test]
    fn compile_time_probe_planning_builds_composite_indexes() {
        // t(X, Y, Z) joined with itself on two columns: the second literal
        // probes on both bound positions, so a composite [0, 2] index (in
        // that literal's column space: s(Y, W, X) has Y at 0 and X at 2)
        // must exist after evaluation.
        let p = parse_program(
            "j(X, W) :- t(X, Y, Z), s(Y, W, X).\n\
             ?- j(X, _).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        edb.insert(
            PredRef::new("t"),
            vec![Value::int(1), Value::int(2), Value::int(3)],
        );
        edb.insert(
            PredRef::new("s"),
            vec![Value::int(2), Value::int(9), Value::int(1)],
        );
        let out = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        let s = out.database.pred_id(&PredRef::new("s")).unwrap();
        assert!(out.database.relation(s).has_index(&[0, 2]));
        let j = out.database.pred_id(&PredRef::new("j")).unwrap();
        assert_eq!(out.database.relation(j).len(), 1);
        // Exactly one probe row matched both columns: no residual filtering.
        assert_eq!(out.stats.derivations, 1);
    }

    #[test]
    fn provenance_records_first_derivations() {
        let p = parse_program(TC).unwrap().program;
        let out = evaluate(
            &p,
            &chain_edb(3),
            &EvalOptions {
                record_provenance: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let prov = out.provenance.as_ref().unwrap();
        let a = out.database.pred_id(&PredRef::new("a")).unwrap();
        // a(0,3) exists and has a derivation tree of height >= 2.
        let tree = prov
            .derivation_tree(&out.database, a, &[Value::int(0), Value::int(3)])
            .expect("a(0,3) derived");
        assert!(tree.height() >= 2);
        let rendered = tree.render();
        assert!(rendered.contains("a(0, 3)"));
    }
}
