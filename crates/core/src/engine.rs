//! Parallel evaluation engine.
//!
//! Multi-threaded front-ends for the evaluator families, every one of them
//! run under a fresh governor built from [`EvalOptions::budget`] (an
//! unlimited budget, the default, never stops a run):
//!
//! * the **product** evaluator ([`eval_product_governed`],
//!   [`answers_product_governed_traced`]) — the top-level backtracking
//!   search is partitioned by the domain of the first node variable it
//!   assigns: the domain is cut into `threads × 4` chunks, and
//!   `std::thread::scope` workers pull chunks from an atomic queue. Each
//!   worker carries its own feasibility memo and visited-stamp arrays
//!   (thread-local, so chunk-internal memo locality is preserved) and
//!   borrows the read-only [`PreparedTables`] — trimmed automata, dense
//!   row-grouped transition tables, semijoin-pruned enumeration domains,
//!   reachability closure — built once up front (the build also freezes
//!   the database's CSR index, so no worker pays for it);
//! * the **Yannakakis** evaluator ([`answers_yannakakis_governed_traced`])
//!   — the same tables with globally consistent domains, drained by
//!   streaming enumerators over a static first-variable partition;
//! * the **CQ** evaluators ([`answers_cq_governed_traced`],
//!   [`answers_cq_treedec_governed_traced`]) — both enumerate a join plan
//!   built once (static atom order, per-step hash indexes), partitioned by
//!   stride over its first step's rows. The tree-decomposition evaluator
//!   first builds the semijoin-reduced instance — bag population fans out
//!   bag-per-worker before the (sequential) semijoin passes — and a
//!   prepared plan caches that instance, so its later runs only
//!   enumerate.
//!
//! Workers merge their [`ProductStats`] with saturating adds at join, and
//! answer sets are `BTreeSet`s merged by union — so complete parallel runs
//! return **bit-identical** answers to the sequential evaluators, and the
//! work invariant `checks + cache_hits = sequential checks + cache_hits`
//! holds for enumeration (each (atom, endpoints) feasibility question is
//! asked the same number of times in total; only the memo-hit split shifts
//! with the partitioning). Boolean search additionally propagates a stop
//! flag so sibling workers abandon their chunks after the first success.

use crate::cq_eval::{self, JoinPlan, ReducedCq};
use crate::enumerate::AnswerIter;
use crate::governor::{Governor, Outcome, ResourceBudget, Termination};
use crate::prepare::PreparedQuery;
use crate::product::{Evaluator, Layout, ProductStats, SharedTables};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_analyze::JoinTree;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{Cq, RelationalDb};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Work-queue granularity: chunks per worker. More than 1 so a worker that
/// drew an easy slice of the domain can steal further chunks; small enough
/// that per-chunk memo warm-up stays amortized.
const CHUNKS_PER_THREAD: usize = 4;

/// Options controlling parallel evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Worker threads. `0` (the default) means "use
    /// [`std::thread::available_parallelism`]"; `1` runs the sequential
    /// evaluators unchanged.
    pub threads: usize,
    /// Resource budget of the run (unlimited by default). Every entry
    /// point honours it: each builds a fresh governor from it.
    pub budget: ResourceBudget,
    /// Product-evaluator data layout ([`Layout::Flat`] by default). The CQ
    /// entry points ignore it. [`Layout::BitParallel`] additionally
    /// switches the worker pool to word-granular chunk stealing so chunk
    /// boundaries line up with the kernel's 64-configuration bitmap words.
    pub layout: Layout,
}
impl EvalOptions {
    /// Explicitly sequential evaluation.
    pub fn sequential() -> Self {
        EvalOptions {
            threads: 1,
            ..EvalOptions::default()
        }
    }

    /// Evaluation with exactly `n` worker threads (`0` = auto).
    pub fn with_threads(n: usize) -> Self {
        EvalOptions {
            threads: n,
            ..EvalOptions::default()
        }
    }

    /// Returns these options with `budget` installed (builder style).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns these options with `layout` installed (builder style).
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// The concrete worker count: resolves `threads == 0` to the machine's
    /// available parallelism (1 if that is unknown).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Node-id width of one bitmap word in the bit-parallel kernel: chunk
/// boundaries for [`Layout::BitParallel`] runs are aligned to 64-id
/// multiples so a steal unit matches the kernel's word-wide unit of work.
const WORD_IDS: usize = 64;

/// Chunks per worker under word-granular stealing: finer than
/// [`CHUNKS_PER_THREAD`] because word-aligned chunks can only be balanced
/// in whole-word steps, so load evening relies on the steal queue instead
/// of the remainder spread.
const WORD_CHUNKS_PER_THREAD: usize = 16;

/// First-variable domain partition for the product worker pool. The flat
/// and legacy layouts use the plain [`chunk_ranges`] split; the
/// bit-parallel layout replaces it with word-granular ranges — every chunk
/// a whole number of 64-id words (the last absorbs the remainder) and
/// [`WORD_CHUNKS_PER_THREAD`] chunks per worker for finer stealing.
fn product_chunk_ranges(domain: usize, workers: usize, layout: Layout) -> Vec<Range<NodeId>> {
    if layout != Layout::BitParallel {
        return chunk_ranges(domain, workers * CHUNKS_PER_THREAD);
    }
    if domain == 0 {
        return Vec::new();
    }
    let words = domain.div_ceil(WORD_IDS);
    let parts = (workers * WORD_CHUNKS_PER_THREAD).clamp(1, words);
    let base = words / parts;
    let extra = words % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = (base + usize::from(i < extra)) * WORD_IDS;
        let end = (start + len).min(domain);
        ranges.push(start as NodeId..end as NodeId);
        start = end;
    }
    ranges
}

/// Splits `0..domain` into at most `parts` non-empty contiguous ranges.
fn chunk_ranges(domain: usize, parts: usize) -> Vec<Range<NodeId>> {
    if domain == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, domain);
    let base = domain / parts;
    let extra = domain % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start as NodeId..(start + len) as NodeId);
        start += len;
    }
    ranges
}

/// How many workers a product-evaluator run should actually use: never
/// more than the top-level domain, and 1 when there is nothing to split
/// (no atoms, no node variables, or an empty database).
fn product_workers(db: &GraphDb, query: &PreparedQuery, opts: &EvalOptions) -> usize {
    let t = opts.effective_threads();
    if t <= 1 || query.atoms.is_empty() || query.num_node_vars == 0 || db.num_nodes() == 0 {
        return 1;
    }
    t.min(db.num_nodes())
}

/// `answers` and `stats` as the outcome of the run `governor` metered:
/// its termination and its check-in count.
fn outcome<A>(answers: A, stats: ProductStats, governor: &Governor) -> Outcome<A> {
    Outcome {
        answers,
        stats: ProductStats {
            budget_checks: governor.checkpoints_run(),
            ..stats
        },
        termination: governor.termination(),
        metrics: None,
    }
}

/// [`outcome`] of a Boolean run: `true` is definitive (a satisfying
/// assignment was verified), so it is `Complete` whatever the governor
/// says.
fn boolean_outcome(found: bool, stats: ProductStats, governor: &Governor) -> Outcome<bool> {
    let mut outcome = outcome(found, stats, governor);
    if found {
        outcome.termination = Termination::Complete;
    }
    outcome
}

/// Resource-governed Boolean product evaluation. With `threads > 1` the
/// domain of the first assigned node variable is searched by concurrent
/// workers, and the first success cancels the rest.
///
/// Identical in outcome to [`crate::product::eval_product`] while the
/// budget in `opts.budget` holds; when a limit is hit the search stops
/// cooperatively and the [`Outcome::termination`] field reports which
/// resource ran out. A `true` answer is always definitive (a concrete
/// satisfying assignment was verified); a `false` answer under a
/// non-[`Termination::Complete`] termination only means "not proven
/// satisfiable within budget". Because the stop flag truncates sibling
/// searches, parallel counters are a lower bound on the sequential run's
/// only when the query is satisfiable; for unsatisfiable queries every
/// chunk is exhausted and `checks + cache_hits` matches the sequential
/// total exactly.
pub fn eval_product_governed(
    db: &GraphDb,
    query: &PreparedQuery,
    opts: &EvalOptions,
) -> Outcome<bool> {
    let governor = Governor::new(&opts.budget);
    let tables =
        SharedTables::build_with(db, query, opts.layout, Some(&governor), &NoopTracer, None);
    let workers = product_workers(db, query, opts);
    let mut found = false;
    let mut stats = ProductStats::default();
    if workers <= 1 {
        let mut e = Evaluator::with_tables(db, query, &tables);
        e.set_governor(&governor);
        found = e.boolean();
        e.flush_budget();
        stats = e.stats;
    } else {
        let ranges = product_chunk_ranges(db.num_nodes(), workers, opts.layout);
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, stop, tables, ranges, governor) =
                        (&next, &stop, &tables, &ranges, &governor);
                    s.spawn(move || {
                        let mut e = Evaluator::with_tables(db, query, tables);
                        e.set_stop(stop);
                        e.set_governor(governor);
                        let mut hit = false;
                        while !stop.load(Ordering::Relaxed) && !governor.stopped() {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(r) = ranges.get(i) else { break };
                            e.set_first_var_range(r.clone());
                            if e.boolean() {
                                hit = true;
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        e.flush_budget();
                        (hit, e.stats)
                    })
                })
                .collect();
            for h in handles {
                // lint:allow(unwrap): propagate worker panics instead of losing them
                let (hit, s) = h.join().expect("product worker panicked");
                found |= hit;
                stats.merge(&s);
            }
        });
    }
    boolean_outcome(found, stats, &governor)
}

/// Resource-governed answer enumeration for the product evaluator,
/// reporting per-phase counters and wall-times to `tracer`. One governor
/// spans the table build and the search.
///
/// The returned set is always a **subset** of the full answer set (budget
/// truncation can only lose answers, never invent them), and when
/// [`Outcome::termination`] is [`Termination::Complete`] it is
/// bit-identical to [`crate::product::answers_product`]. Under an
/// unlimited budget the merged `checks + cache_hits` and `assignments` of
/// a query with free variables equal the sequential totals at every
/// thread count; a Boolean query stops every worker once one has its
/// answer (the empty tuple). Worker counter
/// blocks are forked (registered) in spawn order, *before* the workers
/// start, so a collecting tracer's fold is deterministic at one thread and
/// lossless at any thread count; with [`NoopTracer`] the instrumentation
/// compiles away. The returned [`Outcome::metrics`] stays `None` — fold
/// the collecting tracer you passed in (its `metrics()`) to read the
/// phase split.
pub fn answers_product_governed_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let governor = Governor::new(&opts.budget);
    let tables = PreparedTables::build_with(db, query, opts.layout, None, Some(&governor), tracer);
    answers_product_over(db, query, &tables, opts, &governor, tracer)
}

/// Resource-governed answer enumeration over pre-built tables, for the
/// direct-product strategy: exactly the parallel region of
/// [`answers_product_governed_traced`] (the tables fix the layout;
/// `opts.layout` is ignored). A **fresh** `Governor` is constructed on
/// every call — deadlines are measured from this call's entry, and no
/// stop flag or termination survives into the next execution, so a cached
/// plan whose previous run tripped its budget starts the next run clean.
/// The budget covers the search region only: the table build already
/// happened in [`PreparedTables::build`].
pub fn answers_product_governed_prepared_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &PreparedTables,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    answers_product_over(
        db,
        query,
        tables,
        opts,
        &Governor::new(&opts.budget),
        tracer,
    )
}

/// The parallel region of the governed product enumeration over tables
/// that already exist, under a governor the caller owns, so one budget
/// can span a table build and the search. The governor is *borrowed*,
/// never stored: callers construct a fresh one per execution (its
/// deadline `Instant` and stop flag are single-run state), which is what
/// lets prepared-plan caches reuse the tables underneath without
/// inheriting a tripped budget.
pub(crate) fn answers_product_over<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &PreparedTables,
    opts: &EvalOptions,
    governor: &Governor,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let workers = product_workers(db, query, opts);
    let (tables, layout) = (&tables.tables, tables.layout);
    let mut out: BTreeSet<Vec<NodeId>> = BTreeSet::new();
    let mut stats = ProductStats::default();
    if workers <= 1 {
        // single full-range streaming iterator: same visit order, memo
        // and claim discipline as the materialized path, but a tripped
        // answer cap stops the search at the cap instead of after it
        (out, stats) = stream_answers(db, query, tables, governor, 1, tracer);
    } else {
        let ranges = product_chunk_ranges(db.num_nodes(), workers, layout);
        let next = AtomicUsize::new(0);
        // a Boolean query is complete once any worker has its one answer
        // (the empty tuple): that worker raises `found`, the others stop
        let found = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, ranges, found) = (&next, &ranges, &found);
                    // fork before spawn: deterministic registration order
                    let worker_tracer = tracer.fork_worker();
                    s.spawn(move || {
                        let mut e = Evaluator::with_tables_traced(db, query, tables, worker_tracer);
                        e.set_governor(governor);
                        let boolean = query.free.is_empty();
                        if boolean {
                            e.set_stop(found);
                        }
                        let mut mine: BTreeSet<Vec<NodeId>> = BTreeSet::new();
                        while !governor.stopped() && !found.load(Ordering::Relaxed) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(r) = ranges.get(i) else { break };
                            e.set_first_var_range(r.clone());
                            e.answers_into(&mut mine);
                            if boolean && !mine.is_empty() {
                                found.store(true, Ordering::Relaxed);
                            }
                        }
                        e.flush_budget();
                        (mine, e.stats)
                    })
                })
                .collect();
            for h in handles {
                // lint:allow(unwrap): propagate worker panics instead of losing them
                let (mine, s) = h.join().expect("product worker panicked");
                if out.is_empty() {
                    out = mine;
                } else {
                    out.extend(mine);
                }
                stats.merge(&s);
            }
        });
    }
    outcome(out, stats, governor)
}

// ---------------------------------------------------------------------------
// Yannakakis strategy entry points
// ---------------------------------------------------------------------------

/// Answer enumeration under the Yannakakis strategy, with tracing:
/// semijoin program over the join tree, then streaming enumeration over
/// the globally consistent domains. One governor spans the semijoin
/// program and the enumeration. Parallel runs use a static first-variable
/// partition (one contiguous range per worker). The returned set is a
/// subset of the full answer set, bit-identical to the sequential set
/// when [`Outcome::termination`] is [`Termination::Complete`];
/// `max_answers` stops the streaming enumeration exactly at the cap.
pub fn answers_yannakakis_governed_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tree: &JoinTree,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let governor = Governor::new(&opts.budget);
    let tables =
        PreparedTables::build_with(db, query, Layout::Flat, Some(tree), Some(&governor), tracer);
    answers_yannakakis_over(db, query, &tables, opts, &governor, tracer)
}

/// Resource-governed streaming enumeration over tables prepared with
/// [`PreparedTables::build_for_tree`]: the Yannakakis execution tail
/// (static first-variable partition, per-worker streams merged by union)
/// with a fresh per-call `Governor`, mirroring
/// [`answers_yannakakis_governed_traced`] minus the semijoin program it
/// already paid for at preparation time.
pub fn answers_yannakakis_governed_prepared_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &PreparedTables,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    answers_yannakakis_over(
        db,
        query,
        tables,
        opts,
        &Governor::new(&opts.budget),
        tracer,
    )
}

/// [`answers_yannakakis_governed_prepared_traced`] under a governor the
/// caller owns, so one budget can span a table build and the search.
pub(crate) fn answers_yannakakis_over<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &PreparedTables,
    opts: &EvalOptions,
    governor: &Governor,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let workers = product_workers(db, query, opts);
    let (answers, stats) = stream_answers(db, query, &tables.tables, governor, workers, tracer);
    outcome(answers, stats, governor)
}

/// Drains streaming [`AnswerIter`]s over pre-built tables: one full-range
/// iterator sequentially, or one per worker over a *static* partition of
/// the first assigned variable's range. Per-worker dedup is local (free
/// tuples cycled by different workers' odometers can coincide), so the
/// per-worker sets are merged by union; when the governor never trips the
/// union is bit-identical to the sequential set.
fn stream_answers<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &SharedTables,
    governor: &Governor,
    workers: usize,
    tracer: &T,
) -> (BTreeSet<Vec<NodeId>>, ProductStats) {
    if workers <= 1 {
        let mut out = BTreeSet::new();
        let mut it = AnswerIter::with_parts(
            db,
            query,
            tables,
            Some(governor),
            None,
            tracer.fork_worker(),
        );
        it.drain_into(&mut out);
        return (out, *it.stats());
    }
    let ranges = chunk_ranges(db.num_nodes(), workers);
    // raised once a worker has a Boolean query's one answer, as in
    // `answers_product_over`
    let found = AtomicBool::new(false);
    let mut out: BTreeSet<Vec<NodeId>> = BTreeSet::new();
    let mut stats = ProductStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let (r, found) = (r.clone(), &found);
                // fork before spawn: deterministic registration order
                let worker_tracer = tracer.fork_worker();
                s.spawn(move || {
                    let mut it = AnswerIter::with_parts(
                        db,
                        query,
                        tables,
                        Some(governor),
                        Some(r),
                        worker_tracer,
                    );
                    let boolean = query.free.is_empty();
                    if boolean {
                        it.set_stop(found);
                    }
                    let mut mine: BTreeSet<Vec<NodeId>> = BTreeSet::new();
                    it.drain_into(&mut mine);
                    if boolean && !mine.is_empty() {
                        found.store(true, Ordering::Relaxed);
                    }
                    (mine, *it.stats())
                })
            })
            .collect();
        for h in handles {
            // lint:allow(unwrap): propagate worker panics instead of losing them
            let (mine, s) = h.join().expect("streaming worker panicked");
            if out.is_empty() {
                out = mine;
            } else {
                out.extend(mine);
            }
            stats.merge(&s);
        }
    });
    (out, stats)
}

// ---------------------------------------------------------------------------
// Prepared evaluation state (tables built once, executed many times)
// ---------------------------------------------------------------------------

/// Pre-built read-only evaluation state for the product-family entry
/// points: the shared tables — trimmed automata, reachability closure,
/// dense row-grouped transition tables, semijoin-pruned enumeration
/// domains — that every one-shot engine call otherwise rebuilds serially
/// before its workers spawn. Building them once and executing many times
/// (with [`answers_product_governed_prepared_traced`] or
/// [`answers_yannakakis_governed_prepared_traced`]) is what a
/// prepared-plan cache amortizes, and it is also what makes thread
/// scaling visible end-to-end: the serial build no longer dilutes the
/// parallel search region (Amdahl).
///
/// The tables are plain owned data (`Send + Sync`), safe to share across
/// threads and across executions. [`PreparedTables::build`] and
/// [`PreparedTables::build_for_tree`] build them without a budget, so
/// they are complete. A cached plan builds them under the governor of the
/// run that first needs them and keeps them only when that governor had
/// not tripped by the end of the build: a budget tripping mid-build
/// truncates closure rows and semijoin domains — sound for the single run
/// that observes the non-complete [`Termination`], but silently lossy if
/// ever reused.
pub struct PreparedTables {
    tables: SharedTables,
    layout: Layout,
}

impl PreparedTables {
    /// Builds the shared evaluation tables for `query` over `db` under
    /// `layout` (no join tree: the semijoin sweep prunes per-variable
    /// domains pairwise, as the direct-product strategy does). Also
    /// freezes the database's CSR index, so no later execution pays for
    /// it.
    pub fn build(db: &GraphDb, query: &PreparedQuery, layout: Layout) -> Self {
        Self::build_with(db, query, layout, None, None, &NoopTracer)
    }

    /// Builds tables whose domains are made globally consistent by the
    /// two-pass Yannakakis semijoin program over `tree` (always the flat
    /// layout, matching the planner's Yannakakis dispatch).
    pub fn build_for_tree(db: &GraphDb, query: &PreparedQuery, tree: &JoinTree) -> Self {
        Self::build_with(db, query, Layout::Flat, Some(tree), None, &NoopTracer)
    }

    /// The general build: `tree` selects the Yannakakis semijoin program,
    /// and the closure rows and semijoin sweeps check in with `governor`
    /// and report to `tracer`.
    pub(crate) fn build_with<T: Tracer>(
        db: &GraphDb,
        query: &PreparedQuery,
        layout: Layout,
        tree: Option<&JoinTree>,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> Self {
        PreparedTables {
            tables: SharedTables::build_with(db, query, layout, governor, tracer, tree),
            layout,
        }
    }

    /// The layout these tables were built for. Prepared executions use
    /// it regardless of what [`EvalOptions::layout`] says — the dense
    /// tables and domain bitmaps are layout-specific.
    pub fn layout(&self) -> Layout {
        self.layout
    }
}

// ---------------------------------------------------------------------------
// CQ entry points
// ---------------------------------------------------------------------------

/// Stats for the CQ family under governance: the governor's work counter is
/// the only cross-worker aggregate the CQ evaluators maintain, so it is
/// surfaced through `configurations`.
fn governed_cq_stats(governor: &Governor) -> ProductStats {
    ProductStats {
        configurations: governor.work_charged(),
        budget_checks: governor.checkpoints_run(),
        budget_aborts: u64::from(governor.stopped()),
        ..ProductStats::default()
    }
}

/// Resource-governed Boolean CQ evaluation by stride-partitioned
/// backtracking. `true` is definitive; `false` with a non-complete
/// termination means "not proven within budget".
pub fn eval_cq_governed(db: &RelationalDb, q: &Cq, opts: &EvalOptions) -> Outcome<bool> {
    let governor = Governor::new(&opts.budget);
    let join = JoinPlan::from_db(db, q);
    let workers = join.workers(opts.effective_threads());
    let mut found = false;
    if workers <= 1 {
        found = join.satisfiable_part(None, Some(&governor), &NoopTracer);
    } else {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|p| {
                    let (stop, governor, join) = (&stop, &governor, &join);
                    s.spawn(move || {
                        if stop.load(Ordering::Relaxed) || governor.stopped() {
                            return false;
                        }
                        let hit =
                            join.satisfiable_part(Some((workers, p)), Some(governor), &NoopTracer);
                        if hit {
                            stop.store(true, Ordering::Relaxed);
                        }
                        hit
                    })
                })
                .collect();
            for h in handles {
                // lint:allow(unwrap): propagate worker panics instead of losing them
                found |= h.join().expect("cq worker panicked");
            }
        });
    }
    boolean_outcome(found, governed_cq_stats(&governor), &governor)
}

/// Resource-governed Boolean tree-decomposition evaluation. The
/// Yannakakis reduction only certifies satisfiability when it ran to
/// completion, so a run cut short by the budget never returns `true` —
/// `false` under a non-complete termination means "not proven".
pub fn eval_cq_treedec_governed(db: &RelationalDb, q: &Cq, opts: &EvalOptions) -> Outcome<bool> {
    let governor = Governor::new(&opts.budget);
    let sat = cq_eval::eval_cq_treedec_threads(
        db,
        q,
        opts.effective_threads(),
        Some(&governor),
        &NoopTracer,
    );
    boolean_outcome(sat, governed_cq_stats(&governor), &governor)
}

/// Resource-governed CQ answer enumeration, reporting join/odometer
/// counters to `tracer` (worker blocks forked in spawn order): workers
/// cover disjoint stride classes of the first join atom's tuples. Same
/// subset/complete guarantees as [`answers_product_governed_traced`],
/// relative to [`crate::cq_eval::answers_cq`]. Building the join's indexes
/// is timed under [`crate::trace::Phase::CqJoin`].
pub fn answers_cq_governed_traced<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<u32>>> {
    let governor = Governor::new(&opts.budget);
    let span = PhaseSpan::start(tracer, Phase::CqJoin);
    let join = JoinPlan::from_db(db, q);
    span.finish(tracer);
    let answers = answers_join(&join, opts, &governor, tracer);
    outcome(answers, governed_cq_stats(&governor), &governor)
}

/// Resource-governed tree-decomposition answer enumeration: builds the
/// semijoin-reduced join instance (parallel bag population, sequential
/// semijoins) and enumerates it with the stride-parallel CQ pool — the
/// same build and run a prepared plan splits across its runs. One
/// governor spans both, so a deadline covers the whole pipeline. A run
/// cut short during the reduction enumerates nothing, so the subset
/// guarantee holds; a complete run equals
/// [`crate::cq_eval::answers_cq_treedec`]. The reduction is reported under
/// [`crate::trace::Phase::TreedecBags`] and the enumeration under
/// [`crate::trace::Phase::CqJoin`] / [`crate::trace::Phase::Odometer`].
pub fn answers_cq_treedec_governed_traced<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<u32>>> {
    let governor = Governor::new(&opts.budget);
    let reduced = ReducedCq::build(db, q, opts.effective_threads(), Some(&governor), tracer);
    answers_cq_reduced_over(&reduced, opts, &governor, tracer)
}

/// Stride-parallel enumeration of a (possibly cached) [`ReducedCq`] under
/// `governor`: the whole per-run cost of a prepared tree-decomposition
/// plan whose reduction is already built. Honours every budget axis.
pub(crate) fn answers_cq_reduced_over<T: Tracer>(
    reduced: &ReducedCq,
    opts: &EvalOptions,
    governor: &Governor,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<u32>>> {
    let answers = reduced.join().map_or_else(BTreeSet::new, |join| {
        answers_join(join, opts, governor, tracer)
    });
    outcome(answers, governed_cq_stats(governor), governor)
}

/// The one governed CQ enumeration pool: workers cover disjoint stride
/// classes of the first step's rows and merge their answer sets by union.
fn answers_join<T: Tracer>(
    join: &JoinPlan,
    opts: &EvalOptions,
    governor: &Governor,
    tracer: &T,
) -> BTreeSet<Vec<u32>> {
    let workers = join.workers(opts.effective_threads());
    let mut out: BTreeSet<Vec<u32>> = BTreeSet::new();
    if workers <= 1 {
        join.answers_part(None, Some(governor), &tracer.fork_worker(), &mut out);
        return out;
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|p| {
                // fork before spawn: deterministic registration order
                let worker_tracer = tracer.fork_worker();
                s.spawn(move || {
                    let mut mine = BTreeSet::new();
                    if !governor.stopped() {
                        join.answers_part(
                            Some((workers, p)),
                            Some(governor),
                            &worker_tracer,
                            &mut mine,
                        );
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            // lint:allow(unwrap): propagate worker panics instead of losing them
            let mine = h.join().expect("cq worker panicked");
            if out.is_empty() {
                out = mine;
            } else {
                out.extend(mine);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::relations;
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn chain_with_branches() -> GraphDb {
        // 0 -a-> 1 -a-> 2 -a-> 3 -b-> 4, plus 0 -b-> 2, 2 -a-> 0
        let mut g = GraphDb::new();
        for i in 0..5 {
            g.add_node(&format!("n{i}"));
        }
        g.add_edge(0, 'a', 1);
        g.add_edge(1, 'a', 2);
        g.add_edge(2, 'a', 3);
        g.add_edge(3, 'b', 4);
        g.add_edge(0, 'b', 2);
        g.add_edge(2, 'a', 0);
        g
    }

    fn eq_len_query(db: &GraphDb) -> Ecrpq {
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", z);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom(
            "eq_len",
            Arc::new(relations::eq_length(2, db.alphabet().len())),
            &[p1, p2],
        );
        q.set_free(&[x, y]);
        q
    }

    #[test]
    fn chunk_ranges_partition_domain() {
        for domain in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(domain, parts);
                let mut covered = 0usize;
                let mut expect = 0u32;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(r.end > r.start, "non-empty");
                    covered += (r.end - r.start) as usize;
                    expect = r.end;
                }
                assert_eq!(covered, domain);
            }
        }
    }

    #[test]
    fn word_chunk_ranges_partition_and_align() {
        for domain in [1usize, 63, 64, 65, 1000, 4097] {
            for workers in [1usize, 2, 8] {
                let ranges = product_chunk_ranges(domain, workers, Layout::BitParallel);
                let mut expect = 0u32;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(r.end > r.start, "non-empty");
                    assert_eq!(r.start as usize % WORD_IDS, 0, "word-aligned start");
                    if i + 1 < ranges.len() {
                        assert_eq!((r.end - r.start) as usize % WORD_IDS, 0, "whole words");
                    }
                    expect = r.end;
                }
                assert_eq!(expect as usize, domain, "covers domain");
            }
        }
        // other layouts keep the plain split
        assert_eq!(
            product_chunk_ranges(100, 2, Layout::Flat),
            chunk_ranges(100, 2 * CHUNKS_PER_THREAD)
        );
    }

    #[test]
    fn bitparallel_engine_matches_flat() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        let seq = crate::product::answers_product(&db, &p);
        let seq_bool = crate::product::eval_product(&db, &p);
        for threads in [1usize, 2, 4, 8] {
            let opts = EvalOptions::with_threads(threads).with_layout(Layout::BitParallel);
            assert_eq!(
                answers_product_governed_traced(&db, &p, &opts, &NoopTracer).answers,
                seq,
                "threads={threads}"
            );
            assert_eq!(
                eval_product_governed(&db, &p, &opts).answers,
                seq_bool,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_product_matches_sequential() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        let seq = crate::product::answers_product(&db, &p);
        for threads in [1usize, 2, 3, 4, 7] {
            let par = answers_product_governed_traced(
                &db,
                &p,
                &EvalOptions::with_threads(threads),
                &NoopTracer,
            )
            .answers;
            assert_eq!(par, seq, "threads={threads}");
        }
        let seq_bool = crate::product::eval_product(&db, &p);
        for threads in [2usize, 4] {
            assert_eq!(
                eval_product_governed(&db, &p, &EvalOptions::with_threads(threads)).answers,
                seq_bool
            );
        }
    }

    #[test]
    fn parallel_stats_cover_sequential_work() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        let (seq_ans, seq_stats) = {
            let o =
                answers_product_governed_traced(&db, &p, &EvalOptions::sequential(), &NoopTracer);
            (o.answers, o.stats)
        };
        for threads in [2usize, 4] {
            let o = answers_product_governed_traced(
                &db,
                &p,
                &EvalOptions::with_threads(threads),
                &NoopTracer,
            );
            let (ans, stats) = (o.answers, o.stats);
            assert_eq!(ans, seq_ans);
            // every feasibility question is asked exactly as often in
            // total; only the hit/miss split moves between workers
            assert_eq!(
                stats.checks + stats.cache_hits,
                seq_stats.checks + seq_stats.cache_hits,
                "threads={threads}"
            );
            assert_eq!(stats.assignments, seq_stats.assignments);
        }
    }

    #[test]
    fn parallel_cq_matches_sequential() {
        let mut db = RelationalDb::new(6);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5), (5, 4)] {
            db.insert("E", &[a, b]);
        }
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.free = vec![0, 2];
        let seq = cq_eval::answers_cq(&db, &q);
        assert!(!seq.is_empty());
        for threads in [2usize, 3, 4, 16] {
            let opts = EvalOptions::with_threads(threads);
            assert_eq!(
                answers_cq_governed_traced(&db, &q, &opts, &NoopTracer).answers,
                seq,
                "threads={threads}"
            );
            assert_eq!(
                eval_cq_governed(&db, &q, &opts).answers,
                cq_eval::eval_cq(&db, &q)
            );
        }
        let treedec_seq = cq_eval::answers_cq_treedec(&db, &q);
        for threads in [2usize, 4] {
            let opts = EvalOptions::with_threads(threads);
            assert_eq!(
                answers_cq_treedec_governed_traced(&db, &q, &opts, &NoopTracer).answers,
                treedec_seq
            );
            assert_eq!(
                eval_cq_treedec_governed(&db, &q, &opts).answers,
                cq_eval::eval_cq_treedec(&db, &q)
            );
        }
    }

    #[test]
    fn zero_atom_cq_not_duplicated() {
        let db = RelationalDb::new(3);
        let mut q = Cq::new(1);
        q.free = vec![0];
        let seq = cq_eval::answers_cq(&db, &q);
        assert_eq!(seq.len(), 3);
        assert_eq!(
            answers_cq_governed_traced(&db, &q, &EvalOptions::with_threads(4), &NoopTracer).answers,
            seq
        );
    }

    #[test]
    fn prepared_tables_match_one_shot() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        for layout in [Layout::Flat, Layout::BitParallel] {
            let one_shot = answers_product_governed_traced(
                &db,
                &p,
                &EvalOptions::sequential().with_layout(layout),
                &NoopTracer,
            )
            .answers;
            let tables = PreparedTables::build(&db, &p, layout);
            assert_eq!(tables.layout(), layout);
            for threads in [1usize, 2, 4] {
                let opts = EvalOptions::with_threads(threads).with_layout(layout);
                // repeated executions over the same tables stay identical
                for _ in 0..2 {
                    let ans = answers_product_governed_prepared_traced(
                        &db,
                        &p,
                        &tables,
                        &opts,
                        &NoopTracer,
                    )
                    .answers;
                    assert_eq!(ans, one_shot, "layout={layout:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn prepared_governed_runs_start_clean() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        let tables = PreparedTables::build(&db, &p, Layout::Flat);
        let full = crate::product::answers_product(&db, &p);
        // run 1: an already-expired deadline (constructed per call, so it
        // trips immediately)
        let tight = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        let first = answers_product_governed_prepared_traced(&db, &p, &tables, &tight, &NoopTracer);
        assert_ne!(first.termination, Termination::Complete);
        // run 2 on the very same tables: a fresh governor, so the run
        // completes and matches the ungoverned set bit-for-bit
        let second = answers_product_governed_prepared_traced(
            &db,
            &p,
            &tables,
            &EvalOptions::sequential(),
            &NoopTracer,
        );
        assert_eq!(second.termination, Termination::Complete);
        assert_eq!(second.answers, full);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(EvalOptions::sequential().effective_threads(), 1);
        assert_eq!(EvalOptions::with_threads(3).effective_threads(), 3);
        assert!(EvalOptions::default().effective_threads() >= 1);
    }
}
