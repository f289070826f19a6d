//! Output-sensitive streaming answer enumeration.
//!
//! The materialized entry points (`Evaluator::answers_into` and the
//! engine wrappers) build the full answer set before any cap can apply;
//! this module replaces that with a resumable iterator: after the
//! preparation phase (tables, closure, semijoin or Yannakakis domains),
//! [`AnswerIter`] yields answers one at a time with *bounded delay* —
//! the work between consecutive yields is bounded by the backtracker's
//! step count over the pruned domains, not by the answer count. A
//! `max_answers` cap therefore terminates the enumeration exactly at the
//! cap: the iterator simply stops being polled (or the governor refuses
//! the claim), and no further configuration is explored.
//!
//! The iterator is a *flattened* version of the recursive
//! `Evaluator::search`/`enumerate` backtracker. The recursion's shape
//! depends only on query structure, never on data values: atom `i`
//! assigns its not-yet-assigned endpoint variables (sorted,
//! deduplicated) and then runs one feasibility check. That makes the
//! whole search expressible as a fixed *step program* —
//! `Assign(var), …, Check(atom), Assign(var), …` — walked by a cursor
//! with per-step value positions. Feasibility checks, memoization,
//! budget pacing, and statistics are delegated to the shared
//! `Evaluator`, so the streamed answer set is bit-identical to the
//! materialized one (the differential suites assert set equality, and
//! a proptest asserts the bounded-delay property on the work counter).
//!
//! Under a Yannakakis preparation on a single-track acyclic query the
//! domains are globally consistent, the backtracker never fails a check
//! on tree-consistent prefixes, and the delay bound tightens to
//! `O(Σ_v |D(v)|)` steps per answer (see DESIGN.md §13).

use crate::governor::{Governor, ResourceBudget, Termination};
use crate::prepare::PreparedQuery;
use crate::product::{Evaluator, Layout, SharedTables, UNASSIGNED};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_analyze::JoinTree;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::NodeVar;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::AtomicBool;

/// One instruction of the flattened backtracking program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Bind the node variable to the next value of its candidate list.
    Assign { var: u32 },
    /// Run the (memoized) product-feasibility check of merged atom
    /// `atom`; on failure backtrack to the nearest `Assign` above.
    Check { atom: usize },
}

/// Candidate values of one `Assign` step: the semijoin-pruned domain
/// slice when the variable has one, the full vertex range otherwise.
#[derive(Debug, Clone)]
enum Cands<'a> {
    Dom(&'a [NodeId]),
    Range(Range<NodeId>),
}

impl Cands<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Cands::Dom(d) => d.len(),
            Cands::Range(r) => r.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> NodeId {
        match self {
            Cands::Dom(d) => d[i],
            Cands::Range(r) => r.start + i as NodeId,
        }
    }
}

/// The free-tuple odometer of one satisfying assignment: cycles the
/// unassigned free positions over the full vertex range, keeping the
/// assigned positions fixed (the streaming twin of
/// `product::for_each_free_tuple`).
struct LeafOdometer {
    tuple: Vec<NodeId>,
    /// Positions of `tuple` that cycle, least significant first.
    open: Vec<usize>,
    started: bool,
}

impl LeafOdometer {
    fn next(&mut self, nv: usize) -> Option<&[NodeId]> {
        if !self.started {
            self.started = true;
            if nv == 0 && !self.open.is_empty() {
                return None;
            }
            return Some(&self.tuple);
        }
        for &i in &self.open {
            self.tuple[i] += 1;
            if (self.tuple[i] as usize) < nv {
                return Some(&self.tuple);
            }
            self.tuple[i] = 0;
        }
        None
    }
}

/// A streaming answer iterator over one (database, query) pair.
///
/// Yields each distinct free-variable tuple exactly once, in the same
/// cooperative-budget discipline as the materialized path: one claim per
/// new tuple (`Governor::try_claim_answer`), memory charges for the
/// retained dedup set, and amortized work check-ins. When the governor
/// trips, the iterator ends; the caller reads the [`Termination`] off
/// the governor (or [`Enumerator::termination`]).
pub struct AnswerIter<'a, T: Tracer = NoopTracer> {
    ev: Evaluator<'a, T>,
    governor: Option<&'a Governor>,
    tracer: T,
    steps: Vec<Step>,
    cands: Vec<Cands<'a>>,
    cursors: Vec<usize>,
    assignment: Vec<i64>,
    free: Vec<NodeVar>,
    nv: usize,
    /// Program counter into `steps`; `steps.len()` = at a leaf.
    pos: usize,
    leaf: Option<LeafOdometer>,
    seen: BTreeSet<Vec<NodeId>>,
    odometer_work: u64,
    work: u64,
    done: bool,
    starts_buf: Vec<NodeId>,
    ends_buf: Vec<NodeId>,
}

impl<'a, T: Tracer> AnswerIter<'a, T> {
    /// Builds the step program and primes the iterator. `first_var_range`
    /// restricts the very first assigned variable (the parallel engine's
    /// partition hook), mirroring `Evaluator::set_first_var_range`.
    pub(crate) fn with_parts(
        db: &'a GraphDb,
        query: &'a PreparedQuery,
        tables: &'a SharedTables,
        governor: Option<&'a Governor>,
        first_var_range: Option<Range<NodeId>>,
        tracer: T,
    ) -> Self {
        let mut ev = Evaluator::with_tables_traced(db, query, tables, tracer.clone());
        if let Some(g) = governor {
            ev.set_governor(g);
        }
        let nv = db.num_nodes();
        let mut steps = Vec::new();
        let mut cands: Vec<Cands<'a>> = Vec::new();
        let mut assigned = vec![false; query.num_node_vars];
        let mut first_assign = true;
        for (ai, atom) in query.atoms.iter().enumerate() {
            // the recursion's variable order is structural: endpoints of
            // the atom not yet bound, sorted and deduplicated
            let mut vars: Vec<u32> = atom
                .endpoints
                .iter()
                .flat_map(|&(NodeVar(s), NodeVar(d))| [s, d])
                .filter(|&v| !assigned[v as usize])
                .collect(); // lint:allow(materialize) — program construction, not answers
            vars.sort_unstable();
            vars.dedup();
            for &v in &vars {
                assigned[v as usize] = true;
                // lint:allow(materialize) — program construction, not answers
                steps.push(Step::Assign { var: v });
                let range = if first_assign {
                    first_assign = false;
                    first_var_range.clone().unwrap_or(0..nv as NodeId)
                } else {
                    0..nv as NodeId
                };
                let c = match tables.domain(v) {
                    Some(dom) => {
                        let lo = dom.partition_point(|&x| x < range.start);
                        let hi = dom.partition_point(|&x| x < range.end);
                        Cands::Dom(&dom[lo..hi])
                    }
                    None => Cands::Range(range),
                };
                // lint:allow(materialize) — program construction, not answers
                cands.push(c);
            }
            // lint:allow(materialize) — program construction, not answers
            steps.push(Step::Check { atom: ai });
            // lint:allow(materialize) — keeps cands parallel to steps
            cands.push(Cands::Range(0..0));
        }
        let done = (query.num_node_vars > 0 && nv == 0) || tables.unsatisfiable();
        let cursors = vec![0usize; steps.len()];
        let assignment = vec![UNASSIGNED; query.num_node_vars];
        AnswerIter {
            ev,
            governor,
            tracer,
            steps,
            cands,
            cursors,
            assignment,
            free: query.free.clone(),
            nv,
            pos: 0,
            leaf: None,
            seen: BTreeSet::new(),
            odometer_work: 0,
            work: 0,
            done,
            starts_buf: Vec::new(),
            ends_buf: Vec::new(),
        }
    }

    /// Total backtracker steps plus odometer ticks executed so far — the
    /// counter-based delay measure the bounded-delay proptest asserts on.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Statistics accumulated by the underlying evaluator (feasibility
    /// checks, memo hits, satisfying assignments).
    pub(crate) fn stats(&self) -> &crate::product::ProductStats {
        &self.ev.stats
    }

    /// Installs a cross-worker cancellation flag: the iterator ends at its
    /// next step once the flag is raised.
    pub(crate) fn set_stop(&mut self, stop: &'a AtomicBool) {
        self.ev.set_stop(stop);
    }

    /// Drains this iterator into `out` (the engine's worker loop): the
    /// streamed tuples are already deduplicated against `seen`, but a
    /// parallel worker merges into a shared set anyway.
    pub(crate) fn drain_into(&mut self, out: &mut BTreeSet<Vec<NodeId>>) {
        for t in &mut *self {
            out.insert(t);
        }
    }

    /// Flushes outstanding budget work; called once on exhaustion.
    fn finish_budget(&mut self) {
        if self.odometer_work > 0 {
            if let Some(g) = self.governor {
                g.checkpoint(std::mem::take(&mut self.odometer_work));
            }
        }
        self.ev.flush_budget();
    }

    /// Moves `pos` to the nearest enclosing `Assign` step; `done` when
    /// there is none.
    fn backtrack(&mut self) {
        loop {
            if self.pos == 0 {
                self.done = true;
                self.finish_budget();
                return;
            }
            self.pos -= 1;
            if matches!(self.steps[self.pos], Step::Assign { .. }) {
                return;
            }
        }
    }

    /// Enters the leaf at a full satisfying assignment: one odometer over
    /// the unassigned free positions.
    fn enter_leaf(&mut self) {
        self.ev.stats.assignments += 1;
        let mut tuple = Vec::with_capacity(self.free.len());
        let mut open = Vec::new();
        for (i, &NodeVar(f)) in self.free.iter().enumerate() {
            let a = self.assignment[f as usize];
            if a == UNASSIGNED {
                // lint:allow(materialize) — odometer setup, not answers
                tuple.push(0);
                // lint:allow(materialize) — odometer setup, not answers
                open.push(i);
            } else {
                // lint:allow(materialize) — odometer setup, not answers
                tuple.push(a as NodeId);
            }
        }
        self.leaf = Some(LeafOdometer {
            tuple,
            open,
            started: false,
        });
    }

    /// Advances to the next answer tuple. The loop is the iterative twin
    /// of `search`/`enumerate`/`enumerate_values` and replicates the
    /// governed path of `answers_into` per emitted tuple.
    fn advance(&mut self) -> Option<Vec<NodeId>> {
        let tracer = self.tracer.clone();
        let span = PhaseSpan::start(&tracer, Phase::Enumerate);
        let out = self.advance_inner(&tracer);
        span.finish(&tracer);
        if self.done && self.leaf.is_none() {
            // redundant after normal exhaustion (backtrack flushed), but
            // covers the governor-abort exits
            self.finish_budget();
        }
        out
    }

    fn advance_inner(&mut self, tracer: &T) -> Option<Vec<NodeId>> {
        loop {
            if self.done {
                return None;
            }
            // a leaf in progress: stream its free tuples
            if let Some(od) = &mut self.leaf {
                self.work += 1;
                match od.next(self.nv) {
                    None => {
                        self.leaf = None;
                        self.backtrack();
                        continue;
                    }
                    Some(tuple) => {
                        tracer.count(Phase::Odometer, 1);
                        if let Some(g) = self.governor {
                            self.odometer_work += 1;
                            if self.odometer_work >= g.check_interval() {
                                tracer.governor_check(Phase::Odometer, 1);
                                let _ = g.checkpoint(std::mem::take(&mut self.odometer_work));
                            }
                            if g.stopped() {
                                tracer.governor_check(Phase::Odometer, 1);
                                tracer.governor_abort(Phase::Odometer);
                                self.leaf = None;
                                self.done = true;
                                return None;
                            }
                        }
                        if self.seen.contains(tuple) {
                            continue;
                        }
                        if let Some(g) = self.governor {
                            if !g.try_claim_answer() {
                                tracer.governor_check(Phase::Odometer, 1);
                                tracer.governor_abort(Phase::Odometer);
                                self.leaf = None;
                                self.done = true;
                                return None;
                            }
                            // the dedup set retains every answer: charge it
                            // like the materialized path does
                            g.charge_memory(24 + 4 * tuple.len() as u64);
                        }
                        let owned = tuple.to_vec();
                        self.seen.insert(owned.clone());
                        if self.free.is_empty() {
                            // the empty tuple is a Boolean query's only
                            // answer: the answer set is already complete
                            self.leaf = None;
                            self.done = true;
                        }
                        return Some(owned);
                    }
                }
            }
            if self.ev.should_stop() {
                self.done = true;
                return None;
            }
            if self.pos == self.steps.len() {
                self.enter_leaf();
                continue;
            }
            self.work += 1;
            if T::ENABLED {
                tracer.count(Phase::Enumerate, 1);
            }
            match self.steps[self.pos] {
                Step::Assign { var } => {
                    let cur = self.cursors[self.pos];
                    if cur < self.cands[self.pos].len() {
                        self.cursors[self.pos] += 1;
                        self.assignment[var as usize] = i64::from(self.cands[self.pos].get(cur));
                        self.pos += 1;
                    } else {
                        self.cursors[self.pos] = 0;
                        self.assignment[var as usize] = UNASSIGNED;
                        self.backtrack();
                    }
                }
                Step::Check { atom } => {
                    let endpoints = &self.ev.query.atoms[atom].endpoints;
                    self.starts_buf.clear();
                    self.ends_buf.clear();
                    self.starts_buf.extend(
                        endpoints
                            .iter()
                            .map(|&(NodeVar(s), _)| self.assignment[s as usize] as NodeId),
                    );
                    self.ends_buf.extend(
                        endpoints
                            .iter()
                            .map(|&(_, NodeVar(d))| self.assignment[d as usize] as NodeId),
                    );
                    let starts = std::mem::take(&mut self.starts_buf);
                    let ends = std::mem::take(&mut self.ends_buf);
                    let ok = self.ev.feasible(atom, &starts, &ends);
                    self.starts_buf = starts;
                    self.ends_buf = ends;
                    if ok {
                        self.pos += 1;
                    } else {
                        self.backtrack();
                    }
                }
            }
        }
    }
}

impl<T: Tracer> Iterator for AnswerIter<'_, T> {
    type Item = Vec<NodeId>;

    fn next(&mut self) -> Option<Vec<NodeId>> {
        self.advance()
    }
}

/// Owns the preparation state (tables, optional governor) behind one or
/// more [`AnswerIter`]s — the public streaming entry point.
///
/// ```
/// # use ecrpq_core::enumerate::Enumerator;
/// # use ecrpq_core::prepare::PreparedQuery;
/// # use ecrpq_query::Ecrpq;
/// # use ecrpq_automata::relations;
/// # use std::sync::Arc;
/// let mut db = ecrpq_graph::GraphDb::new();
/// let u = db.add_node("u");
/// let v = db.add_node("v");
/// db.add_edge(u, 'a', v);
/// let mut q = Ecrpq::new(db.alphabet().clone());
/// let x = q.node_var("x");
/// let y = q.node_var("y");
/// let p = q.path_atom(x, "p", y);
/// q.rel_atom("a", Arc::new(relations::word_relation(&[0], 1)), &[p]);
/// q.set_free(&[x, y]);
/// let prepared = PreparedQuery::build(&q).unwrap();
/// let enumerator = Enumerator::new(&db, &prepared);
/// let answers: Vec<Vec<u32>> = enumerator.iter().collect();
/// assert_eq!(answers, vec![vec![u, v]]);
/// ```
pub struct Enumerator<'a> {
    db: &'a GraphDb,
    query: &'a PreparedQuery,
    tables: SharedTables,
    governor: Option<Governor>,
}

impl<'a> Enumerator<'a> {
    /// Prepares the streaming evaluation with the default flat layout and
    /// independent semijoin pruning, no budget.
    pub fn new(db: &'a GraphDb, query: &'a PreparedQuery) -> Self {
        let tables = SharedTables::build(db, query);
        Enumerator {
            db,
            query,
            tables,
            governor: None,
        }
    }

    /// As [`Enumerator::new`] under a resource budget: preparation checks
    /// in with the governor, and the iterator stops exactly at
    /// `max_answers` (or any other tripped budget axis).
    pub fn with_budget(db: &'a GraphDb, query: &'a PreparedQuery, budget: &ResourceBudget) -> Self {
        let governor = Governor::new(budget);
        let tables =
            SharedTables::build_with(db, query, Layout::Flat, Some(&governor), &NoopTracer, None);
        Enumerator {
            db,
            query,
            tables,
            governor: Some(governor),
        }
    }

    /// As [`Enumerator::with_budget`], upgrading the preparation to the
    /// Yannakakis semijoin program over `tree` (globally consistent
    /// domains; low-delay enumeration on acyclic queries).
    pub fn yannakakis(
        db: &'a GraphDb,
        query: &'a PreparedQuery,
        tree: &JoinTree,
        budget: &ResourceBudget,
    ) -> Self {
        let governor = (!budget.is_unlimited()).then(|| Governor::new(budget));
        let tables = SharedTables::build_with(
            db,
            query,
            Layout::Flat,
            governor.as_ref(),
            &NoopTracer,
            Some(tree),
        );
        Enumerator {
            db,
            query,
            tables,
            governor,
        }
    }

    /// A fresh streaming iterator over the full answer set.
    pub fn iter(&self) -> AnswerIter<'_, NoopTracer> {
        AnswerIter::with_parts(
            self.db,
            self.query,
            &self.tables,
            self.governor.as_ref(),
            None,
            NoopTracer,
        )
    }

    /// How the last iteration ended: `Complete` unless the budget
    /// tripped (meaningless before any iterator was drained).
    pub fn termination(&self) -> Termination {
        self.governor
            .as_ref()
            .map(Governor::termination)
            .unwrap_or(Termination::Complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::relations;
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn chain_db_query() -> (GraphDb, Ecrpq) {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        let w = db.add_node("w");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', w);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom("a", Arc::new(relations::word_relation(&[0], 1)), &[p]);
        q.set_free(&[x, y]);
        (db, q)
    }

    #[test]
    fn streams_the_materialized_answer_set() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let tables = SharedTables::build(&db, &prepared);
        let mut ev = Evaluator::with_tables(&db, &prepared, &tables);
        let materialized = ev.answers();
        let streamed: BTreeSet<Vec<NodeId>> = Enumerator::new(&db, &prepared).iter().collect();
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn max_answers_stops_enumeration_at_the_cap() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let budget = ResourceBudget::default().with_max_answers(1);
        let e = Enumerator::with_budget(&db, &prepared, &budget);
        let got: Vec<Vec<NodeId>> = e.iter().collect();
        assert_eq!(got.len(), 1);
        assert!(!matches!(e.termination(), Termination::Complete));
    }

    #[test]
    fn boolean_query_streams_one_empty_tuple() {
        let (db, mut q) = chain_db_query();
        q.set_free(&[]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let got: Vec<Vec<NodeId>> = Enumerator::new(&db, &prepared).iter().collect();
        assert_eq!(got, vec![Vec::<NodeId>::new()]);
    }

    #[test]
    fn empty_database_streams_nothing() {
        let (_, q) = chain_db_query();
        let db = GraphDb::with_alphabet(q.alphabet().clone());
        let prepared = PreparedQuery::build(&q).unwrap();
        assert_eq!(Enumerator::new(&db, &prepared).iter().count(), 0);
    }

    #[test]
    fn work_counter_is_monotone_and_bounded_per_yield() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let e = Enumerator::new(&db, &prepared);
        let mut it = e.iter();
        let mut last = it.work();
        let mut delays = Vec::new();
        while it.next().is_some() {
            let w = it.work();
            assert!(w > last);
            delays.push(w - last);
            last = w;
        }
        // 2 answers on a 3-vertex chain: each yield costs at most the
        // whole remaining step program once (pruned domains of size ≤ 2)
        for d in delays {
            assert!(d <= 16, "delay {d} too large");
        }
    }

    #[test]
    fn yannakakis_preparation_streams_identical_answers() {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        let w = db.add_node("w");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', w);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", z);
        let a_word = Arc::new(relations::word_relation(&[0], 1));
        q.rel_atom("la", a_word.clone(), &[p]);
        q.rel_atom("lb", a_word, &[r]);
        q.set_free(&[x, z]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let tree = ecrpq_analyze::acyclic_join_tree(&q).unwrap();
        let flat: BTreeSet<Vec<NodeId>> = Enumerator::new(&db, &prepared).iter().collect();
        let yan: BTreeSet<Vec<NodeId>> =
            Enumerator::yannakakis(&db, &prepared, &tree, &ResourceBudget::default())
                .iter()
                .collect();
        assert_eq!(flat, yan);
        assert_eq!(yan, BTreeSet::from([vec![u, w]]));
    }
}
