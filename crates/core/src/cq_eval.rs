//! Conjunctive-query evaluation.
//!
//! Two evaluators:
//!
//! * [`eval_cq`] / [`answers_cq`] — backtracking join (the textbook NP
//!   algorithm), the baseline;
//! * [`eval_cq_treedec`] / [`answers_cq_treedec`] — the `n^{tw+1}`
//!   tree-decomposition + Yannakakis-semijoin algorithm behind
//!   Proposition 2.3(1), i.e. the polynomial-time engine of the tractable
//!   regime (Theorems 3.1(3), 3.2(3)). Bags are populated by joining the
//!   atoms assigned to them (every atom's variables form a clique in the
//!   Gaifman graph, hence fit in some bag), then reduced by an upward and a
//!   downward semijoin pass into a `ReducedCq`.
//!
//! Both end in one enumeration kernel, a `JoinPlan`: a static join order
//! whose steps hold their rows grouped under a hash index on the variables
//! earlier steps bound. A plan is built once and then run read-only, by
//! any number of stride workers. The tree-decomposition evaluator's plan
//! joins the reduced bags; that `ReducedCq` depends only on the query and
//! the database, so a prepared plan caches it and a later run pays only
//! for enumeration (the preprocessing/enumeration split of
//! output-sensitive acyclic query evaluation).

use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::governor::{Governor, Pacer};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_query::{Cq, CqAtom, RelationalDb};
use ecrpq_structure::{treewidth_exact, treewidth_upper_bound};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates a Boolean CQ by backtracking join.
pub fn eval_cq(db: &RelationalDb, q: &Cq) -> bool {
    JoinPlan::from_db(db, q).satisfiable_part(None, None, &NoopTracer)
}

/// All answers of a CQ (tuples over its free variables) by backtracking.
pub fn answers_cq(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    let mut out = BTreeSet::new();
    JoinPlan::from_db(db, q).answers_part(None, None, &NoopTracer, &mut out);
    out
}

/// One step of a [`JoinPlan`]: an atom (or bag) whose variables bound by
/// earlier steps key a hash lookup, and whose other variables it binds
/// from the matching rows.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct JoinStep {
    /// Variables bound by earlier steps, in key order.
    key_vars: Vec<usize>,
    /// Variables this step binds, one column of `rows` each.
    new_vars: Vec<usize>,
    /// The `new_vars` values of every row, row-major; rows with equal keys
    /// are adjacent.
    rows: Vec<u32>,
    /// Number of rows (`rows` alone cannot tell when `new_vars` is empty).
    len: usize,
    /// Key → its rows. Empty when `key_vars` is: every row matches.
    index: FnvHashMap<Box<[u32]>, (u32, u32)>,
}

impl JoinStep {
    /// The step joining the tuples of an atom over `vars`, given which
    /// variables earlier steps `bound`; marks this step's variables bound.
    /// A tuple that disagrees with itself on a repeated variable (`E(x, x)`
    /// against `(1, 2)`) can never match, so it is dropped here.
    fn build(
        vars: &[usize],
        tuples: impl IntoIterator<Item = impl AsRef<[u32]>>,
        bound: &mut [bool],
    ) -> JoinStep {
        // position of each variable's first occurrence in the atom
        let first: Vec<usize> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| vars[..i].iter().position(|w| w == v).unwrap_or(i))
            .collect();
        let (mut key_pos, mut new_pos) = (Vec::new(), Vec::new());
        for (i, &v) in vars.iter().enumerate() {
            if first[i] == i {
                if bound[v] {
                    key_pos.push(i);
                } else {
                    new_pos.push(i);
                }
            }
        }
        let key_vars: Vec<usize> = key_pos.iter().map(|&p| vars[p]).collect();
        let new_vars: Vec<usize> = new_pos.iter().map(|&p| vars[p]).collect();
        for &v in &new_vars {
            bound[v] = true;
        }
        // each surviving tuple as one row of key columns then new columns
        let (kw, width) = (key_pos.len(), key_pos.len() + new_pos.len());
        let mut flat: Vec<u32> = Vec::new();
        let mut len = 0usize;
        for t in tuples {
            let t = t.as_ref();
            debug_assert_eq!(t.len(), vars.len());
            if first.iter().enumerate().all(|(i, &f)| t[i] == t[f]) {
                flat.extend(key_pos.iter().chain(&new_pos).map(|&p| t[p]));
                len += 1;
            }
        }
        let mut index = FnvHashMap::default();
        if kw == 0 {
            return JoinStep {
                key_vars,
                new_vars,
                rows: flat,
                len,
                index,
            };
        }
        let row = |i: usize| &flat[i * width..(i + 1) * width];
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        let mut rows = Vec::with_capacity(len * new_vars.len());
        let mut start = 0u32;
        for group in order.chunk_by(|&a, &b| row(a)[..kw] == row(b)[..kw]) {
            let end = start + group.len() as u32;
            index.insert(row(group[0])[..kw].into(), (start, end));
            for &i in group {
                rows.extend_from_slice(&row(i)[kw..]);
            }
            start = end;
        }
        JoinStep {
            key_vars,
            new_vars,
            rows,
            len,
            index,
        }
    }

    /// The rows agreeing with `values` on the key variables (`key` is
    /// scratch space).
    fn matching(&self, values: &[u32], key: &mut Vec<u32>) -> Range<usize> {
        if self.key_vars.is_empty() {
            return 0..self.len;
        }
        key.clear();
        key.extend(self.key_vars.iter().map(|&v| values[v]));
        self.index
            .get(key.as_slice())
            .map_or(0..0, |&(s, e)| s as usize..e as usize)
    }
}

/// A compiled backtracking join: a static step order, one [`JoinStep`]
/// (rows plus hash index) per atom or bag, and the layout of the emitted
/// tuples. Built once, then run read-only: a run allocates only its
/// assignment and scratch buffers, and stride workers share one plan.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct JoinPlan {
    steps: Vec<JoinStep>,
    num_vars: usize,
    /// The variables an emitted tuple ranges over.
    free: Vec<usize>,
    /// Positions in `free` of the variables no step binds: the free-tuple
    /// odometer ranges them over the whole domain.
    open: Vec<usize>,
    domain: u32,
}

impl JoinPlan {
    /// The join of `q`'s atoms over `db`, emitting tuples over its free
    /// variables.
    pub(crate) fn from_db(db: &RelationalDb, q: &Cq) -> JoinPlan {
        let atoms: Vec<&CqAtom> = q.atoms.iter().collect();
        Self::over_atoms(db, &atoms, q.num_vars, &q.free)
    }

    /// The join of `atoms` over `db`, emitting tuples over `free`. An
    /// unknown relation is empty.
    fn over_atoms(db: &RelationalDb, atoms: &[&CqAtom], num_vars: usize, free: &[usize]) -> Self {
        let vars: Vec<&[usize]> = atoms.iter().map(|a| a.vars.as_slice()).collect();
        let relation = |i: usize| db.relation(&atoms[i].relation);
        let sizes: Vec<usize> = (0..atoms.len())
            .map(|i| relation(i).map_or(0, |r| r.tuples.len()))
            .collect();
        let domain = db.domain_size() as u32;
        Self::greedy(&vars, &sizes, num_vars, free, domain, |i| {
            relation(i).into_iter().flat_map(|r| r.tuples.iter())
        })
    }

    /// The join of the reduced `bags`, emitting tuples over `free`.
    fn over_bags(bags: &[BagRelation], num_vars: usize, free: &[usize], domain: u32) -> Self {
        let vars: Vec<&[usize]> = bags.iter().map(|b| b.vars.as_slice()).collect();
        let sizes: Vec<usize> = bags.iter().map(|b| b.tuples.len()).collect();
        Self::greedy(&vars, &sizes, num_vars, free, domain, |i| &bags[i].tuples)
    }

    /// Builds one step per relation (variables `vars[i]`, `sizes[i]`
    /// tuples, yielded by `tuples(i)`) in a static greedy order: repeatedly
    /// the relation sharing most variables with those already ordered
    /// (ties: the smaller first).
    fn greedy<I>(
        vars: &[&[usize]],
        sizes: &[usize],
        num_vars: usize,
        free: &[usize],
        domain: u32,
        mut tuples: impl FnMut(usize) -> I,
    ) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[u32]>,
    {
        let mut remaining: Vec<usize> = (0..vars.len()).collect();
        let mut bound = vec![false; num_vars];
        let mut steps = Vec::with_capacity(vars.len());
        while !remaining.is_empty() {
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, &i)| {
                    let shared = vars[i].iter().filter(|&&v| bound[v]).count();
                    (shared, usize::MAX - sizes[i])
                })
                // lint:allow(unwrap): max_by_key over ≥1 remaining relation
                .unwrap();
            let i = remaining.swap_remove(pos);
            steps.push(JoinStep::build(vars[i], tuples(i), &mut bound));
        }
        let open = (0..free.len()).filter(|&i| !bound[free[i]]).collect();
        JoinPlan {
            steps,
            num_vars,
            free: free.to_vec(),
            open,
            domain,
        }
    }

    /// How many stride workers a run of this plan can use: the stride
    /// partition is over the first step's rows.
    pub(crate) fn workers(&self, threads: usize) -> usize {
        match self.steps.first() {
            Some(step) if threads > 1 => threads.min(step.len.max(1)),
            _ => 1,
        }
    }

    /// Whether the join has a satisfying assignment, searching only the
    /// stride class `part` (see [`JoinPlan::search`]) under an optional
    /// budget `governor`.
    pub(crate) fn satisfiable_part<T: Tracer>(
        &self,
        part: Option<(usize, usize)>,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> bool {
        let span = PhaseSpan::start(tracer, Phase::CqJoin);
        let mut pacer = Pacer::new(governor);
        let mut found = false;
        self.search(part, &mut pacer, tracer, Phase::CqJoin, &mut |_, _| {
            found = true;
            true
        });
        pacer.flush();
        span.finish(tracer);
        found
    }

    /// The answers found in the stride class `part`, accumulated into
    /// `out` (so workers can merge cheaply). Each emitted tuple is one
    /// work unit of [`Phase::Odometer`] (a satisfying assignment can emit
    /// `|D|^f` tuples without touching a row), and each distinct one claims
    /// an answer from the budget before insertion. A Boolean query stops at
    /// its one possible answer, the empty tuple.
    ///
    /// The [`Phase::CqJoin`] span covers the whole run, including the
    /// nested odometer (whose *items* are still booked under
    /// [`Phase::Odometer`]).
    pub(crate) fn answers_part<T: Tracer>(
        &self,
        part: Option<(usize, usize)>,
        governor: Option<&Governor>,
        tracer: &T,
        out: &mut BTreeSet<Vec<u32>>,
    ) {
        let span = PhaseSpan::start(tracer, Phase::CqJoin);
        let mut pacer = Pacer::new(governor);
        let mut tuple = Vec::with_capacity(self.free.len());
        self.search(
            part,
            &mut pacer,
            tracer,
            Phase::CqJoin,
            &mut |values, pacer| {
                let stopped = self.for_each_tuple(values, &mut tuple, |tuple| {
                    if pacer.tick_traced(tracer, Phase::Odometer) || pacer.stopped() {
                        return true;
                    }
                    if T::ENABLED {
                        tracer.count(Phase::Odometer, 1);
                    }
                    if !out.contains(tuple) {
                        if let Some(g) = governor {
                            if !g.try_claim_answer() {
                                tracer.governor_check(Phase::Odometer, 1);
                                tracer.governor_abort(Phase::Odometer);
                                return true;
                            }
                            g.charge_memory(24 + 4 * tuple.len() as u64);
                        }
                        out.insert(tuple.to_vec());
                    }
                    false
                });
                stopped || (self.free.is_empty() && !out.is_empty())
            },
        );
        pacer.flush();
        span.finish(tracer);
    }

    /// Backtracking over the steps in order. `on_match` receives every
    /// satisfying assignment (indexed by variable; one no step binds reads
    /// 0) with the run's pacer, and returns `true` to stop the search; so
    /// does a tripped budget, one work unit of `phase` per row tried.
    /// Returns whether the search stopped early.
    ///
    /// With `part = Some((parts, p))`, only the first step's rows `p,
    /// p + parts, …` are explored. The first step has no bound variables,
    /// so its candidates are all its rows: the stride classes partition
    /// the search, each satisfying assignment found in exactly one class.
    fn search<T: Tracer>(
        &self,
        part: Option<(usize, usize)>,
        pacer: &mut Pacer<'_>,
        tracer: &T,
        phase: Phase,
        on_match: &mut impl FnMut(&[u32], &mut Pacer<'_>) -> bool,
    ) -> bool {
        let mut values = vec![0; self.num_vars];
        // A zero-step join succeeds once regardless of stride: run it only
        // in part 0 so parallel workers don't multiply the success.
        if self.steps.is_empty() {
            return part.is_none_or(|(_, p)| p == 0) && on_match(&values, pacer);
        }
        let stride = part.unwrap_or((1, 0));
        let mut key = Vec::new();
        self.descend(
            0,
            stride,
            &mut values,
            &mut key,
            pacer,
            tracer,
            phase,
            on_match,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn descend<T: Tracer>(
        &self,
        idx: usize,
        (parts, p): (usize, usize),
        values: &mut [u32],
        key: &mut Vec<u32>,
        pacer: &mut Pacer<'_>,
        tracer: &T,
        phase: Phase,
        on_match: &mut impl FnMut(&[u32], &mut Pacer<'_>) -> bool,
    ) -> bool {
        let Some(step) = self.steps.get(idx) else {
            return on_match(values, pacer);
        };
        let rows = step.matching(values, key);
        let width = step.new_vars.len();
        for r in (rows.start + p..rows.end).step_by(parts) {
            // cooperative budget check: one work unit per row tried, plus a
            // cheap stop-flag load so sibling workers unwind promptly once
            // one of them trips the budget
            if pacer.tick_traced(tracer, phase) || pacer.stopped() {
                return true;
            }
            // bag population books its items per emitted bag tuple instead
            if T::ENABLED && phase == Phase::CqJoin {
                tracer.count(phase, 1);
            }
            for (&v, &x) in step.new_vars.iter().zip(&step.rows[r * width..]) {
                values[v] = x;
            }
            if self.descend(idx + 1, (1, 0), values, key, pacer, tracer, phase, on_match) {
                return true;
            }
        }
        false
    }

    /// Expands a satisfying assignment into tuples over `free`, ranging
    /// the `open` positions over the whole domain with one
    /// odometer-advanced scratch `tuple`. `emit` returns `true` to stop;
    /// so does this.
    fn for_each_tuple(
        &self,
        values: &[u32],
        tuple: &mut Vec<u32>,
        mut emit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        tuple.clear();
        tuple.extend(self.free.iter().map(|&v| values[v]));
        for &p in &self.open {
            tuple[p] = 0;
        }
        if !self.open.is_empty() && self.domain == 0 {
            return false;
        }
        loop {
            if emit(tuple) {
                return true;
            }
            let mut i = 0;
            loop {
                let Some(&p) = self.open.get(i) else {
                    return false;
                };
                tuple[p] += 1;
                if tuple[p] < self.domain {
                    break;
                }
                tuple[p] = 0;
                i += 1;
            }
        }
    }
}

/// Work counters for the tree-decomposition evaluator.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct TreedecStats {
    /// Width of the decomposition used.
    pub width: usize,
    /// Total bag tuples before reduction.
    pub bag_tuples: usize,
    /// Total bag tuples after both semijoin passes.
    pub reduced_tuples: usize,
}

/// Evaluates a Boolean CQ with the tree-decomposition + Yannakakis
/// algorithm.
pub fn eval_cq_treedec(db: &RelationalDb, q: &Cq) -> bool {
    eval_cq_treedec_threads(db, q, 1, None, &NoopTracer)
}

/// As [`eval_cq_treedec`], populating bags with `threads` workers under an
/// optional budget governor. "All bags non-empty ⇒ satisfiable" only
/// holds for a *complete* reduction, so a budget-tripped run never reports
/// `true` — a governed `false` under a non-`Complete` termination means
/// "not proven", which is the sound direction.
pub(crate) fn eval_cq_treedec_threads<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    threads: usize,
    governor: Option<&Governor>,
    tracer: &T,
) -> bool {
    ReducedCq::build(db, q, threads, governor, tracer)
        .join
        .is_some()
}

/// As [`eval_cq_treedec`] with counters.
pub fn eval_cq_treedec_with_stats(db: &RelationalDb, q: &Cq) -> (bool, TreedecStats) {
    let reduced = ReducedCq::build(db, q, 1, None, &NoopTracer);
    (reduced.join.is_some(), reduced.stats)
}

/// All answers via tree decomposition: build the semijoin-reduced join
/// instance, then enumerate its (now dangling-free) acyclic join.
pub fn answers_cq_treedec(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    let mut out = BTreeSet::new();
    if let Some(join) = ReducedCq::build(db, q, 1, None, &NoopTracer).join() {
        join.answers_part(None, None, &NoopTracer, &mut out);
    }
    out
}

/// A bag's relation: tuples over the bag's variables.
struct BagRelation {
    vars: Vec<usize>,
    tuples: Vec<Vec<u32>>,
}

/// The semijoin-reduced join instance of a CQ over a database: the
/// preprocessing half of the tree-decomposition evaluator. It holds the
/// bag relations, reduced by both semijoin passes over the rooted
/// decomposition tree, as a [`JoinPlan`] with its static join order and
/// per-step hash indexes. It depends only on the query and the database
/// (the build is deterministic at every thread count), so it can be cached
/// and enumerated any number of times.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct ReducedCq {
    /// `None` when the query has no answers (some bag emptied) or the
    /// build's budget tripped (the partial reduction is not enumerated).
    join: Option<JoinPlan>,
    stats: TreedecStats,
}

impl ReducedCq {
    /// Decomposes `q`, populates the bags with `threads` workers, and
    /// semijoins them both ways, charging `governor` one work unit per
    /// row tried or bag tuple emitted while populating, and per tuple each
    /// semijoin scans. Reported to `tracer` under [`Phase::TreedecBags`].
    pub(crate) fn build<T: Tracer>(
        db: &RelationalDb,
        q: &Cq,
        threads: usize,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> ReducedCq {
        let g = q.gaifman();
        let (width, dec) = if g.num_vertices() <= 64 {
            treewidth_exact(&g)
        } else {
            treewidth_upper_bound(&g)
        };
        let mut stats = TreedecStats {
            width,
            ..Default::default()
        };
        let domain = db.domain_size() as u32;
        if dec.bags.is_empty() {
            // zero-variable query: vacuously true
            let join = JoinPlan::over_bags(&[], q.num_vars, &q.free, domain);
            return ReducedCq {
                join: Some(join),
                stats,
            };
        }
        // Assign each atom to a bag containing all its variables (an atom
        // that fits nowhere means an invalid decomposition — defensive).
        let mut atoms_of_bag: Vec<Vec<usize>> = vec![Vec::new(); dec.bags.len()];
        for (ai, atom) in q.atoms.iter().enumerate() {
            let home = dec
                .bags
                .iter()
                .position(|bag| atom.vars.iter().all(|v| bag.contains(v)));
            match home {
                Some(b) => atoms_of_bag[b].push(ai),
                None => return ReducedCq { join: None, stats },
            }
        }
        // Populate bags: join the bag's atoms, then cartesian-fill uncovered
        // bag variables over the domain. Bags are independent until the
        // semijoin passes, so this fans out across workers.
        let nb = dec.bags.len();
        let workers = threads.clamp(1, nb.max(1));
        let tuples_per_bag: Vec<Vec<Vec<u32>>> = if workers <= 1 {
            dec.bags
                .iter()
                .enumerate()
                .map(|(bi, bag_vars)| {
                    populate_bag(db, q, bag_vars, &atoms_of_bag[bi], governor, tracer)
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Vec<Vec<u32>>> = vec![Vec::new(); nb];
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (next, dec, atoms_of_bag) = (&next, &dec, &atoms_of_bag);
                        // fork before spawn so worker counter blocks register
                        // in deterministic (spawn) order
                        let worker_tracer = tracer.fork_worker();
                        s.spawn(move || {
                            let mut mine: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
                            loop {
                                let bi = next.fetch_add(1, Ordering::Relaxed);
                                if bi >= nb || governor.is_some_and(Governor::stopped) {
                                    return mine;
                                }
                                mine.push((
                                    bi,
                                    populate_bag(
                                        db,
                                        q,
                                        &dec.bags[bi],
                                        &atoms_of_bag[bi],
                                        governor,
                                        &worker_tracer,
                                    ),
                                ));
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    // lint:allow(unwrap): propagate worker panics instead of losing them
                    for (bi, tuples) in h.join().expect("bag-population worker panicked") {
                        slots[bi] = tuples;
                    }
                }
            });
            slots
        };
        let span = PhaseSpan::start(tracer, Phase::TreedecBags);
        let mut bags: Vec<BagRelation> = Vec::with_capacity(nb);
        for (bag_vars, tuples) in dec.bags.iter().zip(tuples_per_bag) {
            stats.bag_tuples += tuples.len();
            bags.push(BagRelation {
                vars: bag_vars.clone(),
                tuples,
            });
        }
        // Root the tree at 0; compute parents and a parents-first order.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for &(a, b) in &dec.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut parent: Vec<Option<usize>> = vec![None; nb];
        let mut order: Vec<usize> = Vec::with_capacity(nb);
        let mut visited = vec![false; nb];
        let mut stack = vec![0usize];
        visited[0] = true;
        while let Some(b) = stack.pop() {
            // lint:allow(unguarded-loop): O(#bags) tree-order computation
            order.push(b);
            for &c in &adj[b] {
                if !visited[c] {
                    visited[c] = true;
                    parent[c] = Some(b);
                    stack.push(c);
                }
            }
        }
        // Bottom-up semijoin (parent ⋉ child), then top-down (child ⋉
        // parent). A tripped budget stops the passes; semijoins only remove
        // tuples, so the partial reduction is sound, but it is not built
        // into a join.
        let upward = order
            .iter()
            .rev()
            .filter_map(|&b| parent[b].map(|p| (p, b)));
        let downward = order.iter().filter_map(|&b| parent[b].map(|p| (b, p)));
        let mut pacer = Pacer::new(governor);
        for (target, other) in upward.chain(downward) {
            let scanned = (bags[target].tuples.len() + bags[other].tuples.len()) as u64;
            if pacer.tick_batch_traced(scanned, tracer, Phase::TreedecBags) || pacer.stopped() {
                break;
            }
            semijoin(&mut bags, target, other);
        }
        pacer.flush();
        stats.reduced_tuples = bags.iter().map(|r| r.tuples.len()).sum();
        let join = (!pacer.stopped() && bags.iter().all(|r| !r.tuples.is_empty()))
            .then(|| JoinPlan::over_bags(&bags, q.num_vars, &q.free, domain));
        span.finish(tracer);
        ReducedCq { join, stats }
    }

    /// The reduced join, or `None` when there is nothing to enumerate.
    pub(crate) fn join(&self) -> Option<&JoinPlan> {
        self.join.as_ref()
    }
}

/// Keeps in `bags[target]` only tuples that agree with some tuple of
/// `bags[other]` on the shared variables.
fn semijoin(bags: &mut [BagRelation], target: usize, other: usize) {
    let shared: Vec<(usize, usize)> = bags[target]
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| bags[other].vars.iter().position(|w| w == v).map(|j| (i, j)))
        .collect();
    if shared.is_empty() {
        // no shared variables: keep target iff other is non-empty
        if bags[other].tuples.is_empty() {
            bags[target].tuples.clear();
        }
        return;
    }
    let keys: FnvHashSet<Vec<u32>> = bags[other]
        .tuples
        .iter()
        .map(|t| shared.iter().map(|&(_, j)| t[j]).collect())
        .collect();
    let shared_i: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
    bags[target].tuples.retain(|t| {
        let key: Vec<u32> = shared_i.iter().map(|&i| t[i]).collect();
        keys.contains(&key)
    });
}

/// Enumerates the satisfying assignments of a bag — the join of its atoms,
/// with the bag variables no atom covers ranged over the domain — sorted
/// and deduplicated.
fn populate_bag<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    bag_vars: &[usize],
    atom_ids: &[usize],
    governor: Option<&Governor>,
    tracer: &T,
) -> Vec<Vec<u32>> {
    let span = PhaseSpan::start(tracer, Phase::TreedecBags);
    let atoms: Vec<&CqAtom> = atom_ids.iter().map(|&a| &q.atoms[a]).collect();
    let join = JoinPlan::over_atoms(db, &atoms, q.num_vars, bag_vars);
    let mut out: Vec<Vec<u32>> = Vec::new();
    let mut tuple = Vec::with_capacity(bag_vars.len());
    let mut pacer = Pacer::new(governor);
    join.search(
        None,
        &mut pacer,
        tracer,
        Phase::TreedecBags,
        &mut |values, pacer| {
            join.for_each_tuple(values, &mut tuple, |t| {
                // cooperative budget check per emitted tuple: a bag with many
                // uncovered variables can emit |D|^open tuples here
                if pacer.tick_traced(tracer, Phase::TreedecBags) || pacer.stopped() {
                    return true;
                }
                if T::ENABLED {
                    tracer.count(Phase::TreedecBags, 1);
                }
                out.push(t.to_vec());
                false
            })
        },
    );
    pacer.flush();
    if let Some(g) = governor {
        // the populated bag is retained memory: charge a coarse estimate
        let width = bag_vars.len() as u64;
        g.charge_memory(out.len() as u64 * (24 + 4 * width));
    }
    out.sort();
    out.dedup();
    span.finish(tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_db() -> RelationalDb {
        // E = directed edges of a 4-cycle with one chord
        let mut db = RelationalDb::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            db.insert("E", &[a, b]);
        }
        db
    }

    fn triangle_query() -> Cq {
        // ∃xyz E(x,y) ∧ E(y,z) ∧ E(x,z)
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.atom("E", &[0, 2]);
        q
    }

    #[test]
    fn boolean_backtracking() {
        let db = triangle_db();
        assert!(eval_cq(&db, &triangle_query())); // 0→1→2, 0→2
                                                  // no directed triangle through 3 only
        let mut db2 = RelationalDb::new(3);
        db2.insert("E", &[0, 1]);
        db2.insert("E", &[1, 2]);
        assert!(!eval_cq(&db2, &triangle_query()));
    }

    #[test]
    fn answers_backtracking() {
        let db = triangle_db();
        let mut q = triangle_query();
        q.free = vec![0, 2];
        let answers = answers_cq(&db, &q);
        assert!(answers.contains(&vec![0, 2]));
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn treedec_agrees_with_backtracking() {
        let db = triangle_db();
        let q = triangle_query();
        assert_eq!(eval_cq(&db, &q), eval_cq_treedec(&db, &q));
        let mut qf = q.clone();
        qf.free = vec![0, 2];
        assert_eq!(answers_cq(&db, &qf), answers_cq_treedec(&db, &qf));
    }

    #[test]
    fn path_query_on_cycle() {
        // path of length 3 in a 5-cycle: treewidth-1 query
        let mut db = RelationalDb::new(5);
        for i in 0..5u32 {
            db.insert("E", &[i, (i + 1) % 5]);
        }
        let mut q = Cq::new(4);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.atom("E", &[2, 3]);
        q.free = vec![0, 3];
        let a1 = answers_cq(&db, &q);
        let a2 = answers_cq_treedec(&db, &q);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 5); // (i, i+3 mod 5)
        assert!(a1.contains(&vec![0, 3]));
    }

    #[test]
    fn unsatisfiable_via_treedec() {
        let mut db = RelationalDb::new(2);
        db.insert("E", &[0, 1]);
        let mut q = Cq::new(2);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 0]); // needs a back edge
        assert!(!eval_cq_treedec(&db, &q));
        assert!(!eval_cq(&db, &q));
    }

    #[test]
    fn repeated_variables_in_atom() {
        let mut db = RelationalDb::new(3);
        db.insert("E", &[0, 0]);
        db.insert("E", &[1, 2]);
        let mut q = Cq::new(1);
        q.atom("E", &[0, 0]); // self-loop pattern
        q.free = vec![0];
        let a = answers_cq(&db, &q);
        assert_eq!(a, BTreeSet::from([vec![0u32]]));
        assert_eq!(answers_cq_treedec(&db, &q), a);
    }

    #[test]
    fn free_var_not_in_atoms() {
        let mut db = RelationalDb::new(3);
        db.insert("U", &[1]);
        let mut q = Cq::new(2);
        q.atom("U", &[0]);
        q.free = vec![0, 1]; // var 1 unconstrained
        let a = answers_cq(&db, &q);
        assert_eq!(a.len(), 3);
        assert!(a.contains(&vec![1, 0]));
        assert!(a.contains(&vec![1, 2]));
    }

    #[test]
    fn zero_atom_query_is_true() {
        let db = RelationalDb::new(2);
        let q = Cq::new(0);
        assert!(eval_cq(&db, &q));
        assert!(eval_cq_treedec(&db, &q));
    }

    #[test]
    fn unknown_relation_is_empty() {
        let db = RelationalDb::new(2);
        let mut q = Cq::new(1);
        q.atom("Nope", &[0]);
        assert!(!eval_cq(&db, &q));
        assert!(!eval_cq_treedec(&db, &q));
    }

    #[test]
    fn stats_reported() {
        let db = triangle_db();
        let (res, stats) = eval_cq_treedec_with_stats(&db, &triangle_query());
        assert!(res);
        assert!(stats.bag_tuples > 0);
        assert!(stats.reduced_tuples > 0);
        // Gaifman graph of the triangle pattern is K3 → width 2
        assert_eq!(stats.width, 2);
    }

    /// A 4-cycle with a tail over a pseudo-random graph on 7 nodes, with a
    /// free variable no atom binds: several bags, many rows per step, and
    /// the free-tuple odometer in play.
    fn cycle_instance() -> (RelationalDb, Cq) {
        let mut db = RelationalDb::new(7);
        for a in 0..7u32 {
            for b in 0..7u32 {
                if (a * 3 + b * 5) % 7 < 3 {
                    db.insert("E", &[a, b]);
                }
            }
        }
        let mut q = Cq::new(6);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)] {
            q.atom("E", &[x, y]);
        }
        q.free = vec![0, 2, 4, 5];
        (db, q)
    }

    /// Every satisfying assignment the stride class `part` finds.
    fn assignments(join: &JoinPlan, part: Option<(usize, usize)>) -> Vec<Vec<u32>> {
        let mut found = Vec::new();
        join.search(
            part,
            &mut Pacer::new(None),
            &NoopTracer,
            Phase::CqJoin,
            &mut |values, _| {
                found.push(values.to_vec());
                false
            },
        );
        found.sort();
        found
    }

    #[test]
    fn reduced_instance_is_thread_independent_and_strides_partition_it() {
        let (db, q) = cycle_instance();
        let reduced = ReducedCq::build(&db, &q, 1, None, &NoopTracer);
        for threads in [2, 4] {
            let parallel = ReducedCq::build(&db, &q, threads, None, &NoopTracer);
            assert_eq!(parallel, reduced, "threads={threads}");
        }
        let join = reduced.join().expect("the cycle instance is satisfiable");
        let full = answers_cq(&db, &q);
        assert!(full.len() > 7, "{} answers", full.len());
        let mut answers = BTreeSet::new();
        join.answers_part(None, None, &NoopTracer, &mut answers);
        assert_eq!(answers, full);
        let all = assignments(join, None);
        for parts in [2, 3, 4] {
            let mut union = BTreeSet::new();
            let mut found = Vec::new();
            for p in 0..parts {
                found.extend(assignments(join, Some((parts, p))));
                join.answers_part(Some((parts, p)), None, &NoopTracer, &mut union);
            }
            assert_eq!(union, full, "parts={parts}");
            found.sort();
            assert_eq!(found, all, "parts={parts}: one stride class per assignment");
        }
    }

    #[test]
    fn a_tripped_reduction_builds_no_join() {
        use crate::governor::ResourceBudget;
        let (db, q) = cycle_instance();
        let governor = Governor::new(&ResourceBudget::unlimited().with_max_configurations(1));
        let reduced = ReducedCq::build(&db, &q, 1, Some(&governor), &NoopTracer);
        assert!(governor.stopped());
        assert!(reduced.join().is_none());
        assert!(!eval_cq_treedec_threads(
            &db,
            &q,
            2,
            Some(&Governor::new(
                &ResourceBudget::unlimited().with_max_configurations(1)
            )),
            &NoopTracer
        ));
    }

    #[test]
    fn repeated_variable_rows_are_filtered_at_build() {
        let mut db = RelationalDb::new(3);
        for t in [[0, 0, 1], [0, 1, 0], [2, 1, 2]] {
            db.insert("R", &t);
        }
        let mut q = Cq::new(2);
        q.atom("R", &[0, 1, 0]);
        q.free = vec![0, 1];
        let join = JoinPlan::from_db(&db, &q);
        assert_eq!(join.steps[0].len, 2);
        assert_eq!(
            answers_cq(&db, &q),
            BTreeSet::from([vec![0u32, 1], vec![2, 1]])
        );
    }
}
