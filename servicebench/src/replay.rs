//! The traced pass: every request is served by `QueryService::execute`,
//! then replayed stage by stage through the public calls the service
//! makes internally, each timed from here. No tracing runs inside the
//! program.
//!
//! The replay follows `QueryService::prepare_cold` (parse, cache-key
//! unparse, analyze, minimize, optimize, planner measures and join tree,
//! `PreparedQuery::build`) and `run_plan` (tables or the Lemma 4.3
//! materialization on a plan's first run, then the strategy's governed
//! evaluator). The compile stages run only when the service reported a
//! miss; table building only when the plan is one the replay has not
//! seen, which is when the service built them too. The strategy always
//! comes from the service's own `PreparedPlan::strategy`.

use crate::workload::{Record, Setup, Source};
use ecrpq_analyze::{acyclic_join_tree, analyze, minimize, JoinTree};
use ecrpq_core::engine::{
    answers_cq_treedec_governed_traced, answers_product_governed_prepared_traced,
    answers_yannakakis_governed_prepared_traced,
};
use ecrpq_core::server::{PreparedPlan, QueryService, Response};
use ecrpq_core::trace::NoopTracer;
use ecrpq_core::{
    ecrpq_to_cq, optimize, Outcome, PreparedQuery, PreparedTables, Simplified, Strategy,
};
use ecrpq_graph::GraphDb;
use ecrpq_query::{parse_query, unparse, Cq, RelationRegistry, RelationalDb};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `QueryService`'s state budget for verifying the canonical rendering
/// it keys the plan cache by.
const UNPARSE_STATE_BUDGET: usize = 64;

/// The layers a request passes through, each the public call the
/// benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Parse,
    Unparse,
    Analyze,
    Minimize,
    Optimize,
    Planner,
    Prepare,
    Tables,
    ToCq,
    Product,
    Yannakakis,
    CqEval,
    /// `QueryService::prepare` on a cache hit.
    Server,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Parse,
        Layer::Unparse,
        Layer::Analyze,
        Layer::Minimize,
        Layer::Optimize,
        Layer::Planner,
        Layer::Prepare,
        Layer::Tables,
        Layer::ToCq,
        Layer::Product,
        Layer::Yannakakis,
        Layer::CqEval,
        Layer::Server,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "parse",
            Layer::Unparse => "unparse",
            Layer::Analyze => "analyze",
            Layer::Minimize => "minimize",
            Layer::Optimize => "optimize",
            Layer::Planner => "planner",
            Layer::Prepare => "prepare",
            Layer::Tables => "tables",
            Layer::ToCq => "to_cq",
            Layer::Product => "product",
            Layer::Yannakakis => "yannakakis",
            Layer::CqEval => "cq_eval",
            Layer::Server => "server",
        }
    }

    /// The compile layers, `parse` through `to_cq`.
    pub fn is_compile(self) -> bool {
        (self as usize) <= Layer::ToCq as usize
    }
}

/// Totals over a traced pass.
#[derive(Default)]
pub struct Totals {
    pub requests: u64,
    pub failed: u64,
    /// Per-layer self time, indexed by `Layer as usize`.
    pub layer_ns: [u64; 13],
    /// Service latencies measured around `execute`.
    pub latencies: Vec<u64>,
    pub hits: u64,
    pub evictions: u64,
    pub minimize_steps: u64,
    pub minimize_rejected: u64,
    pub minimize_budget_skips: u64,
    pub prepare_states: u64,
    pub to_cq_tuples: u64,
    pub product_configs: u64,
    pub product_checks: u64,
    pub product_memo_hits: u64,
    pub product_frontier_peak: u64,
    pub yannakakis_configs: u64,
    pub domain_kept: u64,
    pub domain_pruned: u64,
    pub governor_checks: u64,
    pub governor_aborts: u64,
}

/// What the replay keeps per plan: the compiled query and the tables the
/// service built on the plan's first run.
struct Compiled {
    /// Holds the plan alive, so its address keys it until the service
    /// has evicted it and the replay drops it too.
    plan: Arc<PreparedPlan>,
    prepared: PreparedQuery,
    tree: Option<JoinTree>,
    tables: Option<PreparedTables>,
    cq: Option<(Cq, RelationalDb)>,
}

/// Times the replayed calls; `delay` plants a 2× slowdown in one layer
/// (the self-test's fault).
struct Timer {
    totals: Totals,
    delay: Option<Layer>,
}

impl Timer {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let mut spent = start.elapsed();
        if self.delay == Some(layer) {
            let until = Instant::now() + spent;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            spent = start.elapsed();
        }
        self.totals.layer_ns[layer as usize] += spent.as_nanos() as u64;
        out
    }
}

/// Serves `source`'s requests on one client for `seconds`, replaying
/// each. Returns the totals and the records to verify afterwards.
pub fn traced_pass(
    setup: &Setup,
    source: &mut Source,
    seconds: f64,
    delay: Option<Layer>,
) -> Result<(Totals, Vec<Record>), String> {
    let service = &setup.service;
    let opts = crate::workload::opts();
    let registry = RelationRegistry::new();
    let mut timer = Timer {
        totals: Totals::default(),
        delay,
    };
    let mut compiled: HashMap<usize, Compiled> = HashMap::new();
    let mut records = Vec::new();
    let evictions_before = service.stats().cache_evictions;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (text, index) = source.next(&setup.pool);
        let before = (service.cached_plans(), service.stats().cache_evictions);
        let start = Instant::now();
        let result = service.execute(&text, &opts);
        let latency = start.elapsed().as_nanos() as u64;
        let t = &mut timer.totals;
        t.requests += 1;
        t.latencies.push(latency);
        let response = match result {
            Ok(r) if r.termination.is_complete() => r,
            _ => {
                t.failed += 1;
                continue;
            }
        };
        if response.cached {
            t.hits += 1;
        }
        // one client: the service interned a new plan (and so built its
        // tables) exactly when its plan count grew or it evicted one
        let after = (service.cached_plans(), service.stats().cache_evictions);
        let new_plan = after.0 + (after.1 - before.1) as usize > before.0;
        setup.check(&text, index, &response.answers, &mut records)?;
        let answers = replay(
            &mut timer,
            &mut compiled,
            service,
            &registry,
            &text,
            &response,
            new_plan,
        )?;
        if answers != response.answers {
            return Err(format!("replay disagrees with the service: {text}"));
        }
        if timer.totals.requests.is_multiple_of(256) {
            // plans only the replay still holds were evicted by the service
            compiled.retain(|_, c| Arc::strong_count(&c.plan) > 1);
        }
    }
    timer.totals.evictions = service.stats().cache_evictions - evictions_before;
    Ok((timer.totals, records))
}

/// Replays one served request; returns the replay's answer set.
/// `new_plan` says whether the service interned (and so built tables
/// for) a new plan; a miss can also resolve to an existing plan under
/// another spelling.
fn replay(
    timer: &mut Timer,
    compiled: &mut HashMap<usize, Compiled>,
    service: &QueryService,
    registry: &RelationRegistry,
    text: &str,
    response: &Response,
    new_plan: bool,
) -> Result<crate::workload::Answers, String> {
    let db = service.db();
    let opts = crate::workload::opts();
    let plan = &response.plan;
    let key = Arc::as_ptr(plan) as usize;
    let fresh = if response.cached {
        let (hit_plan, hit) = timer
            .time(Layer::Server, || service.prepare(text))
            .map_err(|e| format!("lookup after a hit failed: {e}"))?;
        if !hit || !Arc::ptr_eq(&hit_plan, plan) {
            return Err(format!("lookup after a hit missed: {text}"));
        }
        None
    } else {
        compile_stages(timer, db, registry, text.trim())?
    };
    if plan.is_short_circuit() {
        return Ok(Default::default());
    }
    if let Entry::Vacant(slot) = compiled.entry(key) {
        // a plan the service compiled before this pass began is rebuilt
        // here unattributed: the service did not pay for it now
        let mut untimed = Timer {
            totals: Totals::default(),
            delay: None,
        };
        let (prepared, tree) = match fresh {
            Some(f) => f,
            None => compile_stages(&mut untimed, db, registry, text.trim())?
                .ok_or_else(|| format!("replay short-circuits a live plan: {text}"))?,
        };
        let mut c = Compiled {
            plan: Arc::clone(plan),
            prepared,
            tree,
            tables: None,
            cq: None,
        };
        let t = if new_plan { &mut *timer } else { &mut untimed };
        match plan.strategy {
            Strategy::DirectProduct => {
                c.tables = Some(t.time(Layer::Tables, || {
                    PreparedTables::build(db, &c.prepared, opts.layout)
                }));
            }
            Strategy::Yannakakis => {
                let tree = c
                    .tree
                    .as_ref()
                    .ok_or_else(|| format!("Yannakakis plan without a join tree: {text}"))?;
                c.tables = Some(t.time(Layer::Tables, || {
                    PreparedTables::build_for_tree(db, &c.prepared, tree)
                }));
            }
            Strategy::CqTreedec => {
                let (cq, rdb, stats) = t.time(Layer::ToCq, || ecrpq_to_cq(db, &c.prepared));
                t.totals.to_cq_tuples += stats.tuples as u64;
                c.cq = Some((cq, rdb));
            }
        }
        slot.insert(c);
    }
    let c = &compiled[&key];
    // as `run_plan`: an unlimited request budget takes the plan's default
    let opts = if opts.budget.is_unlimited() {
        opts.with_budget(plan.default_budget)
    } else {
        opts
    };
    let outcome: Outcome<_> = match (plan.strategy, &c.tables, &c.cq) {
        (Strategy::DirectProduct, Some(tables), _) => {
            let o = timer.time(Layer::Product, || {
                answers_product_governed_prepared_traced(
                    db,
                    &c.prepared,
                    tables,
                    &opts,
                    &NoopTracer,
                )
            });
            let t = &mut timer.totals;
            t.product_configs += o.stats.configurations;
            t.product_checks += o.stats.checks;
            t.product_memo_hits += o.stats.cache_hits;
            t.product_frontier_peak = t.product_frontier_peak.max(o.stats.frontier_peak);
            o
        }
        (Strategy::Yannakakis, Some(tables), _) => {
            let o = timer.time(Layer::Yannakakis, || {
                answers_yannakakis_governed_prepared_traced(
                    db,
                    &c.prepared,
                    tables,
                    &opts,
                    &NoopTracer,
                )
            });
            timer.totals.yannakakis_configs += o.stats.configurations;
            o
        }
        (Strategy::CqTreedec, _, Some((cq, rdb))) => timer.time(Layer::CqEval, || {
            answers_cq_treedec_governed_traced(rdb, cq, &opts, &NoopTracer)
        }),
        _ => {
            return Err(format!(
                "replay has no tables for the plan's strategy: {text}"
            ))
        }
    };
    let t = &mut timer.totals;
    t.domain_kept += outcome.stats.domain_kept;
    t.domain_pruned += outcome.stats.domain_pruned;
    t.governor_checks += outcome.stats.budget_checks;
    t.governor_aborts += outcome.stats.budget_aborts;
    if !outcome.termination.is_complete() {
        return Err(format!(
            "replay incomplete ({:?}): {text}",
            outcome.termination
        ));
    }
    Ok(outcome.answers)
}

/// The compile stages of `QueryService::prepare_cold`. `None` when the
/// service would short-circuit (analyzer error or constant-false query).
fn compile_stages(
    timer: &mut Timer,
    db: &GraphDb,
    registry: &RelationRegistry,
    text: &str,
) -> Result<Option<(PreparedQuery, Option<JoinTree>)>, String> {
    let query = timer
        .time(Layer::Parse, || {
            let mut alphabet = db.alphabet().clone();
            parse_query(text, &mut alphabet, registry)
        })
        .map_err(|e| format!("replay cannot parse: {e}: {text}"))?;
    timer.time(Layer::Unparse, || unparse(&query, UNPARSE_STATE_BUDGET));
    if timer.time(Layer::Analyze, || analyze(&query)).has_errors() {
        return Ok(None);
    }
    let minimized = timer.time(Layer::Minimize, || minimize(&query));
    let t = &mut timer.totals;
    t.minimize_steps += minimized.steps.len() as u64;
    t.minimize_rejected += minimized.rejected as u64;
    t.minimize_budget_skips += minimized.budget_skips as u64;
    let effective = if minimized.steps.is_empty() {
        query
    } else {
        minimized.query
    };
    let optimized = match timer.time(Layer::Optimize, || optimize(&effective)) {
        Ok(Simplified::Query(q)) => q,
        Ok(Simplified::ConstFalse) => return Ok(None),
        Err(e) => return Err(format!("replay optimizer refused: {e}: {text}")),
    };
    let tree = timer.time(Layer::Planner, || {
        black_box(optimized.measures());
        acyclic_join_tree(&optimized)
    });
    let prepared = timer
        .time(Layer::Prepare, || PreparedQuery::build(&optimized))
        .map_err(|e| format!("replay cannot compile: {e}: {text}"))?;
    timer.totals.prepare_states += prepared.total_states() as u64;
    Ok(Some((prepared, tree)))
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Totals {
    pub fn ns_per_req(&self, layer: Layer) -> f64 {
        ratio(self.layer_ns[layer as usize] as f64, self.requests as f64)
    }

    /// Mean traced latency minus the sum of the layer times: the part of
    /// `execute` no replayed call accounts for (cache lock, admission,
    /// histograms, the service's collecting tracer).
    pub fn unattributed_ns_per_req(&self) -> f64 {
        let layers: u64 = self.layer_ns.iter().sum();
        ratio(
            self.latency_ns() as f64 - layers as f64,
            self.requests as f64,
        )
    }

    fn latency_ns(&self) -> u64 {
        self.latencies.iter().sum()
    }

    pub fn latency_ns_per_req(&self) -> f64 {
        ratio(self.latency_ns() as f64, self.requests as f64)
    }

    /// The per-layer metrics, by name.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let n = self.requests as f64;
        let mut m: Vec<(String, f64, &'static str)> = Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::Server)
            .map(|&l| (format!("{}.ns_per_req", l.name()), self.ns_per_req(l), "ns"))
            .collect();
        let steps = self.minimize_steps as f64;
        let product_s = self.layer_ns[Layer::Product as usize] as f64 / 1e9;
        let lookups = self.hits as f64;
        m.extend([
            ("minimize.steps_per_req".into(), ratio(steps, n), "count"),
            (
                "minimize.accept_ratio".into(),
                ratio(
                    steps,
                    steps + (self.minimize_rejected + self.minimize_budget_skips) as f64,
                ),
                "ratio",
            ),
            (
                "prepare.states_per_req".into(),
                ratio(self.prepare_states as f64, n),
                "count",
            ),
            (
                "semijoin.pruned_ratio".into(),
                ratio(
                    self.domain_pruned as f64,
                    (self.domain_kept + self.domain_pruned) as f64,
                ),
                "ratio",
            ),
            (
                "to_cq.tuples_per_req".into(),
                ratio(self.to_cq_tuples as f64, n),
                "count",
            ),
            (
                "product.configs_per_req".into(),
                ratio(self.product_configs as f64, n),
                "count",
            ),
            (
                "product.configs_per_s".into(),
                ratio(self.product_configs as f64, product_s),
                "1/s",
            ),
            (
                "product.memo_hit_ratio".into(),
                ratio(
                    self.product_memo_hits as f64,
                    (self.product_memo_hits + self.product_checks) as f64,
                ),
                "ratio",
            ),
            (
                "product.frontier_peak".into(),
                self.product_frontier_peak as f64,
                "count",
            ),
            (
                "yannakakis.configs_per_req".into(),
                ratio(self.yannakakis_configs as f64, n),
                "count",
            ),
            (
                "governor.checks_per_req".into(),
                ratio(self.governor_checks as f64, n),
                "count",
            ),
            (
                "governor.aborts".into(),
                self.governor_aborts as f64,
                "count",
            ),
            (
                "server.lookup_ns".into(),
                ratio(self.layer_ns[Layer::Server as usize] as f64, lookups),
                "ns",
            ),
            ("server.hit_rate".into(), ratio(lookups, n), "ratio"),
            (
                "server.evictions_per_req".into(),
                ratio(self.evictions as f64, n),
                "count",
            ),
            (
                "server.unattributed_ns_per_req".into(),
                self.unattributed_ns_per_req(),
                "ns",
            ),
            (
                "trace.compile_share".into(),
                self.share(Layer::is_compile),
                "ratio",
            ),
            (
                "trace.eval_share".into(),
                self.share(|l| matches!(l, Layer::Product | Layer::Yannakakis | Layer::CqEval)),
                "ratio",
            ),
        ]);
        m
    }

    /// The share of the traced latency spent in the layers `pick` selects.
    fn share(&self, pick: impl Fn(Layer) -> bool) -> f64 {
        let ns: u64 = Layer::ALL
            .iter()
            .filter(|&&l| pick(l))
            .map(|&l| self.layer_ns[l as usize])
            .sum();
        ratio(ns as f64, self.latency_ns() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{verify_records, Workload};

    /// Seconds each traced pass runs.
    const SECONDS: f64 = 3.0;

    /// The layers a slowed run flags against a baseline: self time per
    /// request at least 1.5× the baseline's, by at least 2% of the
    /// baseline's traced latency (so noise in tiny layers is ignored).
    fn flagged(base: &Totals, slow: &Totals) -> Vec<Layer> {
        let floor = 0.02 * base.latency_ns_per_req();
        Layer::ALL
            .into_iter()
            .filter(|&l| {
                let (b, s) = (base.ns_per_req(l), slow.ns_per_req(l));
                s >= 1.5 * b && s - b >= floor
            })
            .collect()
    }

    fn pass(workload: Workload, delay: Option<Layer>) -> Totals {
        let mut setup = Setup::build(workload, 7).expect("set-up");
        let mut source = setup.sources.remove(0);
        let (totals, records) =
            traced_pass(&setup, &mut source, SECONDS, delay).expect("traced pass");
        verify_records(setup.service.db(), &records).expect("answers match the oracle");
        assert_eq!(totals.failed, 0);
        totals
    }

    /// An undisturbed pass keeps its unattributed time in band, a
    /// planted 2× delay in one layer's wrapper is flagged in exactly
    /// that layer, and the layers plus the unattributed time still add
    /// up to the traced latency. Both cases run in one test so the
    /// passes never compete for cores.
    #[test]
    fn planted_delay_is_attributed_to_its_layer() {
        for (workload, layer) in [
            (Workload::ColdCompile, Layer::Minimize),
            (Workload::HotEval, Layer::Product),
        ] {
            let base = pass(workload, None);
            assert_tracks_service(workload, &base);
            let slow = pass(workload, Some(layer));
            assert_eq!(flagged(&base, &slow), vec![layer], "{}", workload.name());
            for t in [&base, &slow] {
                let layers: f64 = Layer::ALL.iter().map(|&l| t.ns_per_req(l)).sum();
                let total = layers + t.unattributed_ns_per_req();
                assert!(
                    (total - t.latency_ns_per_req()).abs() <= 1e-6 * t.latency_ns_per_req(),
                    "{}: layers + unattributed = {total}, traced latency {}",
                    workload.name(),
                    t.latency_ns_per_req()
                );
            }
        }
    }

    /// On an undisturbed pass the replayed layers account for most of
    /// the served latency without exceeding it: the unattributed time
    /// stays within −5% to +30% of the traced latency (measured: 4–7% on
    /// every workload). A replay that re-does work the service skipped,
    /// or misses work it did, leaves this band.
    fn assert_tracks_service(workload: Workload, t: &Totals) {
        let share = t.unattributed_ns_per_req() / t.latency_ns_per_req();
        assert!(
            (-0.05..=0.30).contains(&share),
            "{}: unattributed time is {share:.3} of the traced latency",
            workload.name()
        );
    }
}
