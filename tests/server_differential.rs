//! Differential testing of the query service: answers served from a
//! cached [`PreparedPlan`] must be bit-identical to a fresh
//! `planner::answers` evaluation of the same text — across layouts,
//! thread counts and repeated executions — and per-execution governor
//! state (stop flags, deadlines) must never leak between runs or between
//! sessions sharing the plan cache.

use ecrpq::eval::cq_eval::answers_cq;
use ecrpq::eval::planner;
use ecrpq::eval::{
    ecrpq_to_cq, EvalOptions, Layout, Phase, PreparedQuery, QueryService, ResourceBudget,
    ServerError, SessionBudget, Strategy,
};
use ecrpq::graph::GraphDb;
use ecrpq::query::{parse_query, unparse, NodeVar, RelationRegistry};
use ecrpq::workloads::{random_db, random_ecrpq, RandomQueryParams};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Duration;

/// The differential corpus: finite path languages keep every governed
/// search small at the sizes below, while the query shapes cover the
/// strategy space — tree-decomposition, direct product (the eq-length
/// triple), and the acyclic planner path once the node count pushes the
/// 2-variable queries past the tuple budget.
const CORPUS: &[&str] = &[
    "q(x, y) :- x -[p]-> y, p in a*b",
    "q(x, y) :- x -[p]-> y, p in (a|b)(a|b)a",
    "q(x, z) :- x -[p1]-> y, x -[p2]-> y, y -[r]-> z, eq_len(p1, p2), p1 in b|(a|b)(a|b)b, r in b",
    "q(x) :- x -[p0]-> y, x -[p1]-> y, x -[p2]-> y, eq_len(p0, p1, p2), \
     p0 in a|aaa, p1 in a|aab, p2 in a|ab(a|b)",
];

/// A generous but finite budget: enough for every corpus query to run to
/// completion at the sizes used here, while keeping the request on the
/// governed code path (an unlimited request budget would be replaced by
/// the plan's regime default inside the service).
fn generous() -> ResourceBudget {
    ResourceBudget::unlimited().with_max_configurations(2_000_000_000)
}

/// Reference evaluation: parse against the database's alphabet and run
/// the ungoverned planner entry point.
fn reference(db: &GraphDb, text: &str) -> BTreeSet<Vec<ecrpq::graph::NodeId>> {
    let mut alphabet = db.alphabet().clone();
    let registry = RelationRegistry::new();
    let q = parse_query(text, &mut alphabet, &registry).expect("corpus query parses");
    planner::answers(db, &q)
}

/// Cached-plan answers are bit-identical to the fresh planner evaluation
/// across Flat/BitParallel layouts, 1/2/4 threads, and repeated
/// executions of the same interned plan.
#[test]
fn cached_plan_matches_planner_across_layouts_and_threads() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    for text in CORPUS {
        let expected = reference(&db, text);
        let mut first = true;
        for layout in [Layout::Flat, Layout::BitParallel] {
            for threads in [1usize, 2, 4] {
                let opts = EvalOptions::with_threads(threads)
                    .with_layout(layout)
                    .with_budget(generous());
                for round in 0..3 {
                    let r = service.execute(text, &opts).expect("request admitted");
                    assert!(
                        r.termination.is_complete(),
                        "{text} {layout:?} t={threads} round {round}: {:?}",
                        r.termination
                    );
                    assert_eq!(
                        r.answers, expected,
                        "{text} {layout:?} t={threads} round {round}"
                    );
                    assert_eq!(r.cached, !first, "{text}: only the first request misses");
                    first = false;
                }
            }
        }
    }
    let stats = service.stats();
    assert_eq!(stats.requests, (CORPUS.len() * 2 * 3 * 3) as u64);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
    assert_eq!(stats.cache_misses, CORPUS.len() as u64);
    assert_eq!(stats.cached_plans, CORPUS.len());
}

/// Past the planner's tuple budget the 2-variable queries leave the
/// tree-decomposition path, so the cached plans pin the large-database
/// strategies — and their answers still match the planner bit for bit.
#[test]
fn cached_plan_matches_planner_past_the_tuple_budget() {
    let db = random_db(120, 1.5, 2, 0xBEEF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let mut strategies = BTreeSet::new();
    for text in CORPUS {
        let expected = reference(&db, text);
        let opts = EvalOptions::sequential().with_budget(generous());
        for _ in 0..2 {
            let r = service.execute(text, &opts).expect("request admitted");
            assert!(r.termination.is_complete(), "{text}: {:?}", r.termination);
            assert_eq!(r.answers, expected, "{text}");
            strategies.insert(format!("{:?}", r.plan.strategy));
        }
    }
    // the corpus must actually exercise the large-database strategies at
    // this size — a regression to CqTreedec-for-everything would hollow
    // out this suite
    assert!(
        strategies.contains("DirectProduct"),
        "no corpus query routed to DirectProduct at n=120: {strategies:?}"
    );
}

/// The central PR-9 regression: a governed run that trips its stop flag
/// or expires its deadline must not poison the cached plan — the next
/// execution of the *same* interned plan constructs fresh governor state
/// and runs to completion.
#[test]
fn tripped_governor_state_does_not_leak_into_cached_plan() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let text = CORPUS[3]; // the eq-length triple does real search work
    let expected = reference(&db, text);

    // prime the cache with a complete run
    let clean = EvalOptions::sequential().with_budget(generous());
    let r = service.execute(text, &clean).expect("prime");
    assert!(r.termination.is_complete());
    assert_eq!(r.answers, expected);

    // trip the configuration budget on the cached plan
    let tight = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(1));
    let r = service.execute(text, &tight).expect("admitted");
    assert!(r.cached, "second request must hit the cache");
    assert!(
        !r.termination.is_complete(),
        "a 1-configuration budget cannot complete the triple"
    );

    // expire a deadline on the cached plan
    let expired = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_deadline(Duration::ZERO));
    let r = service.execute(text, &expired).expect("admitted");
    assert!(
        !r.termination.is_complete(),
        "a zero deadline cannot complete"
    );

    // the same cached plan, governed afresh, completes with full answers —
    // repeatedly, so no run inherits the previous run's tripped state
    for round in 0..3 {
        let r = service.execute(text, &clean).expect("admitted");
        assert!(r.cached);
        assert!(
            r.termination.is_complete(),
            "round {round} after tripped runs: {:?}",
            r.termination
        );
        assert_eq!(r.answers, expected, "round {round}");
    }

    // the table-cache rule on a cold plan: the run that first needs the
    // tables builds them under its own governor and tracer, and the plan
    // keeps them only if that governor had not tripped by the end of the
    // build
    let cold = QueryService::new(db.clone());
    let (plan, _) = cold.prepare(text).expect("triple prepares");
    assert!(matches!(plan.strategy, Strategy::DirectProduct));
    let r = cold.execute(text, &expired).expect("admitted");
    assert!(
        !r.termination.is_complete(),
        "a zero deadline trips inside the table build"
    );
    let built = |r: &ecrpq::eval::Response| {
        (
            r.metrics.phase(Phase::Prepare).items,
            r.metrics.phase(Phase::Semijoin).items,
        )
    };
    // the truncated tables were not cached: the next run builds them
    let r = cold
        .execute(text, &EvalOptions::sequential())
        .expect("admitted");
    assert!(r.termination.is_complete(), "{:?}", r.termination);
    assert_eq!(r.answers, expected);
    let (prepare, semijoin) = built(&r);
    assert!(prepare > 0 && semijoin > 0, "{prepare} {semijoin}");
    // ...and, complete this time, caches them for every later run
    let r = cold
        .execute(text, &EvalOptions::sequential())
        .expect("admitted");
    assert!(r.termination.is_complete(), "{:?}", r.termination);
    assert_eq!(r.answers, expected);
    assert_eq!(built(&r), (0, 0), "cached tables are not rebuilt");
}

/// The table rule on the tree-decomposition route: the run that first
/// needs the semijoin-reduced CQ builds it under its own governor and
/// tracer, and the plan keeps it only if that governor had not tripped by
/// the end of the build. A run that finds it cached only enumerates, and
/// that enumeration is still governed: an answer cap stops it, and a
/// Boolean query stops at its first answer, at every thread count.
#[test]
fn cq_reduction_follows_the_table_rule() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let text = CORPUS[0];
    let expected = reference(&db, text);
    assert!(expected.len() > 1, "the text needs several answers");
    let service = QueryService::new(db.clone());
    let (plan, _) = service.prepare(text).expect("prepares");
    assert!(matches!(plan.strategy, Strategy::CqTreedec));
    let bags = |r: &ecrpq::eval::Response| r.metrics.phase(Phase::TreedecBags).items;

    let expired = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_deadline(Duration::ZERO));
    let r = service.execute(text, &expired).expect("admitted");
    assert!(
        !r.termination.is_complete(),
        "a zero deadline trips inside the reduction"
    );
    assert!(r.answers.is_subset(&expected));

    // the truncated reduction was not cached: the next run rebuilds it
    let clean = EvalOptions::sequential().with_budget(generous());
    let r = service.execute(text, &clean).expect("admitted");
    assert!(r.termination.is_complete(), "{:?}", r.termination);
    assert_eq!(r.answers, expected);
    assert!(bags(&r) > 0, "the rebuild populates bags");
    // ...and, complete this time, caches it for every later run
    let r = service.execute(text, &clean).expect("admitted");
    assert!(r.termination.is_complete(), "{:?}", r.termination);
    assert_eq!(r.answers, expected);
    assert_eq!(bags(&r), 0, "a cached reduction is not rebuilt");

    for threads in [1usize, 2, 4] {
        let capped = EvalOptions::with_threads(threads).with_budget(generous().with_max_answers(1));
        let r = service.execute(text, &capped).expect("admitted");
        assert_eq!(bags(&r), 0, "t={threads}");
        assert!(
            !r.termination.is_complete(),
            "t={threads}: one answer of {} cannot complete",
            expected.len()
        );
        assert!(r.answers.len() == 1 && r.answers.is_subset(&expected));
        let expired = EvalOptions::with_threads(threads)
            .with_budget(ResourceBudget::unlimited().with_deadline(Duration::ZERO));
        let r = service.execute(text, &expired).expect("admitted");
        assert_eq!(bags(&r), 0, "t={threads}");
        assert!(!r.termination.is_complete(), "t={threads}: zero deadline");
        assert!(r.answers.is_subset(&expected));
    }

    let boolean = "q() :- x -[p]-> y, p in a*b";
    for (round, threads) in [1usize, 1, 2, 4].into_iter().enumerate() {
        let opts = EvalOptions::with_threads(threads).with_budget(generous());
        let r = service.execute(boolean, &opts).expect("admitted");
        assert!(matches!(r.plan.strategy, Strategy::CqTreedec));
        assert!(r.termination.is_complete(), "t={threads}");
        assert_eq!(r.answers, BTreeSet::from([Vec::new()]), "t={threads}");
        assert_eq!(bags(&r) > 0, round == 0, "only the first run builds");
    }
}

/// Concurrent sessions over one shared service: a work-capped session is
/// eventually refused at admission with its pool at exactly zero, while
/// unmetered sessions running concurrently stay complete and bit-identical
/// to the planner — session budgets never bleed across sessions, and the
/// capped session's tripped governors never poison the shared plans.
#[test]
fn concurrent_sessions_respect_budgets_without_cross_session_bleed() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let expected: Vec<_> = CORPUS.iter().map(|t| reference(&db, t)).collect();
    let opts = EvalOptions::sequential().with_budget(generous());

    const SESSIONS: usize = 3;
    const RUNS: usize = 4;
    let capped = service.session(SessionBudget::unlimited().with_max_total_configurations(50));
    std::thread::scope(|s| {
        for worker in 0..SESSIONS {
            let (service, opts, expected) = (&service, &opts, &expected);
            s.spawn(move || {
                let session = service.session(SessionBudget::unlimited());
                for round in 0..RUNS {
                    for (i, text) in CORPUS.iter().enumerate() {
                        let r = session.execute(text, opts).expect("unmetered admission");
                        assert!(
                            r.termination.is_complete(),
                            "session {worker} round {round} {text}: {:?}",
                            r.termination
                        );
                        assert_eq!(r.answers, expected[i], "session {worker} {text}");
                    }
                }
                assert_eq!(session.executed(), (RUNS * CORPUS.len()) as u64);
                assert_eq!(session.remaining_configurations(), None);
            });
        }
        s.spawn(|| {
            // drain the capped session's pool on the most expensive query;
            // every run is admission-checked, charged with metered work,
            // and the pool must land on exactly zero before refusal
            let text = CORPUS[3];
            let mut refused = false;
            for _ in 0..64 {
                match capped.execute(text, &opts) {
                    Ok(r) => assert!(r.stats.configurations > 0, "work must be metered"),
                    Err(ServerError::SessionExhausted) => {
                        refused = true;
                        break;
                    }
                    Err(e) => panic!("unexpected refusal: {e}"),
                }
            }
            assert!(refused, "a 50-configuration pool must exhaust");
            assert_eq!(capped.remaining_configurations(), Some(0));
        });
    });

    // the shared cache served every session from one set of interned
    // plans, and the exhausted session left them fully usable
    assert_eq!(service.stats().cached_plans, CORPUS.len());
    let after = service
        .execute(CORPUS[3], &opts)
        .expect("service-level request after session exhaustion");
    assert!(after.cached);
    assert!(after.termination.is_complete());
    assert_eq!(after.answers, expected[3]);
}

/// `Strategy` routing sanity for the small database: the eq-length triple
/// is the direct-product representative there, and its plan reports the
/// PSPACE budget regime (three tracks in one synchronous component).
#[test]
fn small_db_plans_report_strategy_and_regime() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let (plan, _) = service.prepare(CORPUS[3]).expect("triple prepares");
    assert!(matches!(plan.strategy, Strategy::DirectProduct));
    assert_eq!(format!("{:?}", plan.combined), "PspaceComplete");
}

/// The agreement corpus: every query line of `queries/*.ecrpq`, plus 200
/// random queries that render to text.
fn agreement_corpus() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("queries");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("queries/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ecrpq"))
        .collect();
    files.sort();
    let mut texts: Vec<String> = Vec::new();
    for file in files {
        let content = std::fs::read_to_string(&file).expect("query file is readable");
        texts.extend(
            content
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string),
        );
    }
    let random: Vec<String> = (0..5000)
        .filter_map(|seed| unparse(&random_ecrpq(&RandomQueryParams::default(), seed), 64))
        .take(200)
        .collect();
    assert_eq!(random.len(), 200, "too few random queries render to text");
    texts.extend(random);
    texts
}

/// `planner::plan` and the service describe the same compiled plan: the
/// same measures, strategy, join tree and default budget for every query,
/// on a graph below the tuple budget and on one far past it, where the
/// corpus must reach both large-database strategies.
#[test]
fn plan_agrees_with_the_service_plan() {
    let texts = agreement_corpus();
    for (db, expected) in [
        (random_db(60, 1.5, 2, 0xD1FF), vec!["CqTreedec"]),
        (
            random_db(10_000, 1.5, 2, 0xBEEF),
            vec!["DirectProduct", "Yannakakis"],
        ),
    ] {
        let service = QueryService::new(db.clone());
        let mut strategies = BTreeSet::new();
        for text in &texts {
            let mut alphabet = db.alphabet().clone();
            let q = parse_query(text, &mut alphabet, &RelationRegistry::new())
                .expect("corpus query parses");
            let plan = planner::plan(&db, &q);
            let (served, _) = service.prepare(text).expect("service compiles");
            assert_eq!(plan.measures, served.measures, "{text}");
            assert_eq!(plan.strategy, served.strategy, "{text}");
            assert_eq!(plan.join_tree.as_ref(), served.join_tree(), "{text}");
            assert_eq!(plan.default_budget, served.default_budget, "{text}");
            strategies.insert(format!("{:?}", plan.strategy));
        }
        assert_eq!(strategies, expected.into_iter().map(String::from).collect());
    }
}

/// The first random query text, from `seed` on, that renders to text and
/// plans to [`Strategy::CqTreedec`] on `db` (most do below the tuple
/// budget; the eq-length-heavy rest take the direct product).
fn cq_treedec_text(db: &GraphDb, service: &QueryService, seed: u64) -> Option<String> {
    (seed..seed + 64).find_map(|s| {
        let mut q = random_ecrpq(&RandomQueryParams::default(), s);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let text = unparse(&q, 64)?;
        let (plan, _) = service.prepare(&text).ok()?;
        let mut alphabet = db.alphabet().clone();
        let parses = parse_query(&text, &mut alphabet, &RelationRegistry::new()).is_ok();
        (parses && matches!(plan.strategy, Strategy::CqTreedec)).then_some(text)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached tree-decomposition plans served repeatedly at 1/2/4 threads,
    /// interleaved with tight budgets that trip the building run as well
    /// as later enumerations over the cached reduction: every complete run
    /// equals the backtracking join over the unreduced Lemma 4.3 CQ, and
    /// every tripped run returns a subset of it.
    #[test]
    fn cached_cq_plans_match_the_unreduced_join(seed in 0..100_000u64, nodes in 6usize..=60) {
        let db = random_db(nodes, 1.5, 2, seed ^ 0x5EED);
        db.freeze();
        let service = QueryService::new(db.clone());
        let text = cq_treedec_text(&db, &service, seed);
        prop_assert!(text.is_some(), "no CqTreedec text from seed {seed} on");
        let text = text.unwrap_or_default();
        let mut alphabet = db.alphabet().clone();
        let parsed = parse_query(&text, &mut alphabet, &RelationRegistry::new())
            .map_err(|e| TestCaseError::fail(format!("{text}: {e:?}")))?;
        let prepared = PreparedQuery::build(&parsed).map_err(TestCaseError::fail)?;
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        let full = answers_cq(&rdb, &cq);
        let budgets = [
            ResourceBudget::unlimited().with_max_configurations(8),
            generous(),
            ResourceBudget::unlimited().with_max_answers(1),
            ResourceBudget::unlimited().with_max_configurations(64),
            generous(),
        ];
        for threads in [1usize, 2, 4] {
            for budget in budgets {
                let opts = EvalOptions::with_threads(threads).with_budget(budget);
                let r = service
                    .execute(&text, &opts)
                    .map_err(|e| TestCaseError::fail(format!("{text}: {e:?}")))?;
                prop_assert!(r.answers.is_subset(&full), "{} t={} {:?}", text, threads, budget);
                if r.termination.is_complete() {
                    prop_assert_eq!(&r.answers, &full, "{} t={} {:?}", text, threads, budget);
                }
            }
        }
    }
}
