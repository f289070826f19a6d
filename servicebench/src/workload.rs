//! The three workloads: their graphs, query streams, warm-up and the
//! correctness check every response goes through.

use crate::grammar;
use ecrpq_core::planner;
use ecrpq_core::server::{QueryService, DEFAULT_PLAN_CAPACITY};
use ecrpq_core::EvalOptions;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{parse_query, RelationRegistry};
use ecrpq_workloads::graphs::{
    planted_acyclic_instance, planted_power_law_instance, planted_regime_shift_instance, random_db,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

pub type Answers = BTreeSet<Vec<NodeId>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdCompile,
    HotEval,
    ZipfChurn,
}

/// The `random_db` graph behind `cold_compile` and `zipf_churn` is E22's:
/// 60 nodes, average out-degree 1.5, labels `{a, b}`, generator seed
/// 2022. It stays fixed while `--seed` draws the query streams: graphs
/// this small differ so much from seed to seed (one giant strongly
/// connected component or none) that a per-seed graph moved throughput
/// by a quarter between seeds.
const SMALL_NODES: usize = 60;
const SMALL_GRAPH_SEED: u64 = 2022;
/// Planted E19 copy: power-law core size and entry vertices.
const E19_NODES: usize = 20_000;
const E19_SOURCES: usize = 8;
/// Planted E20 copy: decoy vertices and chain heads (E20's k = 8).
const E20_NODES: usize = 20_000;
const E20_HEADS: usize = 8;
/// Planted E21 copy size: ten 24-vertex cycles.
const E21_NODES: usize = 240;
/// Texts `cold_compile` compiles during set-up, and the grammar seed
/// they come from (the same for every run seed).
const COLD_WARMUP_TEXTS: usize = 64;
const WARMUP_SEED: u64 = 0x3A9D_17E5;
/// Grammar seed of the `zipf_churn` pool (the same for every run seed).
const ZIPF_POOL_SEED: u64 = 0x21BF_C0DE;
/// Distinct texts behind `zipf_churn`: four times the plan cache.
const ZIPF_TEXTS: usize = 4 * DEFAULT_PLAN_CAPACITY;
impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdCompile,
        Workload::HotEval,
        Workload::ZipfChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold_compile",
            Workload::HotEval => "hot_eval",
            Workload::ZipfChurn => "zipf_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients sharing the service.
    pub fn clients(self) -> usize {
        match self {
            Workload::ZipfChurn => 2,
            _ => 1,
        }
    }

    /// How many times a run repeats its set-up to report the median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ColdCompile => 5,
            Workload::HotEval => 7,
            Workload::ZipfChurn => 5,
        }
    }
}

/// Options every request carries: sequential evaluation, so each
/// request's work is the same on any host and the only concurrency is
/// `zipf_churn`'s two clients. `EvalOptions::default()` starts a worker
/// per core on every request; on a 2-core host that start-up cost
/// exceeded the whole evaluation of the cheap `hot_eval` queries and
/// doubled the run-to-run spread of `cold_compile`.
pub fn opts() -> EvalOptions {
    EvalOptions::sequential()
}

/// A built workload: the service plus what its streams draw from.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub service: QueryService,
    /// The fixed texts (`hot_eval` corpus, `zipf_churn` pool); empty for
    /// `cold_compile`, whose texts are generated fresh.
    pub pool: Vec<Arc<str>>,
    /// `hot_eval` only: the planted answer set of each pool text.
    pub planted: Vec<Answers>,
    /// `zipf_churn` only: cumulative Zipf(1) weights over the pool.
    zipf_cdf: Arc<[f64]>,
    /// One request source per client; `cold_compile`'s has seen the
    /// warm-up texts, so its stream never repeats one.
    pub sources: Vec<Source>,
    /// Responses served during warm-up, checked with the run's.
    pub warmup: Vec<Record>,
}

/// A served response to check after the run: its text and the
/// fingerprint of its answer set.
pub struct Record {
    pub text: Arc<str>,
    pub fingerprint: u64,
}

/// Where a client's next request comes from.
pub enum Source {
    /// `cold_compile`: a new distinct grammar text every time.
    Fresh {
        rng: SmallRng,
        seen: HashSet<String>,
    },
    /// `hot_eval`: rounds over the corpus, each in a shuffled order.
    Rounds {
        rng: SmallRng,
        order: Vec<usize>,
        pos: usize,
    },
    /// `zipf_churn`: Zipf-distributed ranks over the pool.
    Zipf { rng: SmallRng, cdf: Arc<[f64]> },
}

impl Source {
    /// The next request: its text and, for pool texts, the pool index.
    pub fn next(&mut self, pool: &[Arc<str>]) -> (Arc<str>, Option<usize>) {
        match self {
            Source::Fresh { rng, seen } => loop {
                let text = grammar::text(rng);
                if seen.insert(text.clone()) {
                    return (Arc::from(text), None);
                }
            },
            Source::Rounds { rng, order, pos } => {
                if *pos == order.len() {
                    grammar::shuffle(rng, order);
                    *pos = 0;
                }
                let i = order[*pos];
                *pos += 1;
                (Arc::clone(&pool[i]), Some(i))
            }
            Source::Zipf { rng, cdf } => {
                let u = grammar::unit(rng) * cdf[cdf.len() - 1];
                let i = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
                (Arc::clone(&pool[i]), Some(i))
            }
        }
    }
}

impl Setup {
    /// Graph generation, service construction and warm-up: everything
    /// `setup_s` times.
    pub fn build(workload: Workload, seed: u64) -> Result<Setup, String> {
        let (db, pool, planted) = match workload {
            Workload::ColdCompile => (small_db(), Vec::new(), Vec::new()),
            Workload::ZipfChurn => (small_db(), zipf_pool(), Vec::new()),
            Workload::HotEval => {
                let (db, corpus) = hot_graph(seed);
                let (pool, planted) = corpus.into_iter().map(|(t, a)| (Arc::from(t), a)).unzip();
                (db, pool, planted)
            }
        };
        let zipf_cdf: Arc<[f64]> = (1..=pool.len())
            .scan(0.0, |acc, rank| {
                *acc += 1.0 / rank as f64;
                Some(*acc)
            })
            .collect();
        let mut setup = Setup {
            workload,
            seed,
            service: QueryService::new(db),
            pool,
            planted,
            zipf_cdf,
            sources: Vec::new(),
            warmup: Vec::new(),
        };
        setup.sources = (0..workload.clients()).map(|c| setup.source(c)).collect();
        setup.warm_up()?;
        Ok(setup)
    }

    /// The request source of client `client`.
    fn source(&self, client: usize) -> Source {
        let rng = SmallRng::seed_from_u64(
            self.seed ^ (0x5EED_0000 + client as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        match self.workload {
            Workload::ColdCompile => Source::Fresh {
                rng,
                seen: HashSet::new(),
            },
            Workload::HotEval => Source::Rounds {
                rng,
                order: (0..self.pool.len()).collect(),
                pos: self.pool.len(),
            },
            Workload::ZipfChurn => Source::Zipf {
                rng,
                cdf: Arc::clone(&self.zipf_cdf),
            },
        }
    }

    /// Fills the plan cache (and, on `hot_eval`, every table) before
    /// timing starts, with work that does not depend on the seed's luck:
    /// `cold_compile` compiles a fixed set of grammar texts (which its
    /// stream then never repeats), `zipf_churn` the texts at the top
    /// `DEFAULT_PLAN_CAPACITY` ranks once each, `hot_eval` its corpus.
    fn warm_up(&mut self) -> Result<(), String> {
        let opts = opts();
        let texts: Vec<(Arc<str>, Option<usize>)> = match self.workload {
            Workload::ColdCompile => {
                let Some(Source::Fresh { seen, .. }) = self.sources.first_mut() else {
                    return Err("cold_compile has no fresh-text source".into());
                };
                let mut rng = SmallRng::seed_from_u64(WARMUP_SEED);
                let mut texts = Vec::new();
                while texts.len() < COLD_WARMUP_TEXTS {
                    let text = grammar::text(&mut rng);
                    if seen.insert(text.clone()) {
                        texts.push((Arc::from(text), None));
                    }
                }
                texts
            }
            Workload::HotEval => self.pool.iter().cloned().zip((0..).map(Some)).collect(),
            Workload::ZipfChurn => self.pool[..DEFAULT_PLAN_CAPACITY]
                .iter()
                .cloned()
                .zip((0..).map(Some))
                .collect(),
        };
        let mut records = Vec::new();
        for (text, index) in texts {
            let r = self
                .service
                .execute(&text, &opts)
                .map_err(|e| format!("warm-up request refused: {e}: {text}"))?;
            if !r.termination.is_complete() {
                return Err(format!(
                    "warm-up request incomplete ({:?}): {text}",
                    r.termination
                ));
            }
            self.check(&text, index, &r.answers, &mut records)?;
        }
        self.warmup = records;
        Ok(())
    }

    /// Checks one complete response: `hot_eval` against its planted set
    /// right away, the others recorded for [`verify_records`].
    pub fn check(
        &self,
        text: &Arc<str>,
        index: Option<usize>,
        answers: &Answers,
        records: &mut Vec<Record>,
    ) -> Result<(), String> {
        match (self.workload, index) {
            (Workload::HotEval, Some(i)) => {
                if answers != &self.planted[i] {
                    return Err(format!(
                        "wrong answer: {} answers, planted {}: {text}",
                        answers.len(),
                        self.planted[i].len()
                    ));
                }
            }
            _ => records.push(Record {
                text: Arc::clone(text),
                fingerprint: fingerprint(answers),
            }),
        }
        Ok(())
    }
}

/// Order-sensitive hash of an answer set.
pub fn fingerprint(answers: &Answers) -> u64 {
    let mut h = DefaultHasher::new();
    answers.len().hash(&mut h);
    for t in answers {
        t.hash(&mut h);
    }
    h.finish()
}

/// Checks recorded responses against `planner::answers`, computed once
/// per distinct text.
pub fn verify_records<'a>(
    db: &GraphDb,
    records: impl IntoIterator<Item = &'a Record>,
) -> Result<usize, String> {
    let mut oracle: HashMap<&str, u64> = HashMap::new();
    for r in records {
        let expect = match oracle.get(&*r.text) {
            Some(&fp) => fp,
            None => {
                let mut alphabet = db.alphabet().clone();
                let q = parse_query(&r.text, &mut alphabet, &RelationRegistry::new())
                    .map_err(|e| format!("oracle cannot parse {}: {e}", r.text))?;
                let fp = fingerprint(&planner::answers(db, &q));
                oracle.insert(&r.text, fp);
                fp
            }
        };
        if r.fingerprint != expect {
            return Err(format!("answer differs from planner::answers: {}", r.text));
        }
    }
    Ok(oracle.len())
}

fn small_db() -> GraphDb {
    random_db(SMALL_NODES, 1.5, 2, SMALL_GRAPH_SEED)
}

/// The `zipf_churn` pool: distinct grammar texts, about a quarter of
/// them whitespace re-spellings of an earlier text, in a shuffled rank
/// order so variants and originals sit at every popularity. Like the
/// graph, the pool is fixed and `--seed` draws the requests from it: a
/// handful of plans with large tables set the service's memory, and with
/// a per-seed pool peak memory moved by 40% between seeds.
fn zipf_pool() -> Vec<Arc<str>> {
    let mut rng = SmallRng::seed_from_u64(ZIPF_POOL_SEED);
    let mut seen = HashSet::new();
    let mut pool: Vec<String> = Vec::with_capacity(ZIPF_TEXTS);
    while pool.len() < ZIPF_TEXTS {
        let text = if pool.len() >= 8 && rng.gen_bool(0.25) {
            let base = pool[rng.gen_range(0..pool.len())].clone();
            grammar::respell(&base, &mut rng)
        } else {
            grammar::text(&mut rng)
        };
        if seen.insert(text.clone()) {
            pool.push(text);
        }
    }
    grammar::shuffle(&mut rng, &mut pool);
    pool.into_iter().map(Arc::from).collect()
}

/// Copies `sub` into `g` with its nodes shifted by `g`'s node count and
/// its letters shifted by `letter_offset` (so `a` becomes the
/// `letter_offset`-th letter). Returns the node offset.
fn append_relabelled(g: &mut GraphDb, sub: &GraphDb, letter_offset: u8) -> NodeId {
    let offset = g.add_nodes_anon(sub.num_nodes());
    for e in sub.edges() {
        let c = sub.alphabet().char_of(e.label);
        let shifted = (c as u8 + letter_offset) as char;
        g.add_edge(e.src + offset, shifted, e.dst + offset);
    }
    offset
}

fn shift(answers: &Answers, offset: NodeId) -> Answers {
    answers
        .iter()
        .map(|t| t.iter().map(|v| v + offset).collect())
        .collect()
}

/// The `hot_eval` graph: disjoint copies of the E19, E20 and E21 planted
/// instances over their own letters (E19 on `a–d`, E20 on `e–h`, E21 on
/// `i–j`), and the corpus of query texts with their planted answer sets.
///
/// The E21 chords are universal over the whole alphabet, as `(a|b)*` is
/// over E21's own, so the minimizer still elides them. The two
/// multi-track queries relate the parallel `i`- and `j`-edge planted in
/// each E21 cycle: both hold exactly on those edges.
fn hot_graph(seed: u64) -> (GraphDb, Vec<(String, Answers)>) {
    let (g19, _, sources) = planted_power_law_instance(E19_NODES, E19_SOURCES, seed);
    let (g20, _, heads) = planted_acyclic_instance(E20_NODES, E20_HEADS, seed ^ 1);
    let (g21, _, cycles) = planted_regime_shift_instance(E21_NODES, seed ^ 2);
    let mut g = GraphDb::with_alphabet(ecrpq_automata::Alphabet::ascii_lower(10));
    let o19 = append_relabelled(&mut g, &g19, 0);
    let o20 = append_relabelled(&mut g, &g20, 4);
    let o21 = append_relabelled(&mut g, &g21, 8);
    let b = g21.alphabet().symbol('b').expect("E21 plants b-edges");
    let parallel: Answers = g21
        .edges()
        .filter(|e| e.label == b)
        .map(|e| vec![e.src + o21, e.dst + o21])
        .collect();
    let any = "(a|b|c|d|e|f|g|h|i|j)*";
    let corpus = vec![
        (
            "q(x) :- x -[p]-> y, p in c(a|b)*d".to_string(),
            sources.iter().map(|&s| vec![s + o19]).collect(),
        ),
        (
            "q(x, z) :- x -[p]-> y, y -[r]-> z, p in ee*, r in ff*h".to_string(),
            shift(&heads, o20),
        ),
        (
            format!(
                "q(w, z) :- w -[p1]-> x, x -[p2]-> y, y -[p3]-> z, w -[c1]-> y, x -[c2]-> z, \
                 w -[c3]-> z, p1 in i*j, p2 in i*j, p3 in i*j, c1 in {any}, c2 in {any}, \
                 c3 in {any}"
            ),
            shift(&cycles, o21),
        ),
        (
            "q(x, y) :- x -[p]-> y, x -[r]-> y, p in j, r in i, eq_len(p, r)".to_string(),
            parallel.clone(),
        ),
        (
            "q(x, y) :- x -[p]-> y, x -[r]-> y, p in j, r in i|j, prefix(p, r)".to_string(),
            parallel,
        ),
    ];
    (g, corpus)
}
