//! Seeded generator of query texts over the two-letter alphabet `{a, b}`
//! of the `random_db` graph.
//!
//! The shapes are those of the E22 server corpus and the `queries/`
//! directory: single-atom regex reachability, CRPQ chains, the K4-chorded
//! chain the minimizer shrinks, `eq_len` pairs and triples, `prefix` and
//! `hamming` sibling paths, and `eq`-contractible parallel paths. Regexes
//! are drawn fresh for every text, so a stream of texts keeps missing the
//! plan cache. Multi-track shapes get finite languages (no star) on every
//! track, which keeps their product search depth-bounded on any graph and
//! their Lemma 4.3 relations small: an `eq_len` pair with one free track
//! (E22's form) materializes ten times the tuples of any other shape, and
//! a few such plans in the cache made peak memory swing by a fifth from
//! seed to seed.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Uniform in `[0, 1)`, for inverse-CDF draws.
pub fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Letter classes, the wildcard drawn a fifth of the time: wildcard-heavy
/// regexes reach most of the graph, and their large answer sets would
/// make evaluation rather than compilation the bulk of a cold request.
const LETTERS: [&str; 5] = ["a", "b", "a", "b", "(a|b)"];

/// A concatenation of 1–3 letter classes, each starred with probability
/// `star`, or with probability 1/4 the alternation of two such
/// concatenations.
fn regex(rng: &mut SmallRng, star: f64) -> String {
    let concat = |rng: &mut SmallRng| -> String {
        let mut s = String::new();
        let mut anchored = false;
        for _ in 0..1 + rng.gen_range(0..3) {
            s.push_str(LETTERS[rng.gen_range(0..LETTERS.len())]);
            if rng.gen_bool(star) {
                s.push('*');
            } else {
                anchored = true;
            }
        }
        // an all-starred concatenation accepts the empty word; anchor it
        // with one plain letter so every atom moves at least one edge
        if !anchored {
            s.push_str(LETTERS[rng.gen_range(0..LETTERS.len())]);
        }
        s
    };
    let first = concat(rng);
    if rng.gen_bool(0.25) {
        format!("{first}|{}", concat(rng))
    } else {
        first
    }
}

/// A regex with Kleene stars (infinite language).
fn star_regex(rng: &mut SmallRng) -> String {
    regex(rng, 0.3)
}

/// A star-free regex (finite language), for multi-track shapes.
fn finite_regex(rng: &mut SmallRng) -> String {
    regex(rng, 0.0)
}

/// The query shapes, in the order [`text`] draws them.
pub const SHAPES: [&str; 8] = [
    "reach",
    "chain",
    "k4_chords",
    "eq_len_pair",
    "eq_len_triple",
    "prefix",
    "hamming",
    "eq_parallel",
];

/// One random query text of a uniformly drawn shape.
pub fn text(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..SHAPES.len()) {
        0 => format!("q(x, y) :- x -[p]-> y, p in {}", star_regex(rng)),
        1 => {
            if rng.gen_bool(0.5) {
                format!(
                    "q(x, z) :- x -[p]-> y, y -[r]-> z, p in {}, r in {}",
                    star_regex(rng),
                    star_regex(rng)
                )
            } else {
                format!(
                    "q(x, u) :- x -[p]-> y, y -[r]-> z, z -[s]-> u, p in {}, r in {}, s in {}",
                    star_regex(rng),
                    star_regex(rng),
                    star_regex(rng)
                )
            }
        }
        2 => format!(
            "q(w, z) :- w -[p1]-> x, x -[p2]-> y, y -[p3]-> z, \
             w -[c1]-> y, x -[c2]-> z, w -[c3]-> z, \
             p1 in {}, p2 in {}, p3 in {}, \
             c1 in (a|b)*, c2 in (a|b)*, c3 in (a|b)*",
            star_regex(rng),
            star_regex(rng),
            star_regex(rng)
        ),
        3 => format!(
            "q(x, z) :- x -[p1]-> y, x -[p2]-> y, y -[r]-> z, eq_len(p1, p2), \
             p1 in {}, p2 in {}, r in {}",
            finite_regex(rng),
            finite_regex(rng),
            star_regex(rng)
        ),
        4 => format!(
            "q(x) :- x -[p0]-> y, x -[p1]-> y, x -[p2]-> y, eq_len(p0, p1, p2), \
             p0 in {}, p1 in {}, p2 in {}",
            finite_regex(rng),
            finite_regex(rng),
            finite_regex(rng)
        ),
        5 => format!(
            "q(x, y, z) :- x -[p]-> y, x -[r]-> z, p in {}, r in {}, prefix(p, r)",
            finite_regex(rng),
            finite_regex(rng)
        ),
        6 => format!(
            "q(x, y) :- x -[p]-> y, x -[r]-> y, p in {}, r in {}, hamming<=1(p, r)",
            finite_regex(rng),
            finite_regex(rng)
        ),
        _ => {
            let r = star_regex(rng);
            if rng.gen_bool(0.5) {
                format!(
                    "q(x, y) :- x -[p]-> y, x -[r]-> y, x -[s]-> y, p in {r}, eq(p, r), eq(r, s)"
                )
            } else {
                format!(
                    "q(x, y) :- x -[p]-> y, x -[r]-> y, x -[s]-> y, x -[t]-> y, \
                     p in {r}, eq(p, r), eq(r, s), eq(s, t)"
                )
            }
        }
    }
}

/// A whitespace / formatting variant of `text` that parses to the same
/// query: a different raw cache key with the same canonical rendering.
pub fn respell(text: &str, rng: &mut SmallRng) -> String {
    match rng.gen_range(0..3) {
        0 => text.replace(", ", ",  "),
        1 => text.replacen(" :- ", "  :-\t", 1),
        _ => text.replace(" -[", "  -[").replace("]-> ", "]->  "),
    }
}
