//! ECRPQ satisfiability (existence of *some* database with `D ⊨ q`).
//!
//! For Boolean ECRPQs satisfiability is decidable — in contrast with
//! CRPQ+Rational, where the paper recalls it is undecidable — because an
//! ECRPQ is satisfiable iff **every merged relation is non-empty**:
//!
//! * if some component's merged relation (Lemma 4.1) is empty, no
//!   assignment can satisfy its atoms;
//! * conversely, pick a witness tuple `(w₁,…,w_k)` per component, map
//!   every node variable to a single vertex `v`, and take as database the
//!   bouquet of simple cycles at `v` spelling each `wᵢ`: each path
//!   variable follows its word's cycle, satisfying every atom.
//!
//! [`satisfiable`] returns that canonical witness database (checkable with
//! any evaluator), or `None`.

use crate::prepare::PreparedQuery;
use ecrpq_graph::GraphDb;
use ecrpq_query::{Ecrpq, QueryError};

/// Decides satisfiability; on success returns the canonical witness
/// database (a bouquet of label cycles on one vertex).
///
/// # Errors
/// Propagates validation errors from the query.
pub fn satisfiable(query: &Ecrpq) -> Result<Option<GraphDb>, QueryError> {
    // lint:allow(cold-path): a witness check over the merged automata, not an evaluation path
    let prepared = PreparedQuery::build(query)?;
    let mut witnesses = Vec::with_capacity(prepared.atoms.len());
    for atom in &prepared.atoms {
        match atom.rel.witness() {
            Some(w) => witnesses.push(w),
            None => return Ok(None),
        }
    }
    // Build the bouquet database.
    let mut db = GraphDb::with_alphabet(query.alphabet().clone());
    let v = db.add_node("v");
    let mut fresh = 0usize;
    for tuple in witnesses {
        for word in tuple {
            let mut cur = v;
            for (i, &s) in word.iter().enumerate() {
                let next = if i + 1 == word.len() {
                    v
                } else {
                    fresh += 1;
                    db.add_node(&format!("c{fresh}"))
                };
                db.add_edge_sym(cur, s, next);
                cur = next;
            }
        }
    }
    Ok(Some(db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::eval_product;
    use ecrpq_automata::{relations, Alphabet};
    use std::sync::Arc;

    fn check_sat(q: &Ecrpq, expect: bool) {
        let result = satisfiable(q).unwrap();
        assert_eq!(result.is_some(), expect, "satisfiability of {q}");
        if let Some(db) = result {
            // the witness database must actually satisfy the query
            let prepared = PreparedQuery::build(q).unwrap();
            assert!(eval_product(&db, &prepared), "witness db fails for {q}");
        }
    }

    #[test]
    fn satisfiable_queries() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        q.rel_atom("el", Arc::new(relations::eq_length_min(2, 2, 3)), &[p1, p2]);
        check_sat(&q, true);
    }

    #[test]
    fn unsatisfiable_by_empty_relation() {
        // prefix(p1,p2) ∧ prefix(p2,p1) ∧ hamming=0?? — build an actually
        // empty merged relation: eq_len_min(·,·,1) ∩ (both empty via word ε)
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        // p1 must read exactly "a" and p2 exactly "b", but also p1 = p2
        q.rel_atom("w1", Arc::new(relations::word_relation(&[0], 2)), &[p1]);
        q.rel_atom("w2", Arc::new(relations::word_relation(&[1], 2)), &[p2]);
        q.rel_atom("eq", Arc::new(relations::equality(2)), &[p1, p2]);
        check_sat(&q, false);
    }

    #[test]
    fn conflicting_lengths_unsat() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        q.rel_atom("w1", Arc::new(relations::word_relation(&[0, 0], 2)), &[p1]);
        q.rel_atom("w2", Arc::new(relations::word_relation(&[1], 2)), &[p2]);
        q.rel_atom("el", Arc::new(relations::eq_length(2, 2)), &[p1, p2]);
        check_sat(&q, false);
    }

    #[test]
    fn unconstrained_query_satisfiable_with_empty_paths() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.path_atom(x, "p", y);
        let db = satisfiable(&q).unwrap().unwrap();
        // witness db: one vertex, no edges needed (ε-path)
        assert_eq!(db.num_nodes(), 1);
    }

    #[test]
    fn multi_component_witness() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom(
            "w1",
            Arc::new(relations::word_relation(&[0, 1, 0], 2)),
            &[p1],
        );
        q.rel_atom("w2", Arc::new(relations::word_relation(&[1, 1], 2)), &[p2]);
        check_sat(&q, true);
        let db = satisfiable(&q).unwrap().unwrap();
        // cycles of lengths 3 and 2 share the base vertex
        assert_eq!(db.num_nodes(), 1 + 2 + 1);
        assert_eq!(db.num_edges(), 5);
    }
}
