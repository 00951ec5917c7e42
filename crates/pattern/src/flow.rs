//! Causal-flow validation.
//!
//! A pattern has *causal flow* `(f, ≺)` (Danos–Kashefi) when there is a
//! map `f` from measured nodes to neighbors and a partial order `≺` with:
//!
//! 1. `u ∼ f(u)` (adjacency),
//! 2. `u ≺ f(u)`,
//! 3. `u ≺ w` for every `w ∈ N(f(u)) \ {u}`.
//!
//! Flow guarantees the pattern is deterministic under the standard X/Z
//! correction scheme. The transpiler constructs `f` as the wire
//! successor; this module checks the order conditions are satisfiable
//! (the constraint DAG is acyclic) and that explicit orders respect them.

use mbqc_graph::NodeId;

use crate::Pattern;

/// Returns `true` if the pattern's flow constraints admit a valid
/// measurement order (i.e. the constraint digraph is acyclic).
///
/// # Examples
///
/// ```
/// use mbqc_circuit::bench;
/// use mbqc_pattern::{flow, transpile};
///
/// let p = transpile::transpile(&bench::qft(4));
/// assert!(flow::has_causal_flow(&p));
/// ```
#[must_use]
pub fn has_causal_flow(pattern: &Pattern) -> bool {
    pattern.flow_constraints().is_acyclic()
}

/// Checks that `order` is a valid execution order for the pattern:
/// it contains every measured node exactly once and respects all flow
/// constraints with measured targets.
#[must_use]
pub fn verify_order(pattern: &Pattern, order: &[NodeId]) -> bool {
    let n = pattern.node_count();
    let mut pos = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        if u.index() >= n || pos[u.index()] != usize::MAX || !pattern.is_measured(u) {
            return false;
        }
        pos[u.index()] = i;
    }
    let measured_count = (0..n)
        .filter(|&i| pattern.is_measured(NodeId::new(i)))
        .count();
    if order.len() != measured_count {
        return false;
    }
    let constraints = pattern.flow_constraints();
    for (u, v) in constraints.edges() {
        // Constraints targeting unmeasured (output) nodes are trivially
        // satisfied: outputs are never consumed mid-run.
        if pattern.is_measured(u) && pattern.is_measured(v) && pos[u.index()] >= pos[v.index()] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transpile::transpile;
    use mbqc_circuit::{bench, Circuit};

    #[test]
    fn transpiled_patterns_have_flow() {
        for c in [bench::qft(6), bench::vqe(6, 2), bench::rca(6)] {
            let p = transpile(&c);
            assert!(has_causal_flow(&p));
        }
    }

    #[test]
    fn measurement_order_verifies() {
        let p = transpile(&bench::qft(5));
        let order = p.measurement_order();
        assert!(verify_order(&p, &order));
    }

    #[test]
    fn shuffled_order_fails() {
        let mut c = Circuit::new(1);
        c.t(0).h(0).t(0);
        let p = transpile(&c);
        let mut order = p.measurement_order();
        assert!(order.len() >= 2);
        order.reverse();
        assert!(!verify_order(&p, &order));
    }

    #[test]
    fn order_with_duplicates_fails() {
        let mut c = Circuit::new(1);
        c.t(0).h(0).t(0);
        let p = transpile(&c);
        let order = p.measurement_order();
        assert!(order.len() >= 2);
        let mut dup = order.clone();
        dup[0] = dup[order.len() - 1];
        assert!(!verify_order(&p, &dup));
    }

    #[test]
    fn incomplete_order_fails() {
        let mut c = Circuit::new(1);
        c.t(0).h(0).t(0);
        let p = transpile(&c);
        let mut order = p.measurement_order();
        order.pop();
        assert!(!verify_order(&p, &order));
    }

    #[test]
    fn empty_pattern_accepts_empty_order() {
        let c = Circuit::new(2);
        let p = transpile(&c);
        assert!(verify_order(&p, &[]));
    }
}
