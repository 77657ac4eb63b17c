"""Discrete entropy engine over exact rational distributions.

Probabilities are exact ``Fraction`` values end to end; only the final
log2 evaluations are floating point, so identities between entropy
expressions hold to log-evaluation accuracy (~1e-12 per term) rather than
accumulating distributional round-off.

The homomorphism-specific machinery: the uniform distribution on the set
of path homomorphisms, its single/pairwise spine marginals (computed by a
forward/backward walk count, no enumeration needed), the glued
distribution that extends a random spine homomorphism over a decorated
forest one conditionally-independent vertex at a time, and the closed-form
entropy of that gluing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional

from .constructions import LabelledForest, homomorphism_violation
from .ecgraph import BudgetExceeded, EdgeColouredGraph, require_valid
from .homcount import forest_orders, rooted_tables

ENUM_GUARD = 10**7


class EmptySupport(ValueError):
    """Raised when a distribution over homomorphisms has nothing to carry."""


def _log2(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


class DiscreteDistribution:
    """Finite outcome -> exact-rational-probability map summing to one."""

    def __init__(self, prob: Mapping[Hashable, Fraction | int]):
        cleaned = {}
        total = Fraction(0)
        for outcome, p in prob.items():
            p = Fraction(p)
            if p < 0:
                raise ValueError(f"negative probability for {outcome!r}")
            total += p
            cleaned[outcome] = p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._prob = cleaned

    def probability(self, outcome) -> Fraction:
        return self._prob.get(outcome, Fraction(0))

    def outcomes(self):
        return self._prob.keys()

    def support(self) -> list:
        return [o for o, p in self._prob.items() if p > 0]

    def items(self):
        return self._prob.items()

    def marginal(self, indices: Iterable[int]) -> "DiscreteDistribution":
        """Marginal over the given coordinate positions of tuple outcomes."""
        idx = tuple(indices)
        out: dict = {}
        for outcome, p in self._prob.items():
            key = tuple(outcome[i] for i in idx)
            out[key] = out.get(key, Fraction(0)) + p
        return DiscreteDistribution(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        mine = {o: p for o, p in self._prob.items() if p > 0}
        theirs = {o: p for o, p in other._prob.items() if p > 0}
        return mine == theirs

    def __len__(self) -> int:
        return len(self.support())


def uniform(outcomes: Iterable[Hashable]) -> DiscreteDistribution:
    pool = list(outcomes)
    if not pool:
        raise EmptySupport("cannot build a uniform distribution on nothing")
    p = Fraction(1, len(pool))
    return DiscreteDistribution({o: p for o in pool})


def entropy(d: DiscreteDistribution) -> float:
    """Shannon entropy in bits; 0 log 0 handled by summing the support."""
    return -sum(float(p) * _log2(p) for _, p in d.items() if p > 0)


def _entropy_of(probs: Iterable[Fraction]) -> float:
    return -sum(float(p) * _log2(p) for p in probs if p > 0)


def conditional_entropy(joint: DiscreteDistribution) -> float:
    """H(X | Y) for a joint over (x, y) pairs, by its defining average.

    The chain-rule identity H(X,Y) = H(Y) + H(X|Y) is recomputed as a
    self-check on every call.
    """
    by_y: dict = {}
    for (x, y), p in joint.items():
        if p > 0:
            by_y.setdefault(y, {})[x] = p
    value = 0.0
    for y, slice_ in by_y.items():
        p_y = sum(slice_.values())
        value += float(p_y) * _entropy_of(p / p_y for p in slice_.values())
    h_joint = entropy(joint)
    h_y = _entropy_of(sum(s.values()) for s in by_y.values())
    if abs(value - (h_joint - h_y)) > 1e-12 * max(1.0, abs(h_joint)):
        raise ArithmeticError("chain-rule self-check failed in conditional_entropy")
    return value


def glue(joint: DiscreteDistribution) -> DiscreteDistribution:
    """Extend a joint over (a, b1, b2, c) with a glued coordinate c'.

    Requires b1 and b2 identically distributed.  The result is the joint
    over (a, b1, b2, c, c') in which c' is drawn from the law of c given
    b2 = b1, conditionally independent of everything else given b1.  Its
    (b1, c') marginal equals the (b2, c) marginal exactly.
    """
    if joint.marginal([1]) != joint.marginal([2]):
        raise ValueError("glueing requires identically distributed b1 and b2")
    b2_totals: dict = {}
    c_given_b2: dict = {}
    for (_, _, b2, c), p in joint.items():
        if p > 0:
            b2_totals[b2] = b2_totals.get(b2, Fraction(0)) + p
            key = (b2, c)
            c_given_b2[key] = c_given_b2.get(key, Fraction(0)) + p
    out: dict = {}
    for (a, b1, b2, c), p in joint.items():
        if p == 0:
            continue
        for (b2v, cp), q in c_given_b2.items():
            if b2v == b1:
                out[(a, b1, b2, c, cp)] = p * q / b2_totals[b1]
    return DiscreteDistribution(out)


# -- uniform homomorphism distributions ------------------------------------

def _path_colours(p: EdgeColouredGraph) -> list:
    """Edge colours of a pattern that is a path in vertex-index order."""
    require_valid(p)
    if p.n < 2:
        raise ValueError("path pattern needs at least one edge")
    expected = [(i, i + 1) for i in range(p.n - 1)]
    actual = [(u, v) for u, v, _ in p.edges]
    if actual != expected:
        raise ValueError("pattern is not a path in vertex-index order")
    return [c for _, _, c in p.edges]


def _walk_tables(p: EdgeColouredGraph, g: EdgeColouredGraph):
    """Partial-homomorphism counts along the path, from both ends.

    forward[i][w] counts maps of v_0..v_i with v_i -> w and backward[i][w]
    likewise towards the far end: the rooted tables of the path rooted at
    v_length and at v_0.  Their product counts full homomorphisms through w.
    """
    colours = _path_colours(p)
    length = len(colours)
    reversed_p = EdgeColouredGraph.make(
        p.n, [(length - 1 - i, length - i, c) for i, c in enumerate(colours)]
    )
    forward = rooted_tables(reversed_p, g)[::-1]
    backward = rooted_tables(p, g)
    return colours, forward, backward


class PathMarginals:
    """Single and pairwise spine marginals of a uniform path homomorphism."""

    def __init__(self, p: EdgeColouredGraph, g: EdgeColouredGraph):
        colours, forward, backward = _walk_tables(p, g)
        self.length = len(colours)
        self.hom = sum(forward[-1])
        if self.hom == 0:
            raise EmptySupport("pattern has no homomorphisms into the host")
        n = g.n
        gadj = g.adjacency()
        self.single_counts = [
            {w: forward[i][w] * backward[i][w] for w in range(n) if forward[i][w] * backward[i][w]}
            for i in range(self.length + 1)
        ]
        self.pair_counts = []
        for i in range(self.length):
            counts = {}
            for w in range(n):
                if not forward[i][w]:
                    continue
                for w2 in gadj[w][colours[i]]:
                    cnt = forward[i][w] * backward[i + 1][w2]
                    if cnt:
                        counts[(w, w2)] = cnt
            self.pair_counts.append(counts)

    def single_entropy(self, i: int) -> float:
        return _entropy_of(Fraction(c, self.hom) for c in self.single_counts[i].values())

    def pair_entropy(self, i: int) -> float:
        return _entropy_of(Fraction(c, self.hom) for c in self.pair_counts[i].values())

    def conditional(self, child_spine: int, parent_spine: int) -> dict:
        """P(X_child = b | X_parent = a) as {a: {b: Fraction}} for adjacent
        spine positions."""
        lo, hi = min(child_spine, parent_spine), max(child_spine, parent_spine)
        if hi - lo != 1:
            raise ValueError("conditional requires adjacent spine positions")
        table: dict = {}
        for (w_lo, w_hi), cnt in self.pair_counts[lo].items():
            a, b = (w_lo, w_hi) if parent_spine == lo else (w_hi, w_lo)
            table.setdefault(a, {})[b] = cnt
        return {
            a: {b: Fraction(c, self.single_counts[parent_spine][a]) for b, c in row.items()}
            for a, row in table.items()
        }


def uniform_hom_distribution(
    p: EdgeColouredGraph, g: EdgeColouredGraph, guard: int = ENUM_GUARD
) -> DiscreteDistribution:
    """Uniform distribution on Hom(p, g), outcomes being image tuples."""
    colours, forward, _ = _walk_tables(p, g)
    total = sum(forward[-1])
    if total == 0:
        raise EmptySupport("pattern has no homomorphisms into the host")
    if total > guard:
        raise BudgetExceeded(
            f"{total} homomorphisms exceed the enumeration guard {guard}", required=total
        )
    gadj = g.adjacency()
    tuples = []
    stack = [(w,) for w in range(g.n)]
    while stack:
        partial = stack.pop()
        i = len(partial) - 1
        if i == len(colours):
            tuples.append(partial)
            continue
        for w2 in gadj[partial[-1]][colours[i]]:
            stack.append(partial + (w2,))
    assert len(tuples) == total
    return uniform(sorted(tuples))


def path_entropy_formula(p: EdgeColouredGraph, g: EdgeColouredGraph) -> float:
    """Sum of pairwise entropies minus interior single entropies.

    For a uniform homomorphism of a path this equals log2(hom(p, g)).
    """
    marg = PathMarginals(p, g)
    pairs = sum(marg.pair_entropy(i) for i in range(marg.length))
    singles = sum(marg.single_entropy(i) for i in range(1, marg.length))
    return pairs - singles


# -- gluing over a labelled forest ------------------------------------------

def _forest_bfs_orders(h: LabelledForest) -> list[list[tuple[int, Optional[int]]]]:
    """Per component (ordered by root), (vertex, parent) pairs in BFS order;
    roots are the minimum-index vertex of each component."""
    return forest_orders(h.graph)


def glued_distribution(
    h: LabelledForest,
    p: EdgeColouredGraph,
    g: EdgeColouredGraph,
    guard: int = ENUM_GUARD,
) -> DiscreteDistribution:
    """Distribution over V(h) -> V(g) built by repeated gluing.

    Roots follow the marginal of their spine image; every other vertex
    follows the conditional law of its spine image given its parent's,
    independent across components.  All probabilities are exact; the
    support is contained in Hom(h, g) by construction.
    """
    bad = homomorphism_violation(h)
    if bad is not None:
        raise ValueError(f"phi is not a homomorphism: edge {bad}")
    marg = PathMarginals(p, g)
    if marg.length != h.spine_edges:
        raise ValueError("path length does not match the forest's spine")
    hom_total = marg.hom

    component_supports = []
    total_states = 1
    for order in _forest_bfs_orders(h):
        # assignments: map vertex -> image, with exact probability
        states: list[tuple[dict, Fraction]] = []
        root, _ = order[0]
        for w, cnt in marg.single_counts[h.phi[root]].items():
            states.append(({root: w}, Fraction(cnt, hom_total)))
        for v, parent in order[1:]:
            cond = marg.conditional(h.phi[v], h.phi[parent])
            new_states = []
            for assignment, prob in states:
                a = assignment[parent]
                for b, q in cond[a].items():
                    ext = dict(assignment)
                    ext[v] = b
                    new_states.append((ext, prob * q))
            states = new_states
            if len(states) * total_states > guard:
                raise BudgetExceeded(
                    f"glued support exceeds guard {guard}",
                    required=len(states) * total_states,
                )
        component_supports.append(states)
        total_states *= len(states)
        if total_states > guard:
            raise BudgetExceeded(
                f"glued support exceeds guard {guard}", required=total_states
            )

    out: dict = {}
    full: list[tuple[dict, Fraction]] = [({}, Fraction(1))]
    for states in component_supports:
        full = [
            ({**acc, **assignment}, p_acc * p_new)
            for acc, p_acc in full
            for assignment, p_new in states
        ]
    for assignment, prob in full:
        key = tuple(assignment[v] for v in range(h.graph.n))
        out[key] = out.get(key, Fraction(0)) + prob
    return DiscreteDistribution(out)


def closed_form_entropy(
    h: LabelledForest, p: EdgeColouredGraph, g: EdgeColouredGraph
) -> float:
    """Entropy of the glued distribution, from spine marginals alone.

    Equals sum over forest edges of the pairwise image entropy minus
    sum over forest vertices of (degree - 1) times the single image
    entropy.  Needs only the marginals, so it scales to forests far past
    the reach of explicit gluing.
    """
    bad = homomorphism_violation(h)
    if bad is not None:
        raise ValueError(f"phi is not a homomorphism: edge {bad}")
    forest_orders(h.graph)              # raises NotAForest on a cycle
    marg = PathMarginals(p, g)
    if marg.length != h.spine_edges:
        raise ValueError("path length does not match the forest's spine")
    pair_h = [marg.pair_entropy(i) for i in range(marg.length)]
    single_h = [marg.single_entropy(i) for i in range(marg.length + 1)]
    degree = [0] * h.graph.n
    value = 0.0
    for u, v, _ in h.graph.edges:
        degree[u] += 1
        degree[v] += 1
        value += pair_h[min(h.phi[u], h.phi[v])]
    for v in range(h.graph.n):
        value -= (degree[v] - 1) * single_h[h.phi[v]]
    return value
