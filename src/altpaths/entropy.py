"""Discrete entropy engine over exact rational distributions.

A distribution is integer weights over one denominator, so probabilities
are exact end to end; only the final log2 evaluations are floating point,
so identities between entropy expressions hold to log-evaluation accuracy
(~1e-12 per term) rather than accumulating distributional round-off.

The homomorphism-specific machinery: the uniform distribution on the set
of path homomorphisms, its single/pairwise spine marginals (computed by a
forward/backward walk count, no enumeration needed), the glued
distribution that extends a random spine homomorphism over a decorated
forest one conditionally-independent vertex at a time, and the closed-form
entropy of that gluing.  The gluing counts its states before it builds
any, carries each state as a tuple of images with one integer weight, and
crosses the components' weights into one list.  Every glued state is a
distinct outcome, so the entropy is read from that list alone; the image
tuples are crossed and keyed by outcome only when something reads them.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import product, repeat, starmap
from operator import add, countOf, itemgetter, mul
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping, Optional

from .constructions import LabelledForest, homomorphism_violation
from .ecgraph import BudgetExceeded, EdgeColouredGraph, require_valid
from .homcount import forest_orders, rooted_tables

ENUM_GUARD = 10**6


class EmptySupport(ValueError):
    """Raised when a distribution over homomorphisms has nothing to carry."""


class DiscreteDistribution:
    """Finite outcome -> exact-rational-probability map summing to one.

    Held as integer weights over one positive denominator: outcome o has
    probability _mass[o] / _denominator.  Outcomes, support, length,
    marginals, equality and entropy are read from the weights.  A glued
    distribution holds its weights as the list _weights and builds _mass
    on first read, from _keys(), its outcomes in the weights' order.
    """

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
        den = math.lcm(*(p.denominator for p in cleaned.values()))
        self._mass = {o: p.numerator * (den // p.denominator) for o, p in cleaned.items()}
        self._denominator = den

    @classmethod
    def from_weights(
        cls, weights: Mapping[Hashable, int], denominator: int
    ) -> "DiscreteDistribution":
        """Outcome -> w / denominator, for nonnegative integer weights that
        sum to the denominator; checked in integers, in the mapping's order.
        The distribution keeps a copy of the mapping."""
        d = cls._checked(weights.values(), denominator, weights.items)
        d._mass = dict(weights)
        return d

    @classmethod
    def _checked(cls, values: Collection[int], denominator: int, items: Callable) -> "DiscreteDistribution":
        """A distribution over the denominator with no weights set, once the
        weights ``values`` are checked to be nonnegative integers that sum
        to it; ``items()`` gives the (outcome, weight) pairs, and is read
        only to name a bad weight."""
        if not isinstance(denominator, int) or denominator <= 0:
            raise ValueError(f"denominator {denominator!r} is not a positive integer")
        if not (all(map(isinstance, values, repeat(int))) and min(values, default=0) >= 0):
            for outcome, w in items():
                if not isinstance(w, int) or w < 0:
                    raise ValueError(f"weight {w!r} for {outcome!r} is not a nonnegative integer")
        total = sum(values)
        if total != denominator:
            raise ValueError(f"weights sum to {total}, not the denominator {denominator}")
        d = cls.__new__(cls)
        d._denominator = denominator
        return d

    def __getattr__(self, name: str):
        # Reached only for an attribute missing from the instance: the keyed
        # mass of a glued distribution before its first read.
        keys = self.__dict__.get("_keys")
        if name != "_mass" or keys is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = self._weights
        with _collector_held():
            mass = dict(zip(keys(), weights))
        if len(mass) != len(weights):
            raise ArithmeticError(f"{len(weights)} glued weights have {len(mass)} distinct outcomes")
        self._mass = mass
        del self._keys, self._weights
        return mass

    def probability(self, outcome) -> Fraction:
        return Fraction(self._mass.get(outcome, 0), self._denominator)

    def outcomes(self):
        return self._mass.keys()

    def support(self) -> list:
        return [o for o, w in self._mass.items() if w]

    def items(self):
        return [(o, Fraction(w, self._denominator)) for o, w in self._mass.items()]

    def marginal(self, indices: Iterable[int]) -> "DiscreteDistribution":
        """Marginal over the given coordinate positions of tuple outcomes."""
        idx = tuple(indices)
        out: dict = {}
        for outcome, w in self._mass.items():
            key = tuple(outcome[i] for i in idx)
            out[key] = out.get(key, 0) + w
        return DiscreteDistribution.from_weights(out, self._denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        mine = {o: w * other._denominator for o, w in self._mass.items() if w}
        theirs = {o: w * self._denominator for o, w in other._mass.items() if w}
        return mine == theirs

    def __len__(self) -> int:
        return len(self._mass) - countOf(self._mass.values(), 0)


def uniform(outcomes: Iterable[Hashable]) -> DiscreteDistribution:
    pool = list(outcomes)
    if not pool:
        raise EmptySupport("cannot build a uniform distribution on nothing")
    return DiscreteDistribution.from_weights(dict.fromkeys(pool, 1), len(pool))


def entropy(d: DiscreteDistribution) -> float:
    """Shannon entropy in bits; 0 log 0 handled by summing the support.
    A glued distribution whose outcomes are not yet keyed is read from its
    weight list, which is in the order of the keyed weights."""
    weights = d.__dict__.get("_weights")
    return _entropy_of_weights(d._mass.values() if weights is None else weights, d._denominator)


def _entropy_of_weights(weights: Collection[int], den: int) -> float:
    """-sum of p log2(p) over the positive weights w, p = w/den, in order.

    Each term takes n = w/g and m = den/g with g = gcd(w, den), the pair
    Fraction(w, den).as_integer_ratio() gives, so the float is the one the
    defining sum over exact probabilities gives.  A term is computed once
    per distinct weight and the terms are summed in the weights' order.
    """
    log2, gcd = math.log2, math.gcd
    term = {}
    for w in set(weights):
        if w:
            g = gcd(w, den)
            n, m = w // g, den // g
            term[w] = n / m * (log2(n) - log2(m))
    return -sum(map(term.__getitem__, filter(None, weights)))


def _conditional_rows(counts: Mapping[Hashable, Mapping[Hashable, int]]):
    """({a: [(b, c * (L // t(a)))]}, L) for counts {a: {b: c}}, with t(a)
    the total of row a and L the lcm of the totals: the law of b given a,
    as integers over one denominator L."""
    totals = {a: sum(row.values()) for a, row in counts.items()}
    lcm = math.lcm(*totals.values())
    rows = {
        a: [(b, c * (lcm // totals[a])) for b, c in row.items()]
        for a, row in counts.items()
    }
    return rows, lcm


def conditional_entropy(joint: DiscreteDistribution) -> float:
    """H(X | Y) for a joint over (x, y) pairs, by its defining average.

    The chain-rule identity H(X,Y) = H(Y) + H(X|Y) is recomputed as a
    self-check on every call.
    """
    by_y: dict = {}
    for (x, y), w in joint._mass.items():
        if w:
            by_y.setdefault(y, {})[x] = w
    den = joint._denominator
    totals = [sum(slice_.values()) for slice_ in by_y.values()]
    value = 0.0
    for slice_, w_y in zip(by_y.values(), totals):
        value += w_y / den * _entropy_of_weights(slice_.values(), w_y)
    h_joint = entropy(joint)
    h_y = _entropy_of_weights(totals, den)
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
    c_given_b2: dict = {}
    for (_, _, b2, c), w in joint._mass.items():
        if w:
            row = c_given_b2.setdefault(b2, {})
            row[c] = row.get(c, 0) + w
    rows, lcm = _conditional_rows(c_given_b2)
    out = {
        (a, b1, b2, c, cp): w * f
        for (a, b1, b2, c), w in joint._mass.items() if w
        for cp, f in rows[b1]
    }
    return DiscreteDistribution.from_weights(out, joint._denominator * lcm)


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
        return _entropy_of_weights(self.single_counts[i].values(), self.hom)

    def pair_entropy(self, i: int) -> float:
        return _entropy_of_weights(self.pair_counts[i].values(), self.hom)

    def conditional_counts(self, child_spine: int, parent_spine: int) -> dict:
        """{a: {b: count}} for adjacent spine positions: the homomorphisms
        with the parent position at a and the child position at b.  Row a
        sums to single_counts[parent_spine][a]."""
        lo, hi = min(child_spine, parent_spine), max(child_spine, parent_spine)
        if hi - lo != 1:
            raise ValueError("conditional requires adjacent spine positions")
        table: dict = {}
        for (w_lo, w_hi), cnt in self.pair_counts[lo].items():
            a, b = (w_lo, w_hi) if parent_spine == lo else (w_hi, w_lo)
            table.setdefault(a, {})[b] = cnt
        return table

    def conditional(self, child_spine: int, parent_spine: int) -> dict:
        """P(X_child = b | X_parent = a) as {a: {b: Fraction}} for adjacent
        spine positions."""
        singles = self.single_counts[parent_spine]
        return {
            a: {b: Fraction(c, singles[a]) for b, c in row.items()}
            for a, row in self.conditional_counts(child_spine, parent_spine).items()
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
    if len(tuples) != total:
        raise ArithmeticError(
            f"enumerated {len(tuples)} homomorphisms, the walk tables count {total}"
        )
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


def _weight_factors(marg: PathMarginals, child_spine: int, parent_spine: int):
    """The conditional law of the child's image given the parent's as
    integer rows over one denominator; row a totals the single count of a
    at parent_spine."""
    return _conditional_rows(marg.conditional_counts(child_spine, parent_spine))


def _state_counts(
    h: LabelledForest,
    marg: PathMarginals,
    orders: list,
    factors: dict,
    guard: int,
) -> list[int]:
    """The number of states of each component, counted without building one.

    Raises BudgetExceeded where building would: at the first breadth-first
    prefix whose state count times the states of the earlier components
    passes the guard, or after a component whose product does.  The count
    of a prefix is a tree count over the conditional supports: table[i][a]
    is the number of extensions of the subtree of order[i] added so far
    with order[i] at a, the product over its children c of
    share[c][a] = sum of table[c][b] over the b that row a allows.
    """
    widths = {
        step: {a: len(row) for a, row in rows.items()} for step, (rows, _) in factors.items()
    }
    targets = {
        step: {a: [b for b, _ in row] for a, row in rows.items()}
        for step, (rows, _) in factors.items()
    }
    counts = []
    total_states = 1
    for order in orders:
        position = {v: i for i, (v, _) in enumerate(order)}
        tables = [dict.fromkeys(marg.single_counts[h.phi[order[0][0]]], 1)]
        up = [None]           # per position: (parent position, targets, share)
        count = len(tables[0])
        for v, parent in order[1:]:
            step = h.phi[v], h.phi[parent]
            share = widths[step]
            tables.append(dict.fromkeys(marg.single_counts[h.phi[v]], 1))
            up.append((position[parent], targets[step], share))
            if any(s != 1 for s in share.values()):
                # The parent's table grows by this vertex's share; carry
                # the change up to the root, re-summing each ancestor's share.
                at = position[parent]
                table = tables[at]
                for a, s in share.items():
                    table[a] *= s
                while at:
                    above, rows, old = up[at]
                    new = {a: sum(map(table.__getitem__, row)) for a, row in rows.items()}
                    up[at] = above, rows, new
                    table = tables[above]
                    for a, s in new.items():
                        table[a] = table[a] // old[a] * s
                    at = above
                count = sum(table.values())
            if count * total_states > guard:
                raise BudgetExceeded(
                    f"glued support exceeds guard {guard}", required=count * total_states
                )
        counts.append(count)
        total_states *= count
        if total_states > guard:
            raise BudgetExceeded(f"glued support exceeds guard {guard}", required=total_states)
    return counts


@contextmanager
def _collector_held():
    """The cyclic collector off for the block, and on again after it only
    if it was on.  Glued states and keys are tuples the collector would walk
    again and again while they are allocated; none of them can be part of
    a cycle."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _glued_keys(parts: list, key_of: Callable) -> Iterator[tuple]:
    """The glued outcomes in the order of the glued weights: the component
    image lists crossed, earlier components outermost, and each crossed
    tuple put into vertex order."""
    images: Iterable[tuple] = [()]
    for component_images in parts:
        images = starmap(add, product(images, component_images))
    return map(key_of, images)


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

    A component state is (images in forest_orders order, integer weight).
    A root at w weighs single_counts[phi(root)][w] over hom(p).  A vertex v
    below a parent at a multiplies the weight by count(a, b) * (L // s(a))
    and the denominator by L, where s are the single counts at the parent's
    spine image and L is their lcm, so every weight shares one denominator.
    The guard is checked against the counted states after every vertex and
    every component (``_state_counts``) before any state is built.  Each
    component's weights are crossed in as it is built, earlier components
    outermost, and the weights are checked before the distribution is
    returned.  Its image lists are kept, and crossed and keyed in vertex
    order (``_glued_keys``) on the first read of the outcomes.
    """
    bad = homomorphism_violation(h)
    if bad is not None:
        raise ValueError(f"phi is not a homomorphism: edge {bad}")
    marg = PathMarginals(p, g)
    if marg.length != h.spine_edges:
        raise ValueError("path length does not match the forest's spine")

    orders = _forest_bfs_orders(h)
    spine_steps = {(h.phi[v], h.phi[u]) for order in orders for v, u in order[1:]}
    factors = {step: _weight_factors(marg, *step) for step in spine_steps}
    with _collector_held():
        counts = _state_counts(h, marg, orders, factors, guard)
        parts = []
        weights = [1]
        denominator = 1
        for order, count in zip(orders, counts):
            position = {v: i for i, (v, _) in enumerate(order)}
            root = order[0][0]
            states = [((w,), cnt) for w, cnt in marg.single_counts[h.phi[root]].items()]
            denominator *= marg.hom
            for v, parent in order[1:]:
                rows, lcm = factors[h.phi[v], h.phi[parent]]
                at = position[parent]
                states = [
                    (built + (b,), weight * f)
                    for built, weight in states
                    for b, f in rows[built[at]]
                ]
                denominator *= lcm
            if len(states) != count:
                raise ArithmeticError(f"built {len(states)} component states, the tree count is {count}")
            # Cross the weights in; every per-state step runs in C.
            component_images, component_weights = zip(*states)
            parts.append(component_images)
            weights = starmap(mul, product(weights, component_weights))
        weights = list(weights)

    walked = {v: i for i, (v, _) in enumerate(pair for order in orders for pair in order)}
    perm = [walked[v] for v in range(h.graph.n)]
    keys = partial(_glued_keys, parts, itemgetter(*perm) if len(perm) > 1 else tuple)
    d = DiscreteDistribution._checked(weights, denominator, lambda: zip(keys(), weights))
    d._weights = weights
    d._keys = keys
    return d


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
