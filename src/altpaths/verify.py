"""Exact checks of the path-vs-forest density inequalities on concrete hosts.

Both directions relate t(P, G) and t(H, G) through fractional powers.  A
record states each check with the exponents cleared by cross-exponentiation,
as a comparison of two explicit rationals.  The verdict is decided at the
e(P)-th root of that comparison: H covers P uniformly m times, so
e(H) = m e(P) and v(H) = m v(P), x -> x^e(P) is increasing on x >= 0, and
the root is a comparison of integers built from hom(P, G) and hom(H, G),
equivalent to the powered one and with no power of e(P) in it.  The powered
sides are formed only when something reads them.  There is no floating
point anywhere.  Theorem bounds, the circulant tightness family, exhaustive
host sweeps and the finite-n algebraic expansion identity round out the
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .constructions import LabelledForest, alternating_path
from .covering import cover_profile
from .ecgraph import (
    RED,
    BudgetExceeded,
    EdgeColouredGraph,
    _complete_adjacencies,
    _host_adjacencies,
    host_count,
    host_from_index,
    parallel_map,
    symmetric_residues,
    worker_count,
)
from .homcount import _plan, _plan_hom, density, hom_forest, is_forest


def digits(n: int) -> str:
    """The decimal digits of n, as str(n) gives them.  Decimal is not held
    to Python's int-to-str digit limit (4,300 by default), so an exact count
    or density of any size prints instead of raising ValueError."""
    return str(Decimal(n))


def fraction_text(q: Fraction) -> str:
    return f"{digits(q.numerator)}/{digits(q.denominator)}"


class InequalityReport:
    """One check lhs <= rhs on one host, whose verdict ``holds`` is fixed
    when the report is made: for the forest checks at the e(P)-th root, in
    integers.  lhs and rhs, the sides every record prints (powered, for the
    forest checks), are formed by ``sides`` on the first read of either, so
    reading ``holds`` alone forms no power of e(P).  Two reports are equal
    when their name, k, host and both sides are."""

    def __init__(
        self, name: str, k: int, host: str, holds: bool,
        sides: Callable[[], tuple[Fraction, Fraction]],
    ) -> None:
        self.name, self.k, self.host, self.holds = name, k, host, holds
        self._form_sides = sides

    @cached_property
    def _sides(self) -> tuple[Fraction, Fraction]:
        return self._form_sides()

    lhs = property(lambda self: self._sides[0])
    rhs = property(lambda self: self._sides[1])

    def _key(self) -> tuple:
        return self.name, self.k, self.host, self._sides

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, InequalityReport) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    def record(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "host": self.host,
            "lhs": fraction_text(self.lhs),
            "rhs": fraction_text(self.rhs),
            "holds": self.holds,
        }


def bound_odd(k: int) -> Fraction:
    """Density ceiling for the odd alternating path: k^k (k+1)^(k+1) / (2k+1)^(2k+1)."""
    if k < 0:
        raise ValueError(f"pattern k must be nonnegative, got {k}")
    return Fraction(k**k * (k + 1) ** (k + 1), (2 * k + 1) ** (2 * k + 1))


def bound_even(k: int) -> Fraction:
    """Density ceiling for the even alternating path: (1/2)^(2k)."""
    if k < 0:
        raise ValueError(f"pattern k must be nonnegative, got {k}")
    return Fraction(1, 4**k)


@lru_cache(maxsize=8)
def _bound_power(k: int, exponent: int) -> Fraction:
    """bound_odd(k)^exponent: at exponent m-1 the forest-vs-path scale of the
    root comparison, at e(H)-e(P) that of the powered record; the same for
    every host and every call on one forest."""
    return bound_odd(k) ** exponent


class _HostCounts:
    """One host's integer figures for both density inequalities of a forest
    H covering P = P_{2k+1} uniformly m times, so e(H) = m e(P) and
    v(H) = m v(P).  t(H)^e(P), which both powered reports print, is formed
    once, on first read."""

    def __init__(self, k: int, m: int, g: EdgeColouredGraph, hom_p: int, hom_h: int) -> None:
        self.k, self.m, self.key, self.n = k, m, g.canonical_key(), g.n
        self.hom_p, self.hom_h = hom_p, hom_h

    @property
    def t_p(self) -> Fraction:
        return Fraction(self.hom_p, self.n ** (2 * self.k + 2))

    @cached_property
    def t_h_e_p(self) -> Fraction:
        return Fraction(self.hom_h, self.n ** (self.m * (2 * self.k + 2))) ** (2 * self.k + 1)


def _densities(
    h: LabelledForest, k: int, hosts: Iterable[EdgeColouredGraph]
) -> Iterator[_HostCounts]:
    """Per host: hom(P, G) and hom(H, G), the counts both density
    inequalities are decided from.

    Both need a uniformly covering spine homomorphism, of multiplicity m,
    checked once, before the first host, together with the sizes
    e(H) = m e(P) and v(H) = m v(P) that the root comparisons rest on;
    hom(P) and hom(H) are counted once per host.
    """
    if h.spine_edges != 2 * k + 1:
        raise ValueError(f"forest spine has {h.spine_edges} edges, expected {2 * k + 1}")
    profile = cover_profile(h)
    m = profile.uniform_multiplicity
    if m is None:
        raise ValueError(
            "forest covering is not uniform; the density comparison needs a "
            f"uniformly covering spine homomorphism (profile {profile})"
        )
    spine = alternating_path(2 * k + 1)
    sizes = (h.graph.num_edges(), h.graph.n)
    if sizes != (m * spine.num_edges(), m * spine.n):
        raise ValueError(
            f"forest has {sizes[0]} edges and {sizes[1]} vertices, not {m} times "
            f"the path's {spine.num_edges()} and {spine.n}"
        )
    for g in hosts:
        if g.n == 0:
            raise ValueError("density undefined for a host with no vertices")
        # hom_forest, not hom(): H must be a forest, and hom() would brute-force a cyclic H.
        counts = _HostCounts(k, m, g, hom_forest(spine, g), hom_forest(h.graph, g))
        del g       # a host drawn as it is read is freed before the next is drawn
        yield counts


def _path_vs_forest(c: _HostCounts) -> InequalityReport:
    """t(P)^(1/e(P)) <= t(H)^(1/e(H)), printed as t(P)^e(H) <= t(H)^e(P).

    Its e(P)-th root is t(P)^m <= t(H); with n^v(H) = (n^v(P))^m cleared
    from both sides, that is hom(P, G)^m <= hom(H, G).
    """
    e_p = 2 * c.k + 1
    holds = c.hom_p**c.m <= c.hom_h
    return InequalityReport("path-vs-forest", c.k, c.key, holds, lambda: (c.t_p ** (c.m * e_p), c.t_h_e_p))


def _forest_vs_path(c: _HostCounts) -> InequalityReport:
    """t(H) <= a^(e(H)-e(P)) t(P), where a = b^(1/e(P)) is irrational and
    b = bound_odd(k); printed raised to the power e(P) = 2k+1, as
    t(H)^e(P) <= b^(e(H)-e(P)) t(P)^e(P).

    Its e(P)-th root is t(H) <= b^(m-1) t(P); with b^(m-1) = N/D and
    n^v(H) cleared, that is hom(H, G) D <= N hom(P, G) n^(v(H)-v(P)).
    With hom(P, G) = 0 the bound is 0 on either form, and no scale is formed.
    """
    e_p = 2 * c.k + 1
    if not c.hom_p:
        return InequalityReport("forest-vs-path", c.k, c.key, c.hom_h == 0, lambda: (c.t_h_e_p, Fraction(0)))
    scale = _bound_power(c.k, c.m - 1)
    holds = c.hom_h * scale.denominator <= scale.numerator * c.hom_p * c.n ** ((c.m - 1) * (e_p + 1))
    return InequalityReport(
        "forest-vs-path", c.k, c.key, holds,
        lambda: (c.t_h_e_p, _bound_power(c.k, (c.m - 1) * e_p) * c.t_p**e_p),
    )


def check_inequalities(
    h: LabelledForest, k: int, hosts: Iterable[EdgeColouredGraph]
) -> list[InequalityReport]:
    """Both density inequalities on each host, path-vs-forest then
    forest-vs-path per host, from one count of hom(P) and hom(H) per host."""
    reports = []
    for counts in _densities(h, k, hosts):
        reports += (_path_vs_forest(counts), _forest_vs_path(counts))
    return reports


def check_eq_ph(h: LabelledForest, k: int, g: EdgeColouredGraph) -> InequalityReport:
    """The path-vs-forest half of check_inequalities on one host."""
    return _path_vs_forest(next(_densities(h, k, [g])))


def check_eq_hp(h: LabelledForest, k: int, g: EdgeColouredGraph) -> InequalityReport:
    """The forest-vs-path half of check_inequalities on one host."""
    return _forest_vs_path(next(_densities(h, k, [g])))


def check_theorem_odd(k: int, g: EdgeColouredGraph) -> InequalityReport:
    t_p, bound = density(alternating_path(2 * k + 1), g), bound_odd(k)
    return InequalityReport("theorem-odd", k, g.canonical_key(), t_p <= bound, lambda: (t_p, bound))


def check_theorem_even(k: int, g: EdgeColouredGraph) -> InequalityReport:
    t_p, bound = density(alternating_path(2 * k), g), bound_even(k)
    return InequalityReport("theorem-even", k, g.canonical_key(), t_p <= bound, lambda: (t_p, bound))


# -- tightness along the circulant family -----------------------------------

@dataclass(frozen=True)
class TightnessPoint:
    n: int
    red_degree: int
    density: Fraction
    gap: Fraction       # bound - density

    def record(self) -> dict:
        return {
            "n": self.n,
            "red_degree": self.red_degree,
            "density": fraction_text(self.density),
            "gap": fraction_text(self.gap),
            "note": "",
        }


def tightness_curve(k: int, n_list: Sequence[int]) -> list[TightnessPoint]:
    """Exact odd-path densities on the best circulant of each size.

    Every vertex of a circulant of red degree d starts d^(k+1) (n-1-d)^k
    alternating walks, so its density d^(k+1) (n-1-d)^k / n^(2k+1) is read
    off that closed form, with no host built; it is unimodal in d with real
    optimum (k+1)(n-1)/(2k+1).  The admissible degrees (those with a
    negation-closed residue set: any degree on even n, even degrees on odd n)
    nearest that optimum on each side are both evaluated, and the one of
    larger density is kept, the lower on a tie.  Both walks stop inside
    0..n-1: degree 0 is admissible, and so is n-1, which the optimum never
    exceeds.  A size below 1 raises ValueError.
    """
    bound = bound_odd(k)
    points = []
    for n in n_list:
        if n < 1:
            raise ValueError(f"host size must be >= 1, got {n}")
        optimum = Fraction((k + 1) * (n - 1), 2 * k + 1)
        below, above = math.floor(optimum), math.ceil(optimum)
        while symmetric_residues(n, below) is None:
            below -= 1
        while symmetric_residues(n, above) is None:
            above += 1
        t = {d: Fraction(d ** (k + 1) * (n - 1 - d) ** k, n ** (2 * k + 1)) for d in (below, above)}
        degree = max(sorted(t), key=t.__getitem__)
        points.append(TightnessPoint(n, degree, t[degree], bound - t[degree]))
    return points


# -- exhaustive extremal search ----------------------------------------------

@dataclass(frozen=True)
class MaxResult:
    density: Fraction
    host: EdgeColouredGraph
    index: int                 # counter index of the argmax


def _scan_chunk(args) -> tuple[int, int]:
    """The largest hom over counter indices start..stop-1 and the first index
    attaining it; the scan ends at the first index whose hom is ``target``,
    the maximum over all hosts, since no later index can beat it."""
    pattern, n, start, stop, target = args
    plan = _plan(pattern)
    best_hom = -1
    best_index = -1
    for index, gadj in enumerate(_host_adjacencies(n, start, stop), start):
        value = _plan_hom(plan, gadj)
        if value > best_hom:
            best_hom = value
            best_index = index
            if value == target:
                break
    return best_hom, best_index


def exhaustive_max(
    pattern: EdgeColouredGraph, n: int, budget: int = 10**8, workers: int = 1
) -> MaxResult:
    """Maximum homomorphism density of the pattern over hosts on n vertices,
    exact, with the deterministic first-attaining argmax.  Refused when the
    3^(n(n-1)/2) host count exceeds the budget.

    The sweep first learns the maximum on the 2^(n(n-1)/2) complete
    2-coloured hosts.  Colouring an absent pair only adds homomorphisms, so
    that is the maximum over all hosts; the in-order scan of the 3-state
    counter then stops at the first index that attains it.
    """
    if not is_forest(pattern):
        raise ValueError("exhaustive search is implemented for forest patterns")
    total = host_count(n)
    if total > budget:
        raise BudgetExceeded(f"{total} hosts exceed budget {budget}", required=total)
    plan = _plan(pattern)
    target = max(_plan_hom(plan, gadj) for gadj in _complete_adjacencies(n))
    chunk_count = worker_count(workers, total)
    bounds = [total * i // chunk_count for i in range(chunk_count + 1)]
    chunks = [(pattern, n, bounds[i], bounds[i + 1], target) for i in range(chunk_count)]
    best_hom, best_index = -1, -1
    for value, index in parallel_map(_scan_chunk, chunks, workers):
        if value > best_hom:           # chunk order fixes the tie-break
            best_hom, best_index = value, index
    best_host = host_from_index(n, best_index)
    return MaxResult(density(pattern, best_host), best_host, best_index)


# -- the algebraic expansion identity ----------------------------------------

@dataclass(frozen=True)
class ExpansionReport:
    n: int
    alt_path: int        # hom of the red-blue-red path
    red_path: int        # hom of the all-red 3-edge path
    red_edge_sq: int     # hom(single red edge)^2
    red_walk: int        # hom of the all-red 2-edge path

    @property
    def holds(self) -> bool:
        return self.alt_path + self.red_path == self.red_edge_sq - self.red_walk


def expansion_identity(g: EdgeColouredGraph) -> ExpansionReport:
    """Exact finite-n form of the walk-splitting identity on complete hosts.

    Summing red-*-red walks over both middle colours telescopes to all
    ordered red-edge pairs minus the red two-walks through a shared middle
    vertex; that correction is the identity's exact lower-order term.
    """
    if len(g.edges) != g.n * (g.n - 1) // 2:
        raise ValueError("expansion identity requires a complete 2-coloured host")
    red_edge = EdgeColouredGraph.make(2, [(0, 1, RED)])
    red_walk = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, RED)])
    red_path3 = EdgeColouredGraph.make(4, [(0, 1, RED), (1, 2, RED), (2, 3, RED)])
    return ExpansionReport(
        g.n,
        hom_forest(alternating_path(3), g),
        hom_forest(red_path3, g),
        hom_forest(red_edge, g) ** 2,
        hom_forest(red_walk, g),
    )
