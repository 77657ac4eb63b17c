"""Command-line surface: reproducible batch workflows over the library.

Every subcommand is deterministic given its flags (seeds are explicit and
echoed into the reports).  Exit codes: 0 all checks passed, 1 a check
failed, 2 usage or input error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import constructions, covering, entropy, lpsearch, verify
from .ecgraph import (BudgetExceeded, enumerate_hosts, host_count, pair_count, random_hosts,
                      read_ecg, write_ecg)
from .homcount import density, hom, hom_forest

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write_forest(forest: constructions.LabelledForest, out: str) -> None:
    write_ecg(forest.graph, out)
    constructions.write_roles(forest, Path(out).with_suffix(".roles"))


_CONTAINERS = (dict, list, tuple)


def _scalars(values) -> bool:
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values)))


def _c_encode(value, pad: str) -> str:
    # With indent None, CPython encodes in C; the indent=1 line breaks go
    # into the item separator.  Only a separator puts a newline in the text,
    # because strings escape theirs.
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")).encode(value)


def _dumps(value, pad: str = "") -> str:
    """``json.dumps(value, indent=1, sort_keys=True)`` with every line after
    the first indented by ``pad``.  A container of scalars, and a list of
    such dicts, is encoded in one call of the C encoder."""
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    opening, closing = brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    inner = pad + " "
    if _scalars(value.values() if opening == "{" else value):
        text = _c_encode(value, inner)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    if opening == "{":
        # The encoder's own key text: a str, int, float, bool or None key.
        items = [f"{json.dumps({key: 0})[1:-4]}: {_dumps(item, inner)}"
                 for key, item in sorted(value.items())]
    elif (all(issubclass(kind, dict) for kind in set(map(type, value))) and all(map(len, value))
          and _scalars(chain.from_iterable(map(dict.values, value)))):
        # A list of nonempty dicts of scalars: a separator inside a dict
        # follows a scalar and precedes a key, one between dicts follows
        # "}" and precedes "{", so the replace finds exactly the latter.
        deep = inner + " "
        text = _c_encode(value, deep).replace(f"}},\n{deep}{{", f"\n{inner}}},\n{inner}{{\n{deep}")
        return f"[\n{inner}{{\n{deep}{text[2:-2]}\n{inner}}}\n{pad}]"
    else:
        items = [_dumps(item, inner) for item in value]
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closing}"


def _emit(args, payload: dict) -> None:
    """Write ``payload`` to the ``--json`` path, if one was given, as the
    bytes of ``json.dump(payload, fh, indent=1, sort_keys=True)`` and a
    newline.  The text is built before the file is opened, so a payload the
    encoder refuses (ValueError, TypeError) leaves no file."""
    if getattr(args, "json", None):
        text = _dumps(payload) + "\n"
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_construct(args) -> int:
    if args.fixture:
        forest = constructions.fixture(args.fixture)
    elif args.even:
        forest = constructions.build_h_even(args.k)
    else:
        forest = constructions.build_h_odd(args.k)
    _write_forest(forest, args.out)
    profile = covering.cover_profile(forest)
    print(
        f"wrote {args.out}: {forest.graph.n} vertices, "
        f"{forest.graph.num_edges()} edges, spine {forest.spine_edges}, "
        f"uniform multiplicity {profile.uniform_multiplicity}"
    )
    _emit(args, {
        "command": "construct",
        "out": args.out,
        "vertices": forest.graph.n,
        "edges": forest.graph.num_edges(),
        "multiplicity": profile.uniform_multiplicity,
    })
    return EXIT_PASS


def cmd_count(args) -> int:
    """``hom`` prints the exact count, ``density`` the exact density."""
    count, show = (hom, verify.digits) if args.command == "hom" else (density, verify.fraction_text)
    value = count(read_ecg(args.pattern), read_ecg(args.host), budget=args.budget, method=args.method)
    text = show(value)
    print(text)
    _emit(args, {"command": args.command, "value": text})
    return EXIT_PASS


def cmd_verify_covering(args) -> int:
    records = []
    all_ok = True
    for report in covering.verify_covering_range(
        args.k_max, method=args.method, workers=args.workers
    ):
        for line in report.lines():
            print(line)
        records.extend(report.records())
        all_ok = all_ok and report.ok
    _emit(args, {"command": "verify-covering", "k_max": args.k_max, "records": records, "pass": all_ok})
    return EXIT_PASS if all_ok else EXIT_CHECK_FAILED


# ``verify-ineq --hosts random`` refuses an ``--n-max`` with more pairs than
# this, whatever the budget, before any host is drawn.  A drawn host peaks at
# about 140 bytes per pair (``ru_maxrss`` above the interpreter, ``--k 1`` on
# one host of 0.37M and one of 1.5M pairs), so a host at the cap peaks near
# 1.1 GB.
_MAX_HOST_PAIRS = 8_000_000


def cmd_verify_ineq(args) -> int:
    if args.hosts == "random":
        if args.count < 1:
            raise ValueError(f"--count must be >= 1, got {args.count}")
        if args.n_max < 1:
            raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
        if (pairs := pair_count(args.n_max)) > args.budget:
            raise BudgetExceeded(f"{pairs} host pairs exceed budget {args.budget}", required=pairs)
        if pairs > _MAX_HOST_PAIRS:
            raise BudgetExceeded(
                f"{pairs} host pairs exceed the per-host cap of {_MAX_HOST_PAIRS}", required=pairs
            )
        hosts = random_hosts(args.count, args.n_max, args.seed)
    else:
        needed = host_count(args.n)
        if needed > args.budget:
            raise BudgetExceeded(
                f"{needed} hosts exceed budget {args.budget}", required=needed
            )
        hosts = enumerate_hosts(args.n)
    reports = verify.check_inequalities(constructions.build_h_odd(args.k), args.k, hosts)
    violations = 0
    for report in reports:
        if not report.holds:
            violations += 1
            print(f"VIOLATION {report.name} on {report.host}")
    mode = (
        f"random count={args.count} n_max={args.n_max} seed={args.seed}"
        if args.hosts == "random"
        else f"exhaustive n={args.n}"
    )
    print(f"verify-ineq k={args.k} {mode}: {len(reports)} checks, {violations} violations")
    if args.json:
        # A record prints the powered sides, so only a --json run forms them.
        shown = reports if args.hosts == "random" else reports[:200]
        _emit(args, {
            "command": "verify-ineq",
            "k": args.k,
            "mode": mode,
            "seed": args.seed,
            "checks": len(reports),
            "violations": violations,
            "records": [report.record() for report in shown],
            "pass": violations == 0,
        })
    return EXIT_PASS if violations == 0 else EXIT_CHECK_FAILED


def cmd_bound_check(args) -> int:
    k = args.pattern_k
    bound = verify.bound_even(k) if args.even else verify.bound_odd(k)
    records = []
    ok = True
    if args.exhaustive is not None:
        pattern = constructions.alternating_path(2 * k if args.even else 2 * k + 1)
        result = verify.exhaustive_max(
            pattern, args.exhaustive, budget=args.budget, workers=args.workers
        )
        ok = result.density <= bound
        print(
            f"bound-check n={args.exhaustive}: max density "
            f"{verify.fraction_text(result.density)} vs bound "
            f"{verify.fraction_text(bound)} -> {'ok' if ok else 'VIOLATED'}"
        )
        print(f"argmax host: {result.host.canonical_key()} (index {result.index})")
        records.append({
            "max_density": verify.fraction_text(result.density),
            "bound": verify.fraction_text(bound),
            "argmax": result.host.canonical_key(),
            "index": result.index,
            "holds": ok,
        })
    else:
        n_list = [int(s) for s in args.tightness.split(",")]
        if args.even:
            print("tightness curve is defined for the odd family", file=sys.stderr)
            return EXIT_USAGE
        points = verify.tightness_curve(k, n_list)
        for pt in points:
            print(
                f"n={pt.n}: red_degree={pt.red_degree} "
                f"t={verify.fraction_text(pt.density)} "
                f"gap={float(pt.gap):.6f}"
            )
            records.append(pt.record())
        # Judged by n, not by the order the sizes were given in.
        judged = sorted(points, key=lambda pt: pt.n)
        ok = all(pt.gap >= 0 for pt in judged)
        if judged and judged[0].n != judged[-1].n:
            ok = ok and judged[-1].gap < judged[0].gap
    _emit(args, {"command": "bound-check", "records": records, "pass": ok})
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _rational(value, what: str) -> Fraction:
    """A finite rational from a JSON number or a string such as "3/4"."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{what} {value!r} in extra row is not a finite rational") from None


def _load_extra_rows(path: str, k: int) -> list[lpsearch.LpRow]:
    names = lpsearch.variable_names(k)
    index = {name: i for i, name in enumerate(names)}
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(isinstance(entry, dict) for entry in data):
        raise ValueError("extra rows must be a JSON list of objects")
    rows = []
    for entry in data:
        if not isinstance(entry.get("coeffs"), dict):
            raise ValueError(f"extra row {entry!r} has no 'coeffs' object")
        coeffs = [Fraction(0)] * len(names)
        for name, value in entry["coeffs"].items():
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in extra row")
            coeffs[index[name]] = _rational(value, f"coefficient of {name}")
        rhs = _rational(entry.get("rhs", 0), "rhs")
        rows.append(lpsearch.LpRow(tuple(coeffs), entry.get("relation", "="), rhs))
    return rows


def cmd_lp_search(args) -> int:
    extra = _load_extra_rows(args.extra, args.k) if args.extra else ()
    problem = lpsearch.build_constraints(args.k, extra)
    solution = lpsearch.solve_feasible(problem)
    if not solution.feasible:
        print(f"lp-search k={args.k}: infeasible")
        _emit(args, {"command": "lp-search", "k": args.k, "status": "infeasible", "pass": False})
        return EXIT_CHECK_FAILED
    triple = lpsearch.scale_to_integers(solution)
    t_value = solution.assignment[lpsearch.t_index(args.k)]
    print(f"lp-search k={args.k}: feasible, t = {verify.fraction_text(t_value)}")
    print(f"x = {triple.x}")
    print(f"y = {triple.y}")
    print(f"z = {triple.z}")
    plan = constructions.plan_odd(args.k, triple)
    mult = covering.cover_profile_blocks(2 * args.k + 1, plan).uniform_multiplicity
    print(f"synthesised covering: uniform multiplicity {mult}")
    if args.out:
        _write_forest(constructions.materialise(2 * args.k + 1, plan), args.out)
        print(f"wrote {args.out}")
    _emit(args, {
        "command": "lp-search",
        "k": args.k,
        "status": "feasible",
        "t": verify.fraction_text(t_value),
        "x": list(triple.x),
        "y": list(triple.y),
        "z": list(triple.z),
        "multiplicity": mult,
        "pass": mult is not None,
    })
    return EXIT_PASS if mult is not None else EXIT_CHECK_FAILED


def cmd_entropy_check(args) -> int:
    forest = constructions.fixture(args.fixture)
    host = read_ecg(args.host)
    spine = constructions.alternating_path(forest.spine_edges)
    hom_p = hom_forest(spine, host)
    if hom_p == 0:
        print("spine has no homomorphisms into the host; nothing to check")
        _emit(args, {"command": "entropy-check", "hom": 0, "pass": True})
        return EXIT_PASS
    mult = covering.cover_profile(forest).uniform_multiplicity
    closed = entropy.closed_form_entropy(forest, spine, host)
    expected = mult * math.log2(hom_p)
    ok = abs(closed - expected) <= 1e-9
    print(
        f"entropy-check {args.fixture}: hom(spine)={hom_p}, multiplicity={mult}, "
        f"closed-form {closed:.12f} vs {expected:.12f} -> {'ok' if ok else 'MISMATCH'}"
    )
    glued_ok = None
    try:
        glued = entropy.glued_distribution(
            forest, spine, host, guard=min(args.budget, entropy.ENUM_GUARD)
        )
        glued_entropy = entropy.entropy(glued)
        glued_ok = abs(glued_entropy - closed) <= 1e-9
        print(f"glued entropy {glued_entropy:.12f} -> {'ok' if glued_ok else 'MISMATCH'}")
        ok = ok and glued_ok
    except BudgetExceeded as exc:
        print(f"glued distribution skipped: {exc}")
    _emit(args, {
        "command": "entropy-check",
        "fixture": args.fixture,
        "hom": hom_p,
        "multiplicity": mult,
        "closed_form": closed,
        "glued_ok": glued_ok,
        "pass": ok,
    })
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altpaths",
        description="exact alternating-path density toolkit",
    )
    parser.add_argument("--budget", type=int, default=10**8, help="work cap for enumerations")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers for sweeps")
    parser.add_argument("--json", help="write a machine-readable report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a forest and write .ecg + .roles")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--even", action="store_true")
    p.add_argument("--fixture", choices=constructions.FIXTURE_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    for name in ("hom", "density"):
        p = sub.add_parser(name, help=f"{name} of pattern in host")
        p.add_argument("--pattern", required=True)
        p.add_argument("--host", required=True)
        p.add_argument("--method", choices=["auto", "brute", "forest"], default="auto")
        p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify-covering", help="formula-vs-count covering checks")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--method", choices=["auto", "tuples", "arrays", "blocks"], default="auto")
    p.set_defaults(func=cmd_verify_covering)

    p = sub.add_parser("verify-ineq", help="both density inequalities on hosts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--hosts", choices=["random", "exhaustive"], required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=cmd_verify_ineq)

    p = sub.add_parser("bound-check", help="theorem bounds: exhaustive max or tightness")
    p.add_argument("--pattern-k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--odd", action="store_true")
    group.add_argument("--even", action="store_true")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", type=int)
    mode.add_argument("--tightness", help="comma-separated host sizes")
    p.set_defaults(func=cmd_bound_check)

    p = sub.add_parser("lp-search", help="re-derive sequence vectors by exact LP")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--extra", help="JSON file of additional rows")
    p.add_argument("--out", help="write the synthesised forest here")
    p.set_defaults(func=cmd_lp_search)

    p = sub.add_parser("entropy-check", help="closed-form and glued entropy on a host")
    p.add_argument("--fixture", choices=constructions.FIXTURE_NAMES, required=True)
    p.add_argument("--host", required=True)
    p.set_defaults(func=cmd_entropy_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.budget < 0:
            raise ValueError(f"--budget must be >= 0, got {args.budget}")
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
