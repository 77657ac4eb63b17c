"""Regenerate perfbench/reference.json, the known answers the benchmark checks.

Run from the repository root:

    python3 perfbench/make_reference.py

Answers come from paths independent of the code being timed where one
exists: each sweep argmax is recounted with the brute-force oracle, and
path homomorphism counts come from the walk count below.  The LP solutions
and the construct output are the current exact results, recorded so that a
faster implementation must reproduce them bit for bit.  Takes about a
minute.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from altpaths import cli, constructions, covering, ecgraph, entropy, homcount  # noqa: E402
import workloads as W  # noqa: E402

# H3_large glued-support sizes admitted to the entropy pool: every host of
# these two classes glues under the budget, and the two classes are drawn
# from equally so the work per pass does not depend on the seed.
ENTROPY_CLASSES = (16384, 23328)


def walk_count(length: int, g: ecgraph.EdgeColouredGraph) -> int:
    """hom(alternating path of `length` edges, g) by counting coloured walks."""
    adj = g.adjacency()
    ways = [1] * g.n
    for i in range(length):
        colour = constructions.spine_colour(i)
        ways = [sum(ways[w] for w in adj[v][colour]) for v in range(g.n)]
    return sum(ways)


def glued_support(forest, g) -> int:
    """Size of the glued distribution's support, by a tree count over the
    spine-conditional supports (no enumeration)."""
    spine = constructions.alternating_path(forest.spine_edges)
    marg = entropy.PathMarginals(spine, g)
    total = 1
    for order in entropy._forest_bfs_orders(forest):
        children: dict[int, list[int]] = {}
        for v, parent in order[1:]:
            children.setdefault(parent, []).append(v)

        def count(v, image):
            ways = 1
            for c in children.get(v, ()):
                cond = marg.conditional(forest.phi[c], forest.phi[v])
                ways *= sum(count(c, b) for b in cond.get(image, {}))
            return ways

        root = order[0][0]
        total *= sum(count(root, w) for w in marg.single_counts[forest.phi[root]])
    return total


def run_cli(argv, report: Path) -> dict:
    rc = cli.main(["--workers", "1", "--json", str(report), *argv])
    if rc != cli.EXIT_PASS:
        raise SystemExit(f"reference command failed with exit {rc}: {argv}")
    return json.loads(report.read_text(encoding="ascii"))


def sweep(tmp: Path) -> dict:
    out = {}
    for label, flags in W.SWEEP_COMMANDS.items():
        report = run_cli(["bound-check", *flags, "--exhaustive", str(W.SWEEP_N)], tmp / "r.json")
        rec = report["records"][0]
        k = int(flags[2])
        pattern = constructions.alternating_path(2 * k if flags[0] == "--even" else 2 * k + 1)
        host = ecgraph.host_from_index(W.SWEEP_N, rec["index"])
        brute = homcount.hom_brute(pattern, host)
        if Fraction(rec["max_density"]) * W.SWEEP_N**pattern.n != brute:
            raise SystemExit(f"{label}: brute recount {brute} disagrees with {rec['max_density']}")
        out[label] = {key: rec[key] for key in ("max_density", "index", "argmax", "bound")}
        out[label]["brute_hom"] = brute
        out[label]["pattern_vertices"] = pattern.n
    return out


def certify(tmp: Path) -> dict:
    forest_path = tmp / "h.ecg"
    report = run_cli(["construct", "--k", str(W.CONSTRUCT_K), "--out", str(forest_path)], tmp / "r.json")
    construct = {key: report[key] for key in ("vertices", "edges", "multiplicity")}
    for suffix, key in ((".ecg", "ecg_sha256"), (".roles", "roles_sha256")):
        construct[key] = hashlib.sha256(forest_path.with_suffix(suffix).read_bytes()).hexdigest()
    host = ecgraph.host_from_index(4, W.PROBE_HOM_HOST)
    value = walk_count(W.PROBE_HOM_EDGES, host)
    return {
        "construct": construct,
        "probe_hom": {"host": host.canonical_key(), "value": str(value)},
    }


def lp(tmp: Path) -> dict:
    plain = {}
    for k in W.LP_PLAIN_KS:
        report = run_cli(["lp-search", "--k", str(k)], tmp / "r.json")
        plain[str(k)] = {key: report[key] for key in ("t", "x", "y", "z", "multiplicity")}
    return {"plain": plain}


def entropy_pool() -> dict:
    fixtures = {name: constructions.fixture(name) for name in W.ENTROPY_FIXTURES}
    lengths = sorted({f.spine_edges for f in fixtures.values()})
    pool = []
    for index in range(ecgraph.host_count(W.ENTROPY_HOST_N)):
        g = ecgraph.host_from_index(W.ENTROPY_HOST_N, index)
        homs = {str(n): walk_count(n, g) for n in lengths}
        if not all(homs.values()):
            continue       # an empty spine makes entropy-check a trivial pass
        states = glued_support(fixtures["H3_large"], g)
        if states in ENTROPY_CLASSES:
            pool.append({"index": index, "hom": homs, "H3_large_states": states})
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for entry in pool:
            host = Path(tmp) / "g.ecg"
            ecgraph.write_ecg(ecgraph.host_from_index(W.ENTROPY_HOST_N, entry["index"]), host)
            for name in W.ENTROPY_FIXTURES:
                argv = ["--budget", str(W.ENTROPY_BUDGET), "entropy-check", "--fixture", name,
                        "--host", str(host)]
                glued = run_cli(argv, Path(tmp) / "r.json")["glued_ok"]
                # H5 is refused by design; the H3 forests must glue exactly.
                if glued is not (None if name == "H5" else True):
                    raise SystemExit(f"{name} on host {entry['index']}: glued_ok {glued}")
    return {
        "budget": W.ENTROPY_BUDGET,
        "spine_edges": {name: f.spine_edges for name, f in fixtures.items()},
        "multiplicity": {
            name: covering.cover_profile(f).uniform_multiplicity for name, f in fixtures.items()
        },
        "pool": pool,
    }


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        reference = {
            "sweep": sweep(Path(tmp)),
            "certify": certify(Path(tmp)),
            "lp": lp(Path(tmp)),
            "entropy": entropy_pool(),
        }
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
