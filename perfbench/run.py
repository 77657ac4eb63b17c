"""altpaths benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Passes of the workload repeat until --seconds is used up, then the last
line of stdout is one JSON object with the verdict counts and the metrics:
end-to-end ones with --trace 0, per-layer ones with --trace 1.  A readable
table, the run metadata and any failed units go to stderr, and a record of
the run is written under .perfbench_work/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
SETUP_PROBES = 5
TRACED_PROBES = 10     # probes just before and after a traced pass
MIN_PASSES = 2
MODULES = ("ecgraph", "homcount", "constructions", "covering", "entropy", "lpsearch", "verify", "cli")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no reference)."""


def setup(workload: str, seed: int, work: Path):
    """Import the package, generate the seeded inputs, load the reference."""
    if not (SRC / "altpaths" / "cli.py").is_file():
        raise BenchError(f"no altpaths sources under {SRC}")
    ref_path = BENCH / "reference.json"
    for path in (ref_path, ROOT / "BENCHMARK.json"):
        if not path.is_file():
            raise BenchError(f"missing {path}")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import altpaths
    import workloads

    if Path(altpaths.__file__).resolve().parent != SRC / "altpaths":
        raise BenchError(f"imported altpaths from {altpaths.__file__}, not from {SRC}")
    reference = json.loads(ref_path.read_text(encoding="ascii"))
    for label, entry in reference["sweep"].items():
        if Fraction(entry["max_density"]) * workloads.SWEEP_N ** entry["pattern_vertices"] != entry["brute_hom"]:
            raise BenchError(f"reference for {label} is inconsistent with its brute recount")
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return workloads.WORKLOADS[workload](seed, work, reference)


def scaled_setup(args) -> float:
    """Set-up time of this interpreter at nominal machine speed.

    Probes run before and after the set-up, and every 100 ms inside it.
    """
    sys.path.insert(0, str(BENCH))
    from pacer import Pacer

    work = WORK / f"setup-{args.workload}-{os.getpid()}"
    try:
        with Pacer() as pacer:
            pacer.sample(SETUP_PROBES)
            start = time.perf_counter()
            setup(args.workload, args.seed, work)
            seconds = time.perf_counter() - start
            pacer.sample(SETUP_PROBES)
        return (seconds - pacer.probe_seconds(start, start + seconds)) / pacer.slowdown(
            pacer.times[0], pacer.times[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cold_setup_seconds(args) -> list[float]:
    """Scaled set-up time of fresh interpreters, each importing from scratch."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def metadata() -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "altpaths").glob("*.py")))
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def pass_summary(units) -> dict:
    totals = {"ok": 0, "refused": 0, "failed": 0, "wrong": 0}
    for u in units:
        totals[u.status] += u.weight
    return totals


def layer_metrics(tracer, lo: int, hi: int, wall: float, speed: float) -> dict:
    """Per-layer figures of one traced pass (spans [lo, hi)).

    Times are scaled like verdict_s, by the machine speed over the pass.
    """
    stats = {
        name: (calls, incl * speed, own * speed)
        for name, (calls, incl, own) in tracer.self_times(lo, hi).items()
    }

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def module_self(prefix):
        return sum(s for name, (_, _, s) in stats.items() if name.split(".", 1)[0] == prefix)

    c = tracer.counters
    kernel_calls = calls("homcount.hom_forest", "homcount.hom_brute")
    pivots = calls("lpsearch._pivot")
    glued_s = incl("entropy.glued_distribution")
    m = {f"{mod}.self_s": module_self(mod) for mod in MODULES + ("bench",)}
    m.update({
        "ecgraph.decode_s": own("ecgraph.host_from_index"),
        "ecgraph.hosts": calls("ecgraph.host_from_index"),
        "ecgraph.io_s": own("ecgraph.format_ecg", "ecgraph.parse_ecg", "ecgraph.write_ecg",
                            "ecgraph.read_ecg", "constructions.format_roles", "constructions.parse_roles"),
        "homcount.calls": kernel_calls,
        "homcount.us_per_call": m["homcount.self_s"] / kernel_calls * 1e6 if kernel_calls else 0.0,
        "homcount.pattern_vertices": c.get("homcount.pattern_vertices", 0),
        "constructions.forest_vertices": c.get("constructions.forest_vertices", 0),
        "covering.tuples_s": own("covering.cover_profile"),
        "covering.arrays_s": own("covering.cover_profile_arrays"),
        "covering.blocks_s": own("covering.cover_profile_blocks"),
        "covering.profile_calls": calls("covering.cover_profile", "covering.cover_profile_arrays",
                                        "covering.cover_profile_blocks"),
        "verify.scan_s": own("verify._scan_chunk"),
        "verify.checks": calls("verify.check_eq_ph", "verify.check_eq_hp",
                               "verify.check_theorem_odd", "verify.check_theorem_even"),
        "lpsearch.build_s": incl("lpsearch.build_constraints"),
        "lpsearch.solve_s": incl("lpsearch.solve_feasible"),
        "lpsearch.pivots": pivots,
        "lpsearch.ms_per_pivot": incl("lpsearch._pivot") / pivots * 1e3 if pivots else 0.0,
        "entropy.glued_s": glued_s,
        "entropy.glued_states": c.get("entropy.glued_states", 0),
        "entropy.states_per_s": c.get("entropy.glued_states", 0) / glued_s if glued_s else 0.0,
        "entropy.refusals": c.get("entropy.refusals", 0),
        "entropy.marginals_s": incl("entropy.PathMarginals"),
        "entropy.closed_form_s": incl("entropy.closed_form_entropy"),
        "trace.verdict_s": wall * speed,
        "trace.spans": hi - lo,
    })
    return m


def install_tracer(tracer) -> None:
    from altpaths.ecgraph import BudgetExceeded
    from altpaths.entropy import PathMarginals

    def pattern_vertices(args, kwargs, result, exc):
        tracer.count("homcount.pattern_vertices", (args[0] if args else kwargs["h"]).n)

    def forest_vertices(args, kwargs, result, exc):
        if result is not None:
            tracer.count("constructions.forest_vertices", result.graph.n)

    def glued(args, kwargs, result, exc):
        if result is not None:
            tracer.count("entropy.glued_states", len(result.outcomes()))
        elif isinstance(exc, BudgetExceeded):
            tracer.count("entropy.refusals")

    modules = [importlib.import_module(f"altpaths.{name}") for name in MODULES]
    tracer.install(
        modules,
        {
            "homcount.hom_forest": pattern_vertices,
            "homcount.hom_brute": pattern_vertices,
            "constructions.materialise": forest_vertices,
            "entropy.glued_distribution": glued,
        },
        private=("verify._scan_chunk", "lpsearch._pivot"),
    )
    tracer.install_method(PathMarginals, "__init__", "entropy.PathMarginals")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(scaled_setup(args))
        return 0

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        try:
            workload = setup(args.workload, args.seed, work)
            setup_times = [] if args.trace else cold_setup_seconds(args)
        except (BenchError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        return measure(args, workload, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, setup_times) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    from pacer import NOMINAL_S, Pacer

    walls = {False: [], True: []}   # pass wall times, keyed by "traced"
    layers = []
    totals = {"ok": 0, "refused": 0, "failed": 0, "wrong": 0}
    ok_per_pass = 0
    command_times: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    problems = []
    start = time.perf_counter()
    with Pacer() as pacer:
        while True:
            traced = bool(tracer) and len(walls[False]) > len(walls[True])
            t0 = time.perf_counter()
            if traced:
                # No probe may interrupt a traced pass: its time would land
                # in the self time of whatever span it interrupted.
                pacer.pause()
                pacer.sample(TRACED_PROBES)
                install_tracer(tracer)
                tracer.counters = {}
                lo = tracer.mark()
                t0 = time.perf_counter()
                units = tracer.wrap(workload.run_pass, "bench.pass")()
                wall = time.perf_counter() - t0
                tracer.restore()
                pacer.sample(TRACED_PROBES)
                pacer.resume()
                speed = 1 / pacer.slowdown(t0 - 1, t0 + wall + 1)
                layers.append(layer_metrics(tracer, lo, tracer.mark(), wall, speed))
            else:
                units = workload.run_pass()
                wall = time.perf_counter() - t0
                for u in units:
                    command_times.setdefault(u.label, []).append(u.seconds)
                    scaled.setdefault(u.label, []).append(pacer.scaled(u.started, u.seconds))
            walls[traced].append(wall)
            summary = pass_summary(units)
            for key in totals:
                totals[key] += summary[key]
            ok_per_pass = summary["ok"]
            problems.extend(f"{u.label}: {u.status} {u.detail}" for u in units if u.status in ("failed", "wrong"))
            elapsed = time.perf_counter() - start
            if tracer:
                done = bool(walls[False]) and bool(walls[True])
            else:
                done = len(walls[False]) >= MIN_PASSES
            if done and elapsed + statistics.median(walls[False] + walls[True]) > args.seconds:
                break
        speeds = [NOMINAL_S / d for d in pacer.durations]

    attempted = sum(totals.values())
    failed = totals["failed"] + totals["wrong"]
    verdict = sum(statistics.median(v) for v in scaled.values())
    end_to_end = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "verdict_s": verdict,
        "units_per_s": ok_per_pass / verdict,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": totals["ok"] / attempted,
    }
    metrics = end_to_end
    if tracer:
        metrics = {
            name: statistics.median(layer[name] for layer in layers) for name in layers[0]
        }
        metrics["trace.overhead_s"] = metrics["trace.verdict_s"] - verdict
        metrics["failed_share"] = failed / attempted
        metrics["refused_share"] = totals["refused"] / attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units_of = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    result = {
        "correct": totals["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(),
        "samples": {"untraced_passes": len(walls[False]), "traced_passes": len(walls[True]),
                    "setup_repeats": len(setup_times)},
        "pass_s": walls[False],
        "verdict_unscaled_s": sum(statistics.median(v) for v in command_times.values()),
        "traced_pass_s": walls[True],
        "setup_s": setup_times,
        "command_s": command_times,
        "command_scaled_s": scaled,
        "speed": {"samples": len(speeds), "median": statistics.median(speeds),
                  "quartiles": statistics.quantiles(speeds, n=4)},
        "problems": sorted(set(problems)),
        "end_to_end": end_to_end,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    if tracer:
        tracer.dump(WORK / f"spans-{stem}.npz")
    report(record, verdict)
    print(json.dumps(result))
    return 0


def report(record: dict, verdict: float) -> None:
    err = sys.stderr
    meta = record["meta"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"src {meta['src_lines']} lines, python {meta['python']}, numpy {meta['numpy']}, "
          f"nproc {meta['nproc']}, commit {meta['commit']}", file=err)
    s = record["samples"]
    print(f"  verdict_s {verdict:.4f} s scaled, {record['verdict_unscaled_s']:.4f} s unscaled, over"
          f" {s['untraced_passes']} untraced passes ({s['traced_passes']} traced)", file=err)
    sp = record["speed"]
    print(f"  machine speed {sp['median']:.3f} of nominal (quartiles {sp['quartiles'][0]:.3f},"
          f" {sp['quartiles'][2]:.3f}; {sp['samples']} samples)", file=err)
    for label, secs in record["command_s"].items():
        scaled = record["command_scaled_s"].get(label)
        print(f"  command {label:<24} {statistics.median(secs):9.4f} s unscaled"
              + (f", {statistics.median(scaled):9.4f} s scaled" if scaled else "")
              + f", median of {len(secs)}", file=err)
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:<30} {m['value']:14.6g} {m['unit']}", file=err)
    if record["trace"]:
        print("  end to end, from the untraced passes (peak_rss_mb includes the spans):", file=err)
        for name, value in record["end_to_end"].items():
            if value is not None:
                print(f"  {name:<30} {value:14.6g}", file=err)
    for line in record["problems"]:
        print(f"  unit {line}", file=err)


if __name__ == "__main__":
    sys.exit(main())
