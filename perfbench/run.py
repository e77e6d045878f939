"""The braidpoly benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload ladder|analyze|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the package from ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), so each timed word
is evaluated once per process.  With ``--trace 0`` the run starts with
:data:`SETUP_SAMPLES` set-up-only interpreters, then repeats the workload's
passes until ``S`` seconds have gone (at least :data:`MIN_PASSES` times) and
reports the end-to-end metrics from each operation's median time over the
passes.  Times are scaled to a reference host speed (see ``probe.py``); the
printed notes give the raw wall figures too.  With ``--trace 1`` it
alternates an untraced and a traced pass of the workload's own command
instead and reports the per-layer metrics; the first traced pass writes its
spans and per-word work counts to ``perfbench/out/<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed operation
makes the exit code 1; a pass that cannot run at all makes it 2, with no
result line.  See README.md for the workloads and the metric table.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from words import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
MIN_PASSES = 2  # each operation is timed at least this often in a --trace 0 run
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170.0  # every run ends inside 180 s, child processes included

# name -> unit; ``failed_frac`` is printed too but is carried in the result
# line by ``attempted`` and ``failed``.
END_TO_END = {
    "setup_s": "s",
    "words_per_s": "words/s",
    "word_ms_p50": "ms",
    "word_ms_p90": "ms",
    "descending_s": "s",
    "ascending_s": "s",
    "jaeger_s": "s",
    "jaeger_dual_s": "s",
    "peak_rss_mb": "MB",
}
_METHOD_METRICS = {
    "descending": "descending_s",
    "ascending": "ascending_s",
    "jaeger": "jaeger_s",
    "jaeger-dual": "jaeger_dual_s",
}
COUNTS = (
    "resolver.homfly_calls",
    "resolver.homfly_calls_per_word",
    "resolver.leaves",
    "resolver.nodes",
    "jaeger.homfly_jaeger_calls",
    "jaeger.partitions",
)
PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.argparse_s": "s",
    "braid.parse_s": "s",
    "braid.classify_s": "s",
    "braid.word_build_s": "s",
    "braid.markov_variants_s": "s",
    "resolver.homfly_calls": "count",
    "resolver.homfly_calls_per_word": "calls/word",
    "resolver.homfly_s": "s",
    "resolver.leaves": "count",
    "resolver.nodes": "count",
    "resolver.nodes_per_s": "1/s",
    "resolver.enumerate_leaves_s": "s",
    "jaeger.homfly_jaeger_calls": "count",
    "jaeger.homfly_jaeger_s": "s",
    "jaeger.partitions": "count",
    "jaeger.partitions_per_s": "1/s",
    "jaeger.verify_bijection_s": "s",
    "invariants.mfw_self_s": "s",
    "invariants.certificate_self_s": "s",
    "invariants.alexander_self_s": "s",
    "invariants.witness_s": "s",
    "polynomial.substitute_alexander_s": "s",
    "polynomial.format_s": "s",
    "polynomial.arith_s": "s",
    "checks.skein_self_s": "s",
    "checks.markov_self_s": "s",
    "checks.mirror_self_s": "s",
    "checks.bijection_self_s": "s",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_frac": "ratio",
}


class PassError(RuntimeError):
    """A worker could not run a pass (no sources, a crash, the time limit)."""


def _worker(workload, seed, kind, trace, tiny, deadline, out=None):
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass", kind,
        "--trace", str(int(trace)), "--tiny", str(int(tiny)),
    ]
    if out:
        argv += ["--out", str(out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} {kind} pass passed the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise PassError(f"{workload} {kind} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _per_op(docs, key="op_scaled_s") -> list[float]:
    """Each operation's median time over the passes that ran it.

    Every pass runs the same operations in the same order, each pass in its
    own process, so operation k of one pass repeats operation k of another.
    """
    return [statistics.median(times) for times in zip(*(d[key] for d in docs))]


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[int(q * len(ordered))]


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload: (result line, printed notes, failures, traced passes)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def go(kind, traced=False, out=None):
        return _worker(workload, seed, kind, traced, tiny, deadline, out)

    setups = [] if trace else [go("setup") for _ in range(SETUP_SAMPLES)]
    main_docs, method_docs, traced_docs = [], [], []
    while True:
        main_docs.append(go("main"))
        if trace:
            # the first traced pass writes its spans and per-word work counts
            name = f"{workload}-seed{seed}{'-tiny' if tiny else ''}.json"
            traced_docs.append(go("main", traced=True, out=None if traced_docs else OUT / name))
        elif workload != "ladder":
            method_docs.append(go("methods"))
        enough = len(main_docs) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if enough and time.monotonic() - start >= seconds:
            break
    passes = main_docs + method_docs + traced_docs
    children = setups + passes
    attempted = sum(len(d["op_s"]) for d in passes)
    failures = [f for d in passes for f in d["failures"]]
    failed = sum(d["failed"] for d in passes)
    per_op = _per_op(main_docs)
    words = main_docs[0]["words"]
    notes = {"failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted} operations")}

    if not trace:
        method_docs = method_docs or main_docs
        per_method_op = _per_op(method_docs)
        raw = _per_op(main_docs, "op_s")
        metrics = {
            "setup_s": statistics.median(
                (d["import_s"] + d["warmup_s"]) * d["setup_scale"] for d in children
            ),
            "words_per_s": words / sum(per_op),
            "word_ms_p50": _percentile(per_op, 0.5) * 1000,
            "word_ms_p90": _percentile(per_op, 0.9) * 1000,
            "peak_rss_mb": statistics.median(d["rss_mb"] for d in main_docs),
        }
        for method, name in _METHOD_METRICS.items():
            metrics[name] = sum(
                s for s, m in zip(per_method_op, method_docs[0]["op_method"]) if m == method
            )
        beyond = len(per_op) - int(0.9 * len(per_op)) - 1
        raw_setup = statistics.median(d["import_s"] + d["warmup_s"] for d in children)
        notes["setup_s"] = (
            metrics["setup_s"], "s",
            f"median of {len(children)} interpreters; raw wall {raw_setup:.4g} s",
        )
        notes["words_per_s"] = (
            metrics["words_per_s"], "words/s",
            f"{words} words, median of {len(main_docs)} passes; raw wall {words / sum(raw):.4g}",
        )
        notes["word_ms_p90"] = (
            metrics["word_ms_p90"], "ms", f"{len(per_op)} calls, {beyond} beyond p90"
        )
        units = END_TO_END
    else:
        layers = [d["layers"] for d in traced_docs]
        metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        metrics.update((name, layers[0][name]) for name in COUNTS)
        if len({json.dumps([d["trees"], d["partitions"]]) for d in traced_docs}) != 1 or any(
            l[name] != layers[0][name] for l in layers for name in COUNTS
        ):
            failures.append("work counts differ across traced passes")
            failed += 1
        metrics["setup.import_s"] = statistics.median(
            d["import_s"] * d["setup_scale"] for d in children
        )
        metrics["setup.warmup_s"] = statistics.median(
            d["warmup_s"] * d["setup_scale"] for d in children
        )
        metrics["trace.overhead_frac"] = sum(_per_op(traced_docs)) / sum(per_op) - 1
        units = PER_LAYER

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, notes, failures, traced_docs


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, notes, failures, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in failures[:20]:
        print(f"FAIL {message[:300]}", file=sys.stderr)
    rows = {name: (m["value"], m["unit"], "") for name, m in result["metrics"].items()}
    rows.update(notes)
    for name, (value, unit, note) in rows.items():
        print(f"{name:36} {value:>16.6g} {unit:10} {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
