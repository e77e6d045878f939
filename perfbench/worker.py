"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --pass KIND --trace 0|1 --tiny 0|1 [--out FILE]

``KIND`` is ``setup`` (import and warm-up only), ``main`` (the workload's own
command over its words) or ``methods`` (``compute --method M`` for all four
methods over the workload's words; this is ``main`` for ``ladder``).

Set-up is timed first: ``import braidpoly.cli``, which runs the package's
import-time convention check, then an untimed-by-the-pass warm-up on
:data:`words.WARMUP`.  Every operation is one in-process ``cli.main(argv)``
call with stdout and stderr captured; the pass is a closed loop with one
client, each call starting when the previous one returns.  The host-speed
probe (:mod:`probe`) runs after every call and around set-up, outside the
timed calls.  Outputs are checked by :mod:`gates` after the pass.  With ``--trace`` the span wrappers
are installed after set-up and removed after the pass, and the leaves,
nodes and partitions behind every kernel call are counted outside any span.
"""

from __future__ import annotations

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

METHODS = ("descending", "ascending", "jaeger", "jaeger-dual")
VERIFY_SAMPLES = 5


def _import_cli():
    if not (SRC / "braidpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no braidpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import braidpoly.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported braidpoly from {cli.__file__}, not {SRC}")
    return cli


def _argv(kind, word, method, seed):
    tokens, strands = word
    head = [kind, " ".join(str(t) for t in tokens), "--strands", str(strands)]
    if kind == "compute":
        return head + ["--method", method, "--json"]
    if kind == "analyze":
        return head + ["--json"]
    return head + ["--moves", "all", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]


def _call(main, argv):
    """One timed ``cli.main`` call: (exit code, seconds, output, error)."""
    buf = io.StringIO()
    rc = error = None
    with redirect_stdout(buf), redirect_stderr(buf):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            error = repr(exc)
        elapsed = time.perf_counter() - start
    return rc, elapsed, buf.getvalue(), error


def _operations(workload, kind, words_list, seed):
    """(word index, method or None, argv) in the order they run."""
    if kind == "methods":
        return [
            (i, m, _argv("compute", w, m, seed))
            for i, w in enumerate(words_list)
            for m in METHODS
        ]
    command = "analyze" if workload == "analyze" else "verify"
    return [(i, None, _argv(command, w, None, seed)) for i, w in enumerate(words_list)]


def _warmup(main, seed):
    import words

    for word in words.WARMUP:
        for m in METHODS:
            _call(main, _argv("compute", word, m, seed))
        _call(main, _argv("analyze", word, None, seed))
        _call(main, _argv("verify", word, None, seed))


def _count_work(spans):
    """Leaves and nodes per (word, mode) of every tree evaluation, partitions
    per (word, variant) of every partition sum; each computed once.

    Leaves come from ``leaf_statistics`` and partitions from
    ``enumerate_admissible``.  Nodes are counted by walking the tree with the
    public step API (``first_violation``, ``split_at``), independently of the
    leaf count, so ``nodes = 2 * leaves - 1`` is a real check.
    """
    from braidpoly.braid import BraidWord, ResolvedDiagram
    from braidpoly.jaeger import enumerate_admissible
    from braidpoly.resolver import first_violation, leaf_statistics, split_at

    trees: dict[tuple, tuple[int, int]] = {}
    partitions: dict[tuple, int] = {}
    for name, _, _, _, _, _, key in spans:
        if key is None or key in trees or key in partitions:
            continue
        tokens, strands, mode = key
        word = BraidWord.from_tokens(tokens, strands)
        if name == "resolver.homfly":
            nodes = 0
            stack = [ResolvedDiagram.all_kept(word)]
            while stack:
                diagram = stack.pop()
                nodes += 1
                i = first_violation(diagram, mode)
                if i is not None:
                    stack.extend(split_at(diagram, i))
            trees[key] = (leaf_statistics(word, mode).count, nodes)
        else:
            partitions[key] = sum(1 for _ in enumerate_admissible(word, mode))
    return trees, partitions


def _work_failures(trees, partitions):
    failures = []
    for (tokens, strands, mode), (leaves, nodes) in trees.items():
        if nodes != 2 * leaves - 1:
            failures.append(f"{mode} tree of {tokens}: {nodes} nodes, {leaves} leaves")
        dual = "dual" if mode == "ascending" else "standard"
        count = partitions.get((tokens, strands, dual))
        if count is not None and count != leaves:
            failures.append(f"{tokens}: {leaves} {mode} leaves but {count} {dual} partitions")
    return failures


def _layer_metrics(spans, n_words, trees, partitions, scales):
    import tracing as tr

    selfs = tr.self_times(spans)

    def total(*names):
        return tr.total_time(spans, names, scales)

    def own(name):
        return tr.self_time(spans, selfs, name, scales)

    homfly_s = total("resolver.homfly")
    jaeger_s = total("jaeger.homfly_jaeger")
    homfly_keys = tr.keys(spans, "resolver.homfly")
    leaves = sum(trees[k][0] for k in homfly_keys)
    nodes = sum(trees[k][1] for k in homfly_keys)
    n_partitions = sum(partitions[k] for k in tr.keys(spans, "jaeger.homfly_jaeger"))
    return {
        "cli.main_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.argparse_s": total("cli.argparse"),
        "braid.parse_s": total("braid.parse"),
        "braid.classify_s": total("braid.classify"),
        "braid.word_build_s": total("braid.word_build"),
        "braid.markov_variants_s": total("braid.markov_variants"),
        "resolver.homfly_calls": len(homfly_keys),
        "resolver.homfly_calls_per_word": len(homfly_keys) / n_words,
        "resolver.homfly_s": homfly_s,
        "resolver.leaves": leaves,
        "resolver.nodes": nodes,
        "resolver.nodes_per_s": nodes / homfly_s if homfly_s else 0.0,
        "resolver.enumerate_leaves_s": total("resolver.enumerate_leaves"),
        "jaeger.homfly_jaeger_calls": tr.count(spans, "jaeger.homfly_jaeger"),
        "jaeger.homfly_jaeger_s": jaeger_s,
        "jaeger.partitions": n_partitions,
        "jaeger.partitions_per_s": n_partitions / jaeger_s if jaeger_s else 0.0,
        "jaeger.verify_bijection_s": total("jaeger.verify_bijection"),
        "invariants.mfw_self_s": own("invariants.mfw"),
        "invariants.certificate_self_s": own("invariants.certificate"),
        "invariants.alexander_self_s": own("invariants.alexander"),
        "invariants.witness_s": total("invariants.witness"),
        "polynomial.substitute_alexander_s": total("polynomial.substitute_alexander"),
        "polynomial.format_s": total("polynomial.format"),
        "polynomial.arith_s": total("polynomial.arith"),
        "checks.skein_self_s": own("checks.skein"),
        "checks.markov_self_s": own("checks.markov"),
        "checks.mirror_self_s": own("checks.mirror"),
        "checks.bijection_self_s": own("checks.bijection"),
    }


def _per_word(spans, words_list, trees, partitions):
    """Each word's raw wall time in the traced pass next to the work behind it."""
    rows = [
        {"word": " ".join(map(str, t)), "strands": n, "cli_s": 0.0, "homfly_calls": 0,
         "homfly_s": 0.0, "leaves": 0, "nodes": 0, "jaeger_calls": 0,
         "jaeger_s": 0.0, "partitions": 0}
        for t, n in words_list
    ]
    for name, start, end, _, word_id, _, key in spans:
        row = rows[word_id]
        if name == "cli.main":
            row["cli_s"] += end - start
        elif name == "resolver.homfly":
            row["homfly_calls"] += 1
            row["homfly_s"] += end - start
            row["leaves"] += trees[key][0]
            row["nodes"] += trees[key][1]
        elif name == "jaeger.homfly_jaeger":
            row["jaeger_calls"] += 1
            row["jaeger_s"] += end - start
            row["partitions"] += partitions[key]
    return rows


def main(argv):
    # parsed by hand: importing argparse here would hide its cost from set-up
    opts = dict(zip(argv[::2], argv[1::2]))
    workload, seed, kind = opts["--workload"], int(opts["--seed"]), opts["--pass"]
    trace, tiny, out_file = opts["--trace"] == "1", opts["--tiny"] == "1", opts.get("--out")

    probes = [probe.probe() for _ in range(probe.WINDOW)]
    t0 = time.perf_counter()
    cli = _import_cli()
    t1 = time.perf_counter()
    _warmup(cli.main, seed)
    t2 = time.perf_counter()
    probes += [probe.probe() for _ in range(probe.WINDOW)]
    result = {"import_s": t1 - t0, "warmup_s": t2 - t1, "setup_scale": probe.scale(probes)}
    if kind == "setup":
        return result

    import json
    import resource

    import gates
    import tracing as tr
    import words

    words_list = words.GENERATORS[workload](seed, tiny=tiny)
    if workload == "ladder":
        kind = "methods"
    operations = _operations(workload, kind, words_list, seed)

    tracer = tr.Tracer() if trace else None
    main_fn = cli.main
    if tracer:
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
    ops = []
    probes = []
    for k, (i, method, argv_i) in enumerate(operations):
        if tracer:
            tracer.word_id, tracer.op = i, k
        rc, elapsed, out, error = _call(main_fn, argv_i)
        probes.append(probe.probe())
        ops.append({"word": i, "method": method, "rc": rc, "s": elapsed, "out": out, "error": error})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    if kind == "methods":
        failures = gates.methods(words_list, ops)
    elif workload == "analyze":
        failures = gates.analyze(words_list, ops, set(words.alternating_ids(tiny)))
    else:
        failures = gates.verify(ops)
    scales = probe.scales(probes)
    result.update(
        words=len(words_list),
        op_s=[op["s"] for op in ops],
        op_scaled_s=[op["s"] * f for op, f in zip(ops, scales)],
        op_method=[op["method"] for op in ops],
        failed=len(failures),
        failures=[f"{words.text(words_list[ops[k]['word']])!r}: {m}" for k, m in failures.items()],
        rss_mb=rss_mb,
    )
    if tracer:
        spans = tracer.spans
        trees, partitions = _count_work(spans)
        work_failures = _work_failures(trees, partitions)
        result["failed"] += len(work_failures)
        result["failures"] += work_failures
        result["layers"] = _layer_metrics(spans, len(words_list), trees, partitions, scales)
        result["trees"] = sorted([list(k), *v] for k, v in trees.items())
        result["partitions"] = sorted([list(k), v] for k, v in partitions.items())
        if out_file:
            Path(out_file).parent.mkdir(parents=True, exist_ok=True)
            with open(out_file, "w") as handle:
                json.dump(
                    {
                        "fields": tr.FIELDS,
                        "spans": spans,
                        "words": _per_word(spans, words_list, trees, partitions),
                    },
                    handle,
                )
    return result


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json

    print(json.dumps(result))
