"""Fast self-check of the benchmark itself, at tiny sizes (about 15 s).

    python3 perfbench/selfcheck.py

Runs every workload untraced and, twice, traced on a few small words and
asserts that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that all outputs pass the gates, that the work counts repeat exactly
across runs, and the identities the counts must satisfy: a resolving tree
has ``nodes = 2 * leaves - 1``, descending leaves and standard partitions are
equinumerous (ascending and dual likewise), ``analyze`` evaluates the
descending tree 3-4 times per word and never calls jaeger.
"""

from __future__ import annotations

import json

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def check() -> None:
    assert _names("end_to_end") == run.END_TO_END, "end_to_end list differs from run.py"
    assert _names("per_layer") == run.PER_LAYER, "per_layer list differs from run.py"
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)

    for workload in run.WORKLOADS:
        result, _, failures, _ = run.run(workload, seed=1, seconds=0, trace=0, tiny=True)
        assert result["correct"] and not failures, (workload, failures)
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
        assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)

        traced = [run.run(workload, seed=1, seconds=0, trace=1, tiny=True) for _ in range(2)]
        for result, _, failures, _ in traced:
            assert result["correct"] and not failures, (workload, failures)
            assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
        (first, _, _, docs_a), (second, _, _, docs_b) = traced
        for name in run.COUNTS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        assert [d["trees"] for d in docs_a] == [d["trees"] for d in docs_b], workload
        assert [d["partitions"] for d in docs_a] == [d["partitions"] for d in docs_b], workload

        m = {k: v["value"] for k, v in first["metrics"].items()}
        assert m["resolver.nodes"] == 2 * m["resolver.leaves"] - m["resolver.homfly_calls"]
        trees = docs_a[0]["trees"]
        partitions = {(tuple(k[0]), k[1], k[2]): n for k, n in docs_a[0]["partitions"]}
        for (tokens, strands, mode), leaves, nodes in trees:
            assert nodes == 2 * leaves - 1, (tokens, mode, leaves, nodes)
            variant = "standard" if mode == "descending" else "dual"
            if (tuple(tokens), strands, variant) in partitions:
                assert partitions[(tuple(tokens), strands, variant)] == leaves, (tokens, mode)
        if workload == "ladder":
            assert partitions and m["jaeger.partitions"] == m["resolver.leaves"]
        if workload == "analyze":
            assert 3 <= m["resolver.homfly_calls_per_word"] <= 4, m
            assert m["jaeger.homfly_jaeger_calls"] == 0, m
        print(f"{workload}: ok")


if __name__ == "__main__":
    check()
