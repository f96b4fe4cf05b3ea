"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest bench
"""

from __future__ import annotations

import ast
import json
import sys

import pytest

import run
import workloads
from spans import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seeded(name):
    assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)
    assert workloads.make_ops(name, 7) != workloads.make_ops(name, 8)


def test_generator_does_not_use_the_program():
    tree = ast.parse((run.BENCH_DIR / "workloads.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "epsmult" for name in imported)


def _lemma_ops(count=3):
    return workloads.make_ops("lemmas_corpus", workloads.DEFAULT_SEED)[:count]


def test_corrupted_reference_digest_counts_as_failed():
    program = run.load_program()
    ops = _lemma_ops()
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    clock = run.HostClock()
    passes = [[run.execute(program, op, clock) for op in ops] for _ in range(2)]
    seed = workloads.DEFAULT_SEED
    assert run.evaluate("lemmas_corpus", seed, ops, passes, reference)[:2] == (6, 0)
    reference["digests"]["lemmas_corpus"][ops[1].name]["sha256"] = "0" * 64
    attempted, failed, problems = run.evaluate("lemmas_corpus", seed, ops, passes, reference)
    assert (attempted, failed) == (6, 2)
    assert problems == [f"{ops[1].name}: report differs from the recorded digest"]


def test_wrong_report_fails_invariants_on_any_seed():
    program = run.load_program()
    op = workloads.make_ops("lemmas_corpus", 5)[0]
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    good = run.execute(program, op, run.HostClock())
    bad = run.Result(good.stdout.replace(",true,", ",false,"), good.code, good.seconds, good.ref_seconds)
    assert run.evaluate("lemmas_corpus", 5, [op], [[good]], reference)[1] == 0
    assert run.evaluate("lemmas_corpus", 5, [op], [[bad]], reference)[1] == 1
    # a later pass that differs from the first also fails
    assert run.evaluate("lemmas_corpus", 5, [op], [[good], [bad]], reference)[1] == 1


def test_tracer_patches_every_binding_site_and_restores():
    run.load_program()
    colength_module = sys.modules["epsmult.colength"]
    multiplicity = sys.modules["epsmult.multiplicity"]
    ideal_cls = sys.modules["epsmult.ideals"].MonomialIdeal
    original = colength_module.colength
    tracer = Tracer(workloads.LAYERS)
    tracer.install()
    try:
        assert colength_module.colength.__wrapped__ is original
        assert multiplicity.colength is colength_module.colength
        assert sys.modules["epsmult"].colength is colength_module.colength
        assert ideal_cls.__mul__ is ideal_cls.product and hasattr(ideal_cls.product, "__wrapped__")
        ideal = ideal_cls(2, [(2, 0), (1, 1)])
        assert multiplicity.epsilon_sequence(ideal, 3).lengths == (1, 3, 6)
    finally:
        tracer.restore()
    figures = tracer.layer_metrics()
    assert figures["colength.colength.calls"] == 3 and figures["colength.monomials"] == 10
    assert figures["multiplicity.calls"] == 1 and figures["families.calls"] > 0
    assert colength_module.colength is original and multiplicity.colength is original
    assert not hasattr(ideal_cls.product, "__wrapped__")


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace):
    make_ops = workloads.make_ops
    monkeypatch.setattr(workloads, "make_ops", lambda name, seed: make_ops(name, seed)[:3])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run("lemmas_corpus", workloads.DEFAULT_SEED, 0.01, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    printed = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in printed} >= set(result["metrics"])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
