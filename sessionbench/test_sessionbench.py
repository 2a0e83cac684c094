"""Tests of the session benchmark itself.

Run from the repository root: ``python3 -m pytest -q sessionbench``.
"""

import json
import os
import re
import shutil
import sys
import types

import pytest

import run
import spans

sys.path.insert(0, run.SRC)

from lsysbench import astgen, bench, grammar, oracle  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 6]
    tracer = spans.Tracer("s", clock=scripted_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    by_name = {sp.name: sp for sp in tracer.spans}
    selfs = spans.self_times(tracer.spans)
    assert selfs[by_name["root"].span_id] == 6  # 10 - (3 + 1)
    assert selfs[by_name["a"].span_id] == 2     # 3 - 1
    assert selfs[by_name["leaf"].span_id] == 1
    assert selfs[by_name["b"].span_id] == 1
    assert by_name["leaf"].parent == by_name["a"].span_id
    assert by_name["root"].parent is None
    assert {sp.session for sp in tracer.spans} == {"s"}
    assert [sp.name for sp in spans.descendants(tracer.spans, by_name["a"].span_id)] == ["a", "leaf"]


def test_covered_takes_the_union_clipped_to_the_parent():
    assert spans._covered([(1, 4), (2, 5), (7, 8)], 0, 10) == 5
    assert spans._covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert spans._covered([], 0, 10) == 0


def test_counting_runs_outside_the_counted_span():
    tracer = spans.Tracer("s", clock=scripted_clock([0, 1, 2, 3, 4, 5]))
    mod = types.SimpleNamespace(f=lambda x: x * 2)
    hook = spans.Hook(mod, "f", "mod.f", counter=lambda a, k, r: {"out": r})
    with tracer.span("root"), spans.instrument(tracer, [hook]):
        assert mod.f(21) == 42
    root, f, count = tracer.spans
    assert (f.name, f.counts, f.parent) == ("mod.f", {"out": 42}, root.span_id)
    assert (count.name, count.parent) == (spans.COUNT_SPAN, root.span_id)
    selfs = spans.self_times(tracer.spans)
    assert selfs[root.span_id] == 3  # [0, 5] minus f [1, 2] minus counting [3, 4]


def test_skip_inside_leaves_the_time_with_the_enclosing_span():
    tracer = spans.Tracer("s")
    mod = types.SimpleNamespace(outer=None, inner=lambda: "x")
    mod.outer = lambda: mod.inner()
    hooks = [spans.Hook(mod, "outer", "outer"),
             spans.Hook(mod, "inner", "inner", skip_inside="outer")]
    with spans.instrument(tracer, hooks):
        mod.outer()
        mod.inner()
    assert [sp.name for sp in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent is None


# ---------------------------------------------------------------------------
# wrapping and restoring module attributes


def hooked_attributes():
    return [(h.module, h.attr) for h in run.layer_hooks()]


def test_instrument_restores_every_attribute_even_on_error():
    before = {(m.__name__, a): getattr(m, a) for m, a in hooked_attributes()}
    tracer = spans.Tracer("s")
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer, run.layer_hooks()):
            assert all(getattr(m, a) is not before[(m.__name__, a)]
                       for m, a in hooked_attributes())
            raise RuntimeError("boom")
    assert all(getattr(m, a) is before[(m.__name__, a)] for m, a in hooked_attributes())


def test_module_global_calls_nest_under_their_caller():
    tracer = spans.Tracer("s")
    with pytest.warns(UserWarning), spans.instrument(tracer, run.layer_hooks()):
        program = bench.build_program("A = new B B\nB = IF(insert A, contains)\n", 3,
                                      astgen.OperandPlan())
        oracle.run_to_text(program, oracle.ExecConfig(path=1))
    assert astgen.lower.__module__ == "lsysbench.astgen"
    by_id = {sp.span_id: sp for sp in tracer.spans}
    parent_of = {sp.name: by_id[sp.parent].name if sp.parent is not None else None
                 for sp in tracer.spans if sp.name != spans.COUNT_SPAN}
    assert parent_of["astgen.plan_operands"] == "astgen.lower"
    assert parent_of["astgen.extract_functions"] == "astgen.lower"
    assert parent_of["oracle.interpret"] == "oracle.run_to_text"
    assert parent_of["grammar.derive"] is None
    m = run.layer_metrics(tracer, floor_ms=1.0, untraced_wall_s=0.0)
    assert m["astgen.lower_calls"] == 1
    assert m["oracle.interpret_calls"] == 1
    assert m["astgen.functions"] == 1
    assert m["grammar.items"] == grammar.total_items(
        grammar.derive(grammar.parse_spec("A = new B B\nB = IF(insert A, contains)\n"), 3))
    assert m["oracle.dyn_ops"] > 0 and m["oracle.trace_events"] == 0


# ---------------------------------------------------------------------------
# fail accounting


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_account_session_counts_exits_rows_and_missing_rows(tmp_path):
    wl = run.load_workloads()["stress"]  # two check paths, one measure flag set
    out = str(tmp_path / "s0")
    write_rows(out + ".check.jsonl", [{"seed": 0, "path": 0, "status": "pass", "detail": ""}])
    write_rows(out + ".measure.jsonl", [{"flags": "-O0", "failed": True, "error": "checksum"}])
    ledger = run.Ledger()
    run.account_session(ledger, wl, out, {"gen": 0, "check": 1, "measure": 1})
    assert ledger.attempted == 3 + 2 + 1
    assert ledger.failed == 2 + 1 + 1  # two exits, the missing check row, the measure row
    assert not ledger.correct


def fake_gen_output(root, source):
    root.mkdir()
    (root / "main.c").write_text(source)
    (root / "manifest.json").write_text(json.dumps({"files": ["main.c"]}))
    return str(root)


@needs_gcc
def test_strict_probe_failures_count_but_keep_outputs_correct(tmp_path):
    ctx = run.Setup(ws=str(tmp_path), spec="", seed=0, env=dict(os.environ),
                    floor_ms=1.0, seconds=0.0)
    clean = fake_gen_output(tmp_path / "clean", "int main(void) { return 0; }\n")
    dirty = fake_gen_output(tmp_path / "dirty", "int main(void) { int unused; return 0; }\n")
    ledger = run.Ledger()
    run.probe_strict(ledger, clean, ctx)
    assert (ledger.attempted, ledger.failed) == (2, 0)
    run.probe_strict(ledger, dirty, ctx)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert all("unused" in detail for _, detail in ledger.failures())
    assert ledger.correct  # a -Werror failure makes no output wrong
    ledger.record("checksum-path1", False, "mismatch")
    assert (ledger.attempted, ledger.failed, ledger.correct) == (5, 3, False)


@needs_gcc
def test_determinism_probe_flags_differing_generations(tmp_path):
    ctx = run.Setup(ws=str(tmp_path), spec="", seed=0, env=dict(os.environ),
                    floor_ms=1.0, seconds=0.0)
    a = fake_gen_output(tmp_path / "a", "int main(void) { return 0; }\n")
    b = fake_gen_output(tmp_path / "b", "int main(void) { return 1; }\n")
    ledger = run.Ledger()
    assert run.probe_determinism(ledger, a, a, ctx) is not None
    assert ledger.failed == 0
    run.probe_determinism(ledger, a, b, ctx)
    assert [kind for kind, _ in ledger.failures()] == ["determinism-gen"]


# ---------------------------------------------------------------------------
# metric names and the benchmark definition


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_definition():
    names = list(run.END_TO_END_UNITS) + list(run.per_layer_units())
    assert all(NAME_RE.fullmatch(n) for n in names), [n for n in names if not NAME_RE.fullmatch(n)]
    assert len(names) == len(set(names))
    bench_def = load_benchmark()
    assert {m["name"]: m["unit"] for m in bench_def["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench_def["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench_def["workloads"]] == list(run.load_workloads())


def test_predictions_name_known_metrics():
    known = set(run.END_TO_END_UNITS) | set(run.per_layer_units())
    with open(os.path.join(run.HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    for w in workloads:
        assert os.path.isfile(os.path.join(run.HERE, w["spec"]))
        for layer, moved in w["predictions"].items():
            assert layer in known
            assert set(moved) <= known
