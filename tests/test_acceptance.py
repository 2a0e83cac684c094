"""Acceptance gate: ten product-level checks with stated time budgets.

Each check prints exactly one [criterion NN] PASS/FAIL/SKIP line. Checks that
need a system C toolchain skip with an explicit notice when none is found.
Run with `pytest -s tests/test_acceptance.py` to see the lines on success.
"""

import contextlib
import hashlib
import json
import os
import random
import time
import warnings
from pathlib import Path

import pytest

import helpers
from helpers import (
    CONTAINER_STRESS_SPEC,
    FAN_OUT_INIT_SPEC,
    CALL_CHURN_SPEC,
    assert_bitpath_properties,
    find_c_compiler,
    random_seq_nonempty,
    run_binary,
    start_compile_c,
    write_files,
)
from lsysbench import astgen, bench, codegen, grammar, oracle

C_COMPILER = find_c_compiler()
FIXTURES = Path(__file__).parent / "fixtures"

ALL_ONES = 2**64 - 1


@contextlib.contextmanager
def criterion(number, label, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException as exc:
        if type(exc).__name__ == "Skipped":
            print(f"[criterion {number:02d}] SKIP {label}: {exc}")
        else:
            print(f"[criterion {number:02d}] FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"[criterion {number:02d}] FAIL {label} "
              f"(took {elapsed:.1f}s, budget {budget_s:.0f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s"
        )
    print(f"[criterion {number:02d}] PASS {label} ({elapsed:.2f}s)")


def quiet_lower(seq, plan=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return astgen.lower(seq, plan)


def derive_spec(spec_text, generations):
    return grammar.derive(grammar.parse_spec(spec_text), generations)


def random_programs(seed, count):
    rng = random.Random(seed)
    return [quiet_lower(random_seq_nonempty(rng, depth=4, max_len=5)) for _ in range(count)]


def test_criterion_01_init_grammar_insert_count():
    with criterion(1, "fan-out init grammar yields exactly 1024 inserts at generation 4",
                   budget_s=1.0):
        derived = derive_spec(FAN_OUT_INIT_SPEC, 4)
        counts = helpers.count_terminals(derived)
        assert counts.get("insert", 0) == 1024
        assert not helpers.has_nonterminals(derived)


def test_criterion_02_bit_assignment_conformance():
    with criterion(2, "bit assignment matches hand-run fixtures and random-program "
                      "properties", budget_s=10.0):
        for name in ("bitpath_nested_then_sibling.json", "bitpath_sequential.json"):
            fixture = json.loads((FIXTURES / name).read_text())
            seq = grammar.parse_items(fixture["program"])
            program = astgen.extract_functions(astgen.prune_nonterminals(seq))
            trace = []
            reference = helpers.stack_path_bits(program.entry.body, trace)
            assert reference == fixture["bits_preorder"], name
            assert trace == fixture["steps"], name
            astgen.assign_path_bits(program.entry)
            bits = [st.bit_index_raw
                    for st in helpers.all_ifs(program.entry.body)]
            assert bits == fixture["bits_preorder"], name
            assert program.entry.max_bit_index == fixture["max_bit_index"], name

        checked = 0
        for program in random_programs(seed=2025, count=200):
            astgen.assign_all_path_bits(program)
            for fn in program.functions:
                assert_bitpath_properties(fn.body)
            checked += 1
        assert checked == 200


def test_criterion_03_dedup_and_acyclicity():
    with criterion(3, "call extraction dedups bodies and keeps the call graph acyclic",
                   budget_s=30.0):
        rng = random.Random(4099)
        checked = 0
        while checked < 200:
            seq = random_seq_nonempty(rng, depth=4, max_len=5)
            program = astgen.extract_functions(seq)
            if len(program.functions) < 2:
                continue
            # one function per distinct block text, as a dedup keyed by
            # canonical_serialize gives
            assert [fn.body for fn in program.functions] == helpers.reference_functions(seq)
            for fn in program.functions:
                for st in astgen.iter_statements(fn.body):
                    if isinstance(st, astgen.Call):
                        assert st.callee_id < fn.id  # ids are topological: acyclic
            astgen.assert_call_invariants(program)
            checked += 1


def test_criterion_04_oracle_leak_freedom():
    with criterion(4, "interpreter reports zero live objects at exit", budget_s=60.0):
        paths = (0, 1, ALL_ONES)
        for program in random_programs(seed=8111, count=100):
            for kind in astgen.CONTAINER_KINDS:
                plan = astgen.OperandPlan(seed=1, container_kind=kind)
                planned = astgen.plan_operands(program, plan)
                for path in paths:  # a run that leaves objects live raises
                    oracle.interpret(planned, oracle.ExecConfig(path=path))

        for generations in (4, 5, 6, 7):
            derived = derive_spec(CONTAINER_STRESS_SPEC, generations)
            for kind in astgen.CONTAINER_KINDS:
                program = quiet_lower(derived, astgen.OperandPlan(seed=0, container_kind=kind))
                for path in paths:
                    oracle.interpret(program, oracle.ExecConfig(path=path))


def _criterion5_matrix():
    for spec_text in (CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC):
        for generations in (4, 5):
            for seed in (0, 1):
                for container in ("array", "sortedList"):
                    yield spec_text, generations, seed, container


def test_criterion_05_compiled_trace_equivalence(tmp_path):
    with criterion(5, "compiled C traces are byte-identical to the oracle across "
                      "the grammar/generation/seed/path/container matrix", budget_s=300.0):
        if C_COMPILER is None:
            pytest.skip("criterion 5 requires a system C toolchain and none was found")
        paths = (1, 2**63)
        combos = 0
        case = 0
        for spec_text, generations, seed, container in _criterion5_matrix():
            derived = derive_spec(spec_text, generations)
            plan = astgen.OperandPlan(seed=seed, container_kind=container)
            program = quiet_lower(derived, plan)
            files = codegen.emit(program, codegen.EmitConfig(backend="c"))
            # the four optimisation levels compile side by side while the
            # oracle computes the expected traces; then each is reaped and run
            with contextlib.ExitStack() as running:
                compiles = []
                for opt in ("-O0", "-O1", "-O2", "-O3"):
                    case += 1
                    workdir = tmp_path / f"case{case}"
                    write_files(files, str(workdir))
                    binary = str(workdir / "prog")
                    compiles.append((opt, binary, running.enter_context(start_compile_c(
                        str(workdir), ["main.c"], binary, C_COMPILER, [opt]))))
                expected = {
                    path: oracle.run_to_text(
                        program, oracle.ExecConfig(path=path, debug_trace=True))
                    for path in paths
                }
                for opt, binary, proc in compiles:
                    _, stderr = proc.communicate()
                    assert proc.returncode == 0, stderr
                    for path in paths:
                        run = run_binary(binary, path, debug=True)
                        assert run.returncode == 0
                        assert run.stdout == expected[path], (
                            spec_text[:20], generations, seed, container, opt, path)
                        combos += 1
        assert combos >= 20


def test_criterion_06_container_invariant_checksums():
    with criterion(6, "oracle checksums are identical under array and sortedList"):
        for spec_text in (CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC):
            for generations in (4, 5):
                for seed in (0, 1):
                    derived = derive_spec(spec_text, generations)
                    sums = {}
                    for container in ("array", "sortedList"):
                        plan = astgen.OperandPlan(seed=seed, container_kind=container)
                        program = quiet_lower(derived, plan)
                        for path in (1, 2**63):
                            stats = oracle.interpret(
                                program, oracle.ExecConfig(path=path))[1]
                            sums.setdefault(path, set()).add(stats.checksum)
                    for path, values in sums.items():
                        assert len(values) == 1, (spec_text[:20], generations, seed, path)


def test_criterion_07_growth_monotonicity():
    with criterion(7, "total oracle op count strictly increases over generations 4-8",
                   budget_s=60.0):
        totals = []
        for generations in range(4, 9):
            derived = derive_spec(CONTAINER_STRESS_SPEC, generations)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                program = astgen.lower(derived, astgen.OperandPlan(seed=0))
                stats = oracle.interpret(program, oracle.ExecConfig(path=1))[1]
            totals.append(sum(stats.op_counts.values()))
        assert all(a < b for a, b in zip(totals, totals[1:])), totals


def test_criterion_08_generation_determinism(tmp_path, capsys):
    with criterion(8, "repeated gen produces byte-identical trees and manifests"):
        spec_path = tmp_path / "stress.lsys"
        spec_path.write_text(CONTAINER_STRESS_SPEC)
        configs = [
            (astgen.OperandPlan(seed=0), codegen.EmitConfig(backend="c")),
            (astgen.OperandPlan(seed=5, container_kind="scalar"),
             codegen.EmitConfig(backend="go", split_files=True)),
        ]
        for index, (plan, emit_cfg) in enumerate(configs):
            hashes = []
            for attempt in ("first", "second"):
                out = str(tmp_path / f"cfg{index}-{attempt}")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    manifest = bench.cmd_gen(str(spec_path), out, 4, plan, emit_cfg)
                assert manifest is not None
                digest = hashlib.sha256()
                for name in sorted(os.listdir(out)):
                    digest.update(name.encode())
                    with open(os.path.join(out, name), "rb") as fh:
                        digest.update(fh.read())
                hashes.append(digest.hexdigest())
            assert hashes[0] == hashes[1]
        capsys.readouterr()


def test_criterion_09_measurement_schema(tmp_path, capsys):
    with criterion(9, "measure emits one well-formed row per flag set with "
                      "oracle-matching checksums", budget_s=120.0):
        if C_COMPILER is None:
            pytest.skip("criterion 9 requires a system C toolchain and none was found")
        spec_path = tmp_path / "stress.lsys"
        spec_path.write_text(CONTAINER_STRESS_SPEC)
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            manifest = bench.cmd_gen(str(spec_path), out, 4, astgen.OperandPlan(seed=0),
                                     codegen.EmitConfig(backend="c"))
            capsys.readouterr()
            results = bench.cmd_measure(
                str(spec_path), out,
                "%s -std=c99 {flags} {in} -o {out}" % C_COMPILER,
                flag_sets=["-O0", "-O2"], repetitions=3, warmups=1,
            )
        printed = capsys.readouterr().out
        assert len(results) == 2
        oracle_checksum = manifest["oracleChecksumPath1"]
        for m in results:
            assert not m.failed, m.error
            assert m.compile_time_ms > 0
            assert m.run_time_ms > 0
            assert m.binary_bytes > 0
            assert m.checksum == oracle_checksum
        import csv as csv_mod

        rows = list(csv_mod.DictReader(printed.splitlines()))
        assert len(rows) == 2
        assert list(rows[0]) == bench.MEASUREMENT_COLUMNS


def test_criterion_10_split_file_counts():
    with criterion(10, "split emission yields F+1 files for c and F for go"):
        for spec_text, generations in ((CONTAINER_STRESS_SPEC, 4), (CALL_CHURN_SPEC, 3), (CALL_CHURN_SPEC, 5)):
            derived = derive_spec(spec_text, generations)
            program = quiet_lower(derived, astgen.OperandPlan(seed=0))
            n = len(program.functions)
            c_files = codegen.emit(program, codegen.EmitConfig(backend="c", split_files=True))
            go_files = codegen.emit(program, codegen.EmitConfig(backend="go", split_files=True))
            assert len(c_files) == n + 1, (spec_text[:20], generations)
            assert len(go_files) == n, (spec_text[:20], generations)
