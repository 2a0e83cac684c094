import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import signal
import subprocess
import tempfile
import time
import tracemalloc
import warnings
import weakref

import pytest

from helpers import CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC, STRICT_C_FLAGS, find_c_compiler
from lsysbench import astgen, bench, codegen, oracle
from lsysbench.bench import (
    BenchError,
    Measurement,
    cmd_check,
    cmd_gen,
    cmd_measure,
    cmd_sweep_pgo,
    load_manifest,
    parse_checksum,
    program_from_manifest,
    render_template,
    write_csv,
    write_json_lines,
)
from lsysbench.cli import main

C_COMPILER = find_c_compiler()
needs_c = pytest.mark.skipif(C_COMPILER is None, reason="no C toolchain found on PATH")

CC_STRICT = None
if C_COMPILER:
    CC_STRICT = "%s %s -O0 {in} -o {out}" % (C_COMPILER, " ".join(STRICT_C_FLAGS))
CC_FLAGS = "%s -std=c99 {flags} {in} -o {out}" % (C_COMPILER or "cc")


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "stress.lsys"
    path.write_text(CONTAINER_STRESS_SPEC)
    return str(path)


def default_plan(**kwargs):
    return astgen.OperandPlan(**kwargs)


def gen_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cmd_gen(*args, **kwargs)


def tree_hash(root):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        digest.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def script_cc(tmp_path, body):
    """A --cc template that "compiles" to a shell script with this body."""
    prog = tmp_path / "prog.sh"
    prog.write_text("#!/bin/sh\n%s\n" % body)
    prog.chmod(0o755)
    return "cp %s {out}" % prog


# ---------------------------------------------------------------------------
# gen + manifest


def test_gen_writes_sources_and_manifest(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    assert manifest is not None
    listed = sorted(os.listdir(out))
    assert listed == sorted(manifest["files"] + [bench.MANIFEST_NAME])
    assert manifest["files"] == ["main.c", "runtime.h"]
    assert manifest["specName"] == "stress.lsys"
    assert manifest["backend"] == "c"
    assert manifest["containerKind"] == "array"
    assert manifest["functionCount"] >= 1
    assert capsys.readouterr().out.count("oracle checksum") == 1


def test_gen_manifest_checksum_matches_oracle(spec_file, tmp_path):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = program_from_manifest(manifest)
    stats = oracle.interpret(program, oracle.ExecConfig(path=1))[1]
    assert manifest["oracleChecksumPath1"] == stats.checksum


def test_gen_twice_is_byte_identical(spec_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        gen_quiet(spec_file, out, 4, default_plan(seed=3),
                  codegen.EmitConfig(backend="c", split_files=False))
        outs.append(out)
    assert tree_hash(outs[0]) == tree_hash(outs[1])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_gen_refuses_an_empty_program_and_writes_nothing(spec_file, tmp_path, capsys):
    # Before, gen warned and exited 0, and the last gen's files stayed in
    # --out, so check went on passing on them.
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    before = tree_hash(out)
    spec = tmp_path / "empty.lsys"
    spec.write_text("A = B C\n")
    message = "derivation contains no behavioral operations; nothing to emit"
    with pytest.raises(BenchError, match=f"^{message}$"):
        cmd_gen(str(spec), out, 0, default_plan(), codegen.EmitConfig(backend="c"))
    capsys.readouterr()
    assert main(["gen", str(spec), "--out", out, "--generations", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert tree_hash(out) == before
    fresh = str(tmp_path / "fresh")
    assert main(["gen", str(spec), "--out", fresh]) == 2
    assert not os.path.exists(fresh)


def test_gen_manifest_json_is_sorted_and_stable(spec_file, tmp_path):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with open(os.path.join(out, bench.MANIFEST_NAME), encoding="utf-8") as fh:
        text = fh.read()
    assert text == bench.manifest_to_json(manifest)
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_load_manifest_missing(tmp_path):
    with pytest.raises(BenchError, match="run `gen` first"):
        load_manifest(str(tmp_path))


def test_load_manifest_not_json(tmp_path):
    path = tmp_path / bench.MANIFEST_NAME
    path.write_text('{"schema": ')
    want = f"{path} is not valid JSON (Expecting value: line 1 column 12 (char 11)); run gen again"
    with pytest.raises(BenchError, match=f"^{re.escape(want)}$"):
        load_manifest(str(tmp_path))


def test_load_manifest_bad_schema(tmp_path):
    for manifest in ({"schema": "nope"}, [bench.MANIFEST_SCHEMA]):
        (tmp_path / bench.MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(BenchError, match="schema"):
            load_manifest(str(tmp_path))
    # v1 kept a sha256 of the spec in place of its text; a v2 source could
    # print its trace without --debug
    for old in ({"schema": "lsysbench/manifest/v1", "specSha256": "0" * 64},
                {"schema": "lsysbench/manifest/v2", "debugTrace": True}):
        (tmp_path / bench.MANIFEST_NAME).write_text(json.dumps(old))
        with pytest.raises(BenchError, match=f"^manifest schema {old['schema']} was written "
                                             "by an older lsysbench; run gen again$"):
            load_manifest(str(tmp_path))


def test_check_spec_rejects_wrong_spec(spec_file, tmp_path):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    assert manifest["specText"] == CONTAINER_STRESS_SPEC
    with pytest.raises(BenchError) as excinfo:
        bench.check_spec("X = insert\n", manifest)
    assert str(excinfo.value) == (
        "spec file differs from the one gen used (line 1: got 'X = insert\\n', "
        "want 'A = new B B\\n'); regenerate with gen or pass the original spec")


# ---------------------------------------------------------------------------
# small helpers


def test_render_template_placeholders():
    argv = render_template("gcc {flags} {in} -o {out}",
                           {"flags": "-O2 -g", "in": "a.c b.c", "out": "prog"})
    assert argv == ["gcc", "-O2", "-g", "a.c", "b.c", "-o", "prog"]


def test_render_template_unknown_placeholder():
    # only a bare placeholder is replaced; {in.x} once raised AttributeError
    # and {in[0]} handed the compiler the path's first character
    for field in ("oops", "in.x", "in[0]", "in!r", "in:>5", ""):
        template = f"gcc {{{field}}} -o {{out}}"
        with pytest.raises(BenchError, match=f"^unknown placeholder {re.escape('{' + field + '}')} "
                                             f"in command template: {re.escape(template)}$"):
            render_template(template, {"in": "a.c", "out": "prog"})


def test_parse_checksum():
    assert parse_checksum("OP kind=new var=1 val=0 res=1\nCHECKSUM 42\n") == 42
    assert parse_checksum("") is None
    assert parse_checksum("CHECKSUM banana\n") is None


def test_write_csv_is_rfc4180():
    rows = [{"a": 'say "hi"', "b": "x,y", "c": None}]
    text = write_csv(rows, ["a", "b", "c"])
    lines = text.split("\r\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == '"say ""hi""","x,y",'
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1] == ['say "hi"', "x,y", ""]


def test_write_json_lines(tmp_path):
    path = str(tmp_path / "rows.jsonl")
    write_json_lines([{"b": 1, "a": 2}, {"a": 3, "b": 4}], path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert [json.loads(line) for line in lines] == [{"a": 2, "b": 1}, {"a": 3, "b": 4}]


def test_sweep_pgo_refuses_bit_counts_out_of_range(tmp_path):
    # checked first: the out directory holds no manifest to load
    for i in (0, 64):
        with pytest.raises(ValueError, match=rf"^sweep bit count out of range \[1, 63\]: {i}$"):
            cmd_sweep_pgo("s.lsys", str(tmp_path), "a", "b", "c", bit_counts=[1, i])


def test_measurement_row_schema():
    m = Measurement("s", 4, "c", "cc", "-O2", 1, 0, "array")
    row = m.to_row()
    assert list(row) == bench.MEASUREMENT_COLUMNS


# ---------------------------------------------------------------------------
# check


@needs_c
def test_check_freshly_generated_passes(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = cmd_check(spec_file, out, CC_STRICT, paths=[0, 1, 2**63])
    assert ok is True
    assert "check: PASS" in capsys.readouterr().out


@needs_c
def test_check_corrupted_source_reports_mismatch(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    main_c = os.path.join(out, "main.c")
    with open(main_c, encoding="utf-8") as fh:
        text = fh.read()
    corrupted = text.replace("ls_insert(v", "ls_remove(v", 1)
    assert corrupted != text
    with open(main_c, "w", encoding="utf-8") as fh:
        fh.write(corrupted)
    report = str(tmp_path / "report.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = cmd_check(spec_file, out, CC_STRICT, paths=[1], report_path=report)
    assert ok is False
    printed = capsys.readouterr().out
    assert "trace-mismatch" in printed
    assert "first divergence at event" in printed
    with open(report, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows[0]["status"] == "trace-mismatch"


@needs_c
def test_check_compile_failure_category(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    main_c = os.path.join(out, "main.c")
    with open(main_c, "a", encoding="utf-8") as fh:
        fh.write("\nthis is not C\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = cmd_check(spec_file, out, CC_STRICT, paths=[1])
    assert ok is False
    assert "compile-failure" in capsys.readouterr().out


def test_check_compile_failure_detail_is_the_exit_code_and_stderr(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    report = str(tmp_path / "report.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not cmd_check(spec_file, out, "sh -c 'echo no compiler >&2; exit 4' {out}",
                             paths=[1], report_path=report)
    capsys.readouterr()
    with open(report, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [(row["status"], row["detail"]) for row in rows] == [
        ("compile-failure", "exit=4 no compiler")]


def test_check_reports_a_compile_that_writes_no_binary_once(spec_file, tmp_path, capsys):
    # a compile that exits 0 without a binary is a compile failure, not a
    # runtime failure at every PATH
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    report = str(tmp_path / "report.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not cmd_check(spec_file, out, "true {in} {out}", paths=[1, 2],
                             report_path=report)
    capsys.readouterr()
    with open(report, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [(row["status"], row["path"]) for row in rows] == [("compile-failure", None)]
    assert re.fullmatch(r"exit=0 but wrote no binary /.*/prog", rows[0]["detail"])


@needs_c
def test_check_checksum_only_mode(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = cmd_check(spec_file, out, CC_STRICT, paths=[0, 1], checksum_only=True)
    assert ok is True
    assert "pass" in capsys.readouterr().out
    with open(os.path.join(out, "main.c"), encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(out, "main.c"), "w", encoding="utf-8") as fh:
        fh.write(text.replace("ls_contains(v", "ls_remove(v", 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cmd_check(spec_file, out, CC_STRICT, paths=[1], checksum_only=True) is False
    printed = capsys.readouterr().out
    assert "first divergence at event 0: got 'CHECKSUM " in printed


def splitlines_report(got, want):
    """The mismatch report as check made it from whole texts compared by
    splitlines(), for the outputs where that report was already right."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    idx = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
               min(len(got_lines), len(want_lines)))
    got_at = got_lines[idx] if idx < len(got_lines) else "<missing>"
    want_at = want_lines[idx] if idx < len(want_lines) else "<missing>"
    return f"first divergence at event {idx}: got {got_at!r}, want {want_at!r}"


def check_printing(spec_file, out, tmp_path, text, checksum_only=False):
    """check's report row for a "binary" that prints text at PATH 1."""
    printed = tmp_path / "printed"
    printed.write_bytes(text.encode())
    prog = tmp_path / "prog.sh"
    prog.write_text("#!/bin/sh\ncat %s\n" % printed)
    prog.chmod(0o755)
    report = str(tmp_path / "report.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cmd_check(spec_file, out, "cp %s {out}" % prog, paths=[1],
                  checksum_only=checksum_only, report_path=report)
    with open(report, encoding="utf-8") as fh:
        (row,) = [json.loads(line) for line in fh]
    return row


def generated_program(out):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return program_from_manifest(load_manifest(out))


def traced_lines(program):
    """The lines of the oracle's traced text at PATH 1."""
    return oracle.run_to_text(program, oracle.ExecConfig(path=1, debug_trace=True)).splitlines(
        keepends=True)


def test_check_compares_pieces_and_reports_each_divergence_as_before(
        spec_file, tmp_path, monkeypatch, capsys):
    # pieces of 3 events: lines 0-2 are the first piece, 3-5 the second
    monkeypatch.setattr(oracle, "PIECE_EVENTS", 3)
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    program = generated_program(out)
    lines = traced_lines(program)
    want = "".join(lines)
    assert len(lines) > 9 and lines[-1].startswith("CHECKSUM ")
    pieces = oracle.run_to_pieces(program, oracle.ExecConfig(path=1, debug_trace=True))
    assert [piece.count("\n") for piece in pieces[:2] + pieces[-1:]] == [3, 3, 1]
    assert check_printing(spec_file, out, tmp_path, want)["status"] == "pass"

    def changed(at, line):
        return "".join(lines[:at] + [line] + lines[at + 1:])

    cut = len("".join(lines[:5])) + len(lines[5]) // 2
    cases = {
        "first event": (changed(0, lines[0].replace(" res=", " res=9")), False),
        "last event of a piece": (changed(2, lines[2][:-1] + "7\n"), False),
        "first event of the next piece": (changed(3, lines[3][:-2] + "\n"), False),
        "CHECKSUM line": (changed(len(lines) - 1, "CHECKSUM 12345\n"), False),
        "cut off mid-line": (want[:cut], False),
        "extra output after CHECKSUM": (want + "EXTRA\n", False),
        # the whole output is compared with the CHECKSUM line: a trace
        # printed without --debug diverges at its first line
        "checksum-only, trace printed": (want, True),
    }
    for name, (text, checksum_only) in cases.items():
        row = check_printing(spec_file, out, tmp_path, text, checksum_only)
        expected = splitlines_report(text, lines[-1] if checksum_only else want)
        assert (row["status"], row["detail"]) == ("trace-mismatch", expected), name
    capsys.readouterr()
    assert splitlines_report(cases["last event of a piece"][0], want) == (
        f"first divergence at event 2: got {lines[2][:-1] + '7'!r}, want {lines[2][:-1]!r}")
    assert splitlines_report(want, lines[-1]) == (
        f"first divergence at event 0: got {lines[0][:-1]!r}, want {lines[-1][:-1]!r}")


def test_check_reports_a_line_ending_difference_at_its_event(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    lines = traced_lines(generated_program(out))
    crlf = check_printing(spec_file, out, tmp_path, "".join(lines).replace("\n", "\r\n"))
    assert crlf["detail"] == (
        f"first divergence at event 0: got {lines[0][:-1] + chr(13)!r}, want {lines[0][:-1]!r}")
    unended = check_printing(spec_file, out, tmp_path, "".join(lines)[:-1])
    assert unended["detail"] == (f"first divergence at event {len(lines) - 1}: "
                                 f"got {lines[-1][:-1]!r}, want {lines[-1]!r}")
    assert crlf["status"] == unended["status"] == "trace-mismatch"
    capsys.readouterr()


def test_check_closes_every_output_file_on_pass_mismatch_and_runtime_failure(
        spec_file, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    files, children = [], []
    real_temporary_file = tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        files.append(real_temporary_file(*args, **kwargs))
        return files[-1]

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    want = tmp_path / "want"
    want.write_text(oracle.run_to_text(generated_program(out),
                                       oracle.ExecConfig(path=0, debug_trace=True)))
    prog = tmp_path / "prog.sh"
    prog.write_text('#!/bin/sh\ncase "$1" in\n0) cat %s ;;\n1) echo garbage ;;\n'
                    '*) echo boom >&2; exit 3 ;;\nesac\n' % want)
    prog.chmod(0o755)
    report = str(tmp_path / "report.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not cmd_check(spec_file, out, "cp %s {out}" % prog, paths=[0, 1, 2],
                             report_path=report)
    capsys.readouterr()
    with open(report, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [row["status"] for row in rows] == ["pass", "trace-mismatch", "runtime-failure"]
    assert rows[2]["detail"] == "exit=3 boom"
    assert len(children) == 4 and all(child.returncode is not None for child in children)
    assert len(files) == 8 and all(fh.closed for fh in files)  # stdout and stderr of each


@needs_c
def test_check_never_holds_the_expected_trace_or_the_output_whole(tmp_path, capsys):
    # Python's peak during check on churn g=10, over its ~3.6 MB trace:
    # 1.82x comparing piece by piece, 2.47x with the pieces joined or the
    # output read whole on top, 4.40x with both texts held whole and the
    # template and arguments of one % beside them
    spec = tmp_path / "churn.lsys"
    spec.write_text(CALL_CHURN_SPEC)
    out = str(tmp_path / "out")
    gen_quiet(str(spec), out, 10, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = program_from_manifest(load_manifest(out))
        trace = oracle.run_to_text(program, oracle.ExecConfig(path=1, debug_trace=True))
        trace_bytes = len(trace)
        del program, trace
        tracemalloc.start()
        try:
            assert cmd_check(str(spec), out, CC_STRICT, paths=[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert trace_bytes > 3_000_000
    assert peak < 2.2 * trace_bytes, peak / trace_bytes


def test_gen_holds_little_more_than_the_program_it_plans(tmp_path, capsys):
    # Python's peak during gen on stress g=12, over its ~3.1 MB of C: 5.25x
    # holding the tree, its pruned copy, the lowered program, every emitted
    # line and the joined files; 1.84x with the derivation hash-consed and
    # each file streamed to disk a line at a time
    spec = tmp_path / "stress.lsys"
    spec.write_text(CONTAINER_STRESS_SPEC)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        gen_quiet(str(spec), str(out), 12, default_plan(), codegen.EmitConfig(backend="c"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    c_bytes = sum(os.path.getsize(out / name) for name in ("main.c", "runtime.h"))
    assert c_bytes > 3_000_000
    assert peak < 2.5 * c_bytes, peak / c_bytes


@pytest.mark.parametrize("backend", sorted(codegen.BACKENDS))
@pytest.mark.parametrize("split_files", [False, True])
def test_gen_writes_the_files_emit_returns(tmp_path, capsys, backend, split_files):
    # gen streams each file to disk; emit collects the same walker's text
    spec = tmp_path / "churn.lsys"
    spec.write_text(CALL_CHURN_SPEC)
    out = tmp_path / "out"
    cfg = codegen.EmitConfig(backend=backend, split_files=split_files)
    manifest = gen_quiet(str(spec), str(out), 5, default_plan(seed=3), cfg)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        files = codegen.emit(program_from_manifest(manifest), cfg)
    assert any(f.relative_path.startswith("f") for f in files) == split_files
    assert manifest["files"] == sorted(f.relative_path for f in files)
    assert sorted(os.listdir(out)) == sorted(manifest["files"] + ["manifest.json"])
    for f in files:
        assert (out / f.relative_path).read_bytes() == f.contents.encode()


@needs_c
def test_check_compiles_while_the_oracle_runs(spec_file, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    events = []

    def record(name, fn):
        def recorded(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return recorded

    real_start_compile = bench.start_compile

    def start_compile(*args, **kwargs):
        events.append("compile")
        return record("reap", real_start_compile(*args, **kwargs))

    monkeypatch.setattr(bench, "start_compile", start_compile)
    monkeypatch.setattr(bench, "build_program", record("build", bench.build_program))
    monkeypatch.setattr(bench, "write_source_files", record("emit", bench.write_source_files))
    monkeypatch.setattr(oracle, "run_to_pieces", record("oracle", oracle.run_to_pieces))
    monkeypatch.setattr(bench, "timed_run", record("run", bench.timed_run))
    paths = [0, 1, 2**63]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cmd_check(spec_file, out, CC_STRICT, paths=paths)
    # gen wrote the sources, so gcc starts first. The first PATH's oracle
    # run overlaps the compile, each later one precedes its run.
    assert events == (["compile", "build", "oracle", "reap", "run"]
                      + ["oracle", "run"] * (len(paths) - 1))


@needs_c
def test_check_holds_one_paths_expected_trace_at_a_time(spec_file, tmp_path, monkeypatch):
    # churn g=13 at -O0: --paths 0,1,2 read 423-430 MB of max RSS when every
    # PATH's trace was computed before the first run, and reads what
    # --paths 1 does, 171-175 MB, one at a time (Python 3.10-3.13)
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    real = oracle.run_to_pieces
    computed = []

    class Pieces(list):  # a list that a weak reference can point at
        pass

    def one_at_a_time(program, cfg):
        held = [path for path, ref in computed if ref() is not None]
        assert not held, f"PATH {cfg.path}'s trace computed while PATH {held}'s is held"
        pieces = Pieces(real(program, cfg))
        computed.append((cfg.path, weakref.ref(pieces)))
        return pieces

    monkeypatch.setattr(oracle, "run_to_pieces", one_at_a_time)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cmd_check(spec_file, out, CC_STRICT, paths=[0, 1, 2])
    assert [path for path, _ in computed] == [0, 1, 2]


def exited(pid, timeout=5.0):
    """Whether pid exits within timeout: it is gone, or a zombie left to init."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.kill(pid, 0)
            with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except (ProcessLookupError, FileNotFoundError):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def recorded_pids(pid_file):
    if not os.path.exists(pid_file):
        return []
    with open(pid_file, encoding="utf-8") as fh:
        return [int(line) for line in fh.read().split()]


def test_check_kills_the_compile_when_the_oracle_fails(spec_file, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    children = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    def broken_oracle(*args, **kwargs):
        time.sleep(0.5)  # long enough for the compile to start its children
        raise oracle.OracleInvariantError("planted failure")

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    monkeypatch.setattr(oracle, "run_to_pieces", broken_oracle)
    # the shell forks sleep and records its pid, so that the test sees
    # whether the kill reached the whole process group or only the shell
    pid_file = str(tmp_path / "pids")
    cc = "sh -c 'sleep 30 & echo $! > %s; wait' {in} {out}" % pid_file
    start = time.monotonic()
    with pytest.raises(oracle.OracleInvariantError, match="planted failure"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cmd_check(spec_file, out, cc, paths=[1])
    assert time.monotonic() - start < 10.0
    assert len(children) == 1
    assert children[0].returncode is not None  # reaped, not left running
    sleeps = recorded_pids(pid_file)
    assert len(sleeps) == 1
    assert exited(sleeps[0])  # killed with the shell's group


@needs_c
def test_check_interrupted_at_random_points_kills_every_child(spec_file, tmp_path, monkeypatch):
    # A timer raises at a random point of the check: while the oracle runs,
    # while the compile runs (a shell that sleeps, then copies in the
    # binary), or while the binary runs (a shell that sleeps 30 s). Each
    # shell records the pid of its sleep.
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    children, files = [], []
    real_temporary_file = tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        files.append(real_temporary_file(*args, **kwargs))
        return files[-1]

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted()

    rng = random.Random(2024)
    oracle_delay = [0.0]
    real_run_to_pieces = oracle.run_to_pieces

    def slow_oracle(*args, **kwargs):
        time.sleep(oracle_delay[0])
        return real_run_to_pieces(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(oracle, "run_to_pieces", slow_oracle)
    pid_file = str(tmp_path / "pids")
    prog = tmp_path / "prog.sh"
    prog.write_text("#!/bin/sh\nsleep 30 & echo $! >> %s; wait\n" % pid_file)
    prog.chmod(0o755)
    saved = signal.signal(signal.SIGALRM, interrupt)
    try:
        for _ in range(12):
            cc = "sh -c 'sleep %.3f & echo $! >> %s; wait; cp %s \"$0\"' {out}" % (
                rng.uniform(0, 0.3), pid_file, prog)
            oracle_delay[0] = rng.uniform(0, 0.03)
            del children[:], files[:]
            with contextlib.suppress(FileNotFoundError):
                os.remove(pid_file)
            start = time.monotonic()
            with pytest.raises(Interrupted), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                signal.setitimer(signal.ITIMER_REAL, rng.uniform(0, 0.4))
                cmd_check(spec_file, out, cc, paths=[0, 1, 2])
            assert time.monotonic() - start < 10.0  # no 30 s binary ran to its end
            assert len(children) <= 2  # the compile, and the binary at one PATH at most
            assert all(child.returncode is not None for child in children)  # reaped
            assert all(fh.closed for fh in files)  # the output files too
            assert all(exited(pid) for pid in recorded_pids(pid_file))  # sleeps killed too
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)


def test_a_child_started_by_an_interrupted_popen_is_killed(tmp_path, monkeypatch):
    # an interrupt can arrive inside Popen after the fork; the child and the
    # sleep it started must die all the same
    pid_file = str(tmp_path / "pids")
    started = []

    class InterruptedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)
            deadline = time.monotonic() + 5.0
            while not recorded_pids(pid_file) and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

    monkeypatch.setattr(subprocess, "Popen", InterruptedPopen)
    with pytest.raises(KeyboardInterrupt):
        bench.timed_run(["sh", "-c", "sleep 30 & echo $! >> %s; wait" % pid_file])
    assert len(started) == 1 and started[0].returncode is not None  # killed and reaped
    assert recorded_pids(pid_file)
    assert all(exited(pid) for pid in recorded_pids(pid_file))


def test_start_closes_its_first_temp_file_when_the_second_is_interrupted(monkeypatch):
    files = []
    real_temporary_file = tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        if files:
            raise KeyboardInterrupt
        files.append(real_temporary_file(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    with pytest.raises(KeyboardInterrupt):
        bench.timed_run(["true"])
    assert len(files) == 1 and files[0].closed


def test_check_refuses_an_empty_path_list_before_compiling(spec_file, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    compiles = []
    monkeypatch.setattr(bench, "start_compile", lambda *args, **kwargs: compiles.append(args))
    with pytest.raises(BenchError, match="at least one PATH"):
        cmd_check(spec_file, out, "cc {in} -o {out}", paths=[])
    assert compiles == []


# ---------------------------------------------------------------------------
# measure


@needs_c
def test_measure_two_flag_sets_two_rows(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    capsys.readouterr()
    json_path = str(tmp_path / "rows.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, CC_FLAGS, flag_sets=["-O0", "-O2"],
            repetitions=3, warmups=1, json_path=json_path,
        )
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(results) == 2
    for m in results:
        assert not m.failed, m.error
        assert m.compile_time_ms > 0
        assert m.run_time_ms > 0
        assert m.binary_bytes > 0
        assert m.checksum is not None
    assert len(rows) == 2
    assert rows[0]["flags"] == "-O0"
    assert rows[1]["flags"] == "-O2"
    assert rows[0]["checksum"] == rows[1]["checksum"]
    with open(json_path, encoding="utf-8") as fh:
        json_rows = [json.loads(line) for line in fh]
    assert len(json_rows) == 2
    assert len(json_rows[0]) == len(bench.MEASUREMENT_COLUMNS)


@needs_c
def test_measure_checksum_matches_oracle(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(spec_file, out, CC_FLAGS, flag_sets=["-O1"],
                              repetitions=2, warmups=0, path=1)
    capsys.readouterr()
    assert results[0].checksum == manifest["oracleChecksumPath1"]


@needs_c
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_measure_path1_checks_against_the_manifest_checksum(spec_file, tmp_path, capsys,
                                                            monkeypatch):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    interpret = oracle.interpret

    def no_oracle(*args, **kwargs):
        raise AssertionError("measure re-ran the oracle at PATH 1")

    def measure(path):
        return cmd_measure(spec_file, out, CC_FLAGS, flag_sets=["-O0"],
                           repetitions=1, warmups=0, path=path)

    monkeypatch.setattr(bench.oracle, "interpret", no_oracle)
    (m,) = measure(1)
    assert not m.failed, m.error
    assert m.checksum == manifest["oracleChecksumPath1"]

    manifest["oracleChecksumPath1"] += 1
    with open(os.path.join(out, bench.MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(bench.manifest_to_json(manifest))
    (m,) = measure(1)
    assert m.failed
    assert "checksum mismatch" in m.error

    monkeypatch.setattr(bench.oracle, "interpret", interpret)
    program = program_from_manifest(manifest)
    (m,) = measure(2)
    capsys.readouterr()
    assert not m.failed, m.error
    assert m.checksum == interpret(program, oracle.ExecConfig(path=2))[1].checksum


@pytest.mark.parametrize("repetitions, warmups, message", [
    (0, 3, "repetitions must be at least 1, got 0"),
    (-2, 3, "repetitions must be at least 1, got -2"),
    (10, -4, "warmups must be at least 0, got -4"),
])
def test_measure_and_sweep_reject_bad_run_counts(repetitions, warmups, message,
                                                 spec_file, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled despite a bad run count")

    monkeypatch.setattr(bench, "start_compile", no_compile)
    with pytest.raises(ValueError, match=message):
        cmd_measure(spec_file, out, CC_FLAGS, flag_sets=[""],
                    repetitions=repetitions, warmups=warmups)
    with pytest.raises(ValueError, match=message):
        cmd_sweep_pgo(spec_file, out, "a", "b", "c", bit_counts=[1],
                      repetitions=repetitions, warmups=warmups)


def test_median_run_ms_discards_the_warmups(monkeypatch):
    elapsed = iter([100.0, 90.0, 1.0, 3.0, 2.0])
    calls = []

    def fake_run(argv, cwd=None, env=None):
        calls.append(argv)
        return next(elapsed), subprocess.CompletedProcess(argv, 0, "CHECKSUM 7\n", "")

    monkeypatch.setattr(bench, "timed_run", fake_run)
    assert bench._median_run_ms("prog", 5, repetitions=3, warmups=2, checksum=7) == 2.0
    assert calls == [["prog", "5"]] * 5


def test_measure_unknown_compiler_marks_rows_failed(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, "definitely-not-a-compiler-9000 {flags} {in} -o {out}",
            flag_sets=["-O0", "-O2"], repetitions=2, warmups=0,
        )
    capsys.readouterr()
    assert len(results) == 2
    assert all(m.failed for m in results)
    assert all(m.error for m in results)


def test_measure_a_failing_binary_fails_its_row_with_exit_code_and_stderr(
        spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    # a flag set needs a {flags} field; env holds it in a variable the script ignores
    cc = "env FLAGS={flags} " + script_cc(tmp_path, "echo boom >&2; exit 3")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(spec_file, out, cc, flag_sets=["-O0", "-O2"],
                              repetitions=1, warmups=0)
    capsys.readouterr()
    assert [(m.failed, m.error) for m in results] == [
        (True, "benchmark binary failed: exit=3 boom")] * 2
    assert all(m.compile_time_ms > 0 and m.run_time_ms == 0 for m in results)


_BAD_TEMPLATES = [("cc {foo} {in} -o {out}", None, r"unknown placeholder \{foo\}"),
                  ("cc {in} -o {out}", "size {foo}", r"unknown placeholder \{foo\}"),
                  ("cc {in.x} -o {out}", None, r"unknown placeholder \{in\.x\}"),
                  ("cc {in[0]} -o {out}", None, r"unknown placeholder \{in\[0\]\}"),
                  ("cc {in} -o {out!r}", None, r"unknown placeholder \{out!r\}"),
                  ("cc {in:>5} -o {out}", None, r"unknown placeholder \{in:>5\}"),
                  ("cc {in} -o {out}", "size {bin.x}", r"unknown placeholder \{bin\.x\}"),
                  ("", None, "^empty command template: ''$")]


# ids name the templates only
@pytest.mark.parametrize("cc, size_cmd, message", _BAD_TEMPLATES,
                         ids=[f"{cc}-{size_cmd}" for cc, size_cmd, _ in _BAD_TEMPLATES])
def test_measure_refuses_a_bad_template_before_starting_a_child(
        spec_file, tmp_path, monkeypatch, cc, size_cmd, message):
    # a usage error (exit 2), not a failed row
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    started = []
    monkeypatch.setattr(bench, "_start", lambda argv, *args, **kwargs: started.append(argv))
    with pytest.raises(BenchError, match=message):
        cmd_measure(spec_file, out, cc, flag_sets=[""], size_cmd=size_cmd)
    assert started == []


@needs_c
def test_measure_size_cmd_hook(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, CC_FLAGS, flag_sets=[""], repetitions=2, warmups=0,
            size_cmd="stat -c %s {bin}",
        )
    capsys.readouterr()
    assert results[0].text_bytes == results[0].binary_bytes


@needs_c
@pytest.mark.parametrize("size_cmd", ["false {bin}", "echo no-size {bin}"])
def test_measure_a_failed_size_cmd_marks_the_row_failed(spec_file, tmp_path, capsys, size_cmd):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, CC_FLAGS, flag_sets=[""], repetitions=1, warmups=0,
            size_cmd=size_cmd,
        )
    capsys.readouterr()
    assert results[0].failed
    assert results[0].error.startswith("size command failed")
    assert results[0].text_bytes is None


# ---------------------------------------------------------------------------
# sweep-pgo


@needs_c
def test_sweep_pgo_schema_and_ratios(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 5, default_plan(), codegen.EmitConfig(backend="c"))
    base = "%s -std=c99 -O2 {in} -o {out}" % C_COMPILER
    train = "%s -std=c99 -O2 -fprofile-generate {in} -o {out}" % C_COMPILER
    opt = "%s -std=c99 -O2 -fprofile-use -Werror=missing-profile {in} -o {out}" % C_COMPILER
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = cmd_sweep_pgo(
            spec_file, out, base, train, opt,
            bit_counts=[1, 32], train_path=1,
            repetitions=3, warmups=1,
        )
    parsed = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["i"] for row in rows] == [1, 32]
    assert rows[0]["path"] == 1
    assert rows[1]["path"] == 2**32 - 1
    for row in rows:
        assert list(row) == bench.SWEEP_COLUMNS
        assert row["t_ms"] > 0
        assert row["ti_ms"] > 0
        assert row["ratio"] > 0
    assert [(int(row["i"]), int(row["path"])) for row in parsed] == [(1, 1), (32, 2**32 - 1)]


def cc_o2(flags=""):
    return "%s -std=c99 -O2 %s {in} -o {out}" % (C_COMPILER, flags)


@needs_c
def test_sweep_pgo_refuses_an_optimized_binary_built_without_its_profile(
        spec_file, tmp_path, capsys):
    # no instrumented training binary, so no profile: gcc only warns
    if "gcc" not in C_COMPILER:
        pytest.skip("checks gcc's -Wmissing-profile")
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with pytest.raises(BenchError, match="prog-opt was compiled without its profile"):
        cmd_sweep_pgo(spec_file, out, cc_o2(), cc_o2(), cc_o2("-fprofile-use"),
                      bit_counts=[1])
    capsys.readouterr()


def oracle_sums(out, paths):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = program_from_manifest(load_manifest(out))
    return {path: oracle.interpret(program, oracle.ExecConfig(path=path))[1].checksum
            for path in paths}


def fake_timed_run(checksum):
    """A timed_run under which the swept binaries print CHECKSUM
    checksum(binary, path) at once; any other command runs."""
    real = bench.timed_run

    def timed_run(argv, cwd=None, env=None, stdout=None):
        if not argv[0].endswith(("prog-base", "prog-opt")):
            return real(argv, cwd, env, stdout)
        line = "CHECKSUM %d\n" % checksum(argv[0], int(argv[1]))
        return 1.0, subprocess.CompletedProcess(argv, 0, line, "")
    return timed_run


@needs_c
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_pgo_checks_the_checksums_it_times(spec_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    sums = oracle_sums(out, (1, 3))

    def checksum(binary, path):
        return sums[path] + (binary.endswith("prog-opt") and path == 3)

    monkeypatch.setattr(bench, "timed_run", fake_timed_run(checksum))
    with pytest.raises(BenchError, match=f"^checksum mismatch at path=3 \\(optimized binary\\): "
                                         f"first divergence at event 0: got 'CHECKSUM {sums[3] + 1}', "
                                         f"want 'CHECKSUM {sums[3]}'$"):
        cmd_sweep_pgo(spec_file, out, cc_o2(), cc_o2(), cc_o2(), bit_counts=[1, 2])
    capsys.readouterr()


@needs_c
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_pgo_checks_the_baseline_against_the_oracle(spec_file, tmp_path, capsys,
                                                          monkeypatch):
    # both builds agree with each other, but not with the oracle, at PATH 3
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    sums = oracle_sums(out, (1, 3))
    monkeypatch.setattr(bench, "timed_run",
                        fake_timed_run(lambda binary, path: sums[path] + (path == 3)))
    with pytest.raises(BenchError, match=f"^checksum mismatch at path=3 \\(baseline binary\\): "
                                         f"first divergence at event 0: got 'CHECKSUM {sums[3] + 1}', "
                                         f"want 'CHECKSUM {sums[3]}'$"):
        cmd_sweep_pgo(spec_file, out, cc_o2(), cc_o2(), cc_o2(), bit_counts=[1, 2])
    capsys.readouterr()


STRAY_LINES = {"a trace line first": ("OP kind=new var=0 val=0 res=1", "{checksum}"),
               "a line after": ("{checksum}", "done"),
               "a CRLF ending": ("{checksum}\r",)}


def stray_line_cc(tmp_path, sums, lines):
    """A --cc template whose "binary" prints the oracle's CHECKSUM line at
    each PATH of sums, with a stray line or a stray \\r beside it."""
    cases = " ".join(f"{path}) c='CHECKSUM {checksum}';;" for path, checksum in sums.items())
    text = "".join(line + "\n" for line in lines)
    fmt = text.format(checksum="%s").replace("\r", "\\r").replace("\n", "\\n")
    return script_cc(tmp_path, f"case $1 in {cases} esac; printf '{fmt}'" + ' "$c"' * len(lines))


@pytest.mark.parametrize("lines", STRAY_LINES.values(), ids=STRAY_LINES.keys())
def test_measure_and_sweep_accept_only_the_checksum_line(spec_file, tmp_path, capsys, lines):
    # Before, the last CHECKSUM line was parsed, so any other line passed,
    # its printing timed with the run; and stdout was read with each \r\n
    # turned into \n, which check --checksum-only refuses.
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    sums = oracle_sums(out, (1, 3))
    cc = stray_line_cc(tmp_path, sums, lines)
    got = lines[0].format(checksum=f"CHECKSUM {sums[1]}")
    want = f"CHECKSUM {sums[1]}"
    stray = (f"first divergence at event 0: got {got!r}, want {want!r}" if got != want
             else f"first divergence at event 1: got {lines[1]!r}, want '<missing>'")
    (m,) = cmd_measure(spec_file, out, cc, flag_sets=[""], repetitions=1, warmups=0)
    assert m.failed
    assert m.error == f"checksum mismatch: {stray}"
    assert (m.run_time_ms, m.checksum, m.text_bytes) == (0.0, None, None)
    with pytest.raises(BenchError, match=re.escape(f"checksum mismatch at path=1 (baseline "
                                                   f"binary): {stray}") + "$"):
        cmd_sweep_pgo(spec_file, out, cc, cc, cc, bit_counts=[1, 2])
    capsys.readouterr()


def test_measure_and_sweep_check_every_run_warmups_included(spec_file, tmp_path, capsys):
    # Before, only the last run's stdout was checked, so a binary that is
    # wrong on its first run, a warm-up, passed.
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    sums = oracle_sums(out, (1, 3))
    cases = " ".join(f"{path}) right={checksum} wrong={checksum + 1};;"
                     for path, checksum in sums.items())
    cc = script_cc(tmp_path, f"case $1 in {cases} esac; if [ -e \"$0.ran\" ]; then "
                             f"echo CHECKSUM $right; else touch \"$0.ran\"; echo CHECKSUM $wrong; fi")
    wrong = (f"first divergence at event 0: got 'CHECKSUM {sums[1] + 1}', "
             f"want 'CHECKSUM {sums[1]}'")
    (m,) = cmd_measure(spec_file, out, cc, flag_sets=[""], repetitions=2, warmups=1)
    assert (m.failed, m.error) == (True, f"checksum mismatch: {wrong}")
    assert (m.run_time_ms, m.checksum) == (0.0, None)
    with pytest.raises(BenchError, match=re.escape(f"checksum mismatch at path=1 (baseline "
                                                   f"binary): {wrong}") + "$"):
        cmd_sweep_pgo(spec_file, out, cc, cc, cc, bit_counts=[1, 2], repetitions=2, warmups=1)
    capsys.readouterr()


@needs_c
def test_sweep_pgo_fails_when_the_profile_merge_fails(spec_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    tools = tmp_path / "tools"
    tools.mkdir()
    fake = tools / "llvm-profdata"
    fake.write_text("#!/bin/sh\necho 'bad profile data' >&2\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", "%s%s%s" % (tools, os.pathsep, os.environ["PATH"]))
    # a training "compile" that leaves a raw profile where the run would
    train = "sh -c '%s -std=c99 {in} -o \"$0\" && touch default.profraw' {out}" % C_COMPILER
    with pytest.raises(BenchError, match="llvm-profdata merge failed: exit=3 bad profile data"):
        cmd_sweep_pgo(spec_file, out, cc_o2(), train, cc_o2(), bit_counts=[1])
    capsys.readouterr()


def test_sweep_pgo_fails_when_the_training_run_fails(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    cc = script_cc(tmp_path, "echo no profile >&2; exit 3")
    with pytest.raises(BenchError, match="^training run failed: exit=3 no profile$"):
        cmd_sweep_pgo(spec_file, out, cc, cc, cc, bit_counts=[1])
    capsys.readouterr()


@needs_c
def test_sweep_pgo_missing_tooling_is_explanatory(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    bad = "%s -std=c99 -fprofile-no-such-flag {in} -o {out}" % C_COMPILER
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(BenchError, match="compile failed"):
            cmd_sweep_pgo(spec_file, out, bad, bad, bad, bit_counts=[1])
    capsys.readouterr()


def test_sweep_pgo_fails_when_a_compile_writes_no_binary(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 3, default_plan(), codegen.EmitConfig(backend="c"))
    with pytest.raises(BenchError, match=r"^compile failed for prog-base .*: "
                                         r"exit=0 but wrote no binary .*prog$"):
        cmd_sweep_pgo(spec_file, out, "true {in} {out}", "true {in} {out}", "true {in} {out}",
                      bit_counts=[1])
    capsys.readouterr()
