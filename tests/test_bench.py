import csv
import hashlib
import io
import json
import os
import warnings

import pytest

from helpers import CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC, STRICT_C_FLAGS, find_c_compiler
from lsysbench import astgen, bench, codegen, oracle
from lsysbench.bench import (
    BenchError,
    Measurement,
    SweepConfig,
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
        program = program_from_manifest(CONTAINER_STRESS_SPEC, manifest)
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


def test_gen_empty_program_warns_and_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "empty.lsys"
    spec.write_text("A = B C\n")
    out = str(tmp_path / "out")
    manifest = gen_quiet(str(spec), out, 0, default_plan(), codegen.EmitConfig(backend="c"))
    assert manifest is None
    assert not os.path.exists(out)
    assert "nothing to emit" in capsys.readouterr().err


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


def test_load_manifest_bad_schema(tmp_path):
    (tmp_path / bench.MANIFEST_NAME).write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(BenchError, match="schema"):
        load_manifest(str(tmp_path))


def test_program_from_manifest_rejects_wrong_spec(spec_file, tmp_path):
    out = str(tmp_path / "out")
    manifest = gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with pytest.raises(BenchError, match="sha256"):
        program_from_manifest("X = insert\n", manifest)


# ---------------------------------------------------------------------------
# small helpers


def test_render_template_placeholders():
    argv = render_template("gcc {flags} {in} -o {out}",
                           {"flags": "-O2 -g", "in": "a.c b.c", "out": "prog"})
    assert argv == ["gcc", "-O2", "-g", "a.c", "b.c", "-o", "prog"]


def test_render_template_unknown_placeholder():
    with pytest.raises(BenchError, match="placeholder"):
        render_template("gcc {oops}", {"in": "a.c"})


def test_parse_checksum():
    assert parse_checksum("OP kind=new var=1 val=0 res=1\nCHECKSUM 42\n") == 42
    assert parse_checksum("") is None
    assert parse_checksum("CHECKSUM banana\n") is None


def test_write_csv_is_rfc4180():
    rows = [{"a": 'say "hi"', "b": "x,y", "c": None}]
    text = write_csv(rows, ["a", "b", "c"], None)
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


def test_sweep_config_paths():
    assert SweepConfig.path_of(1) == 1
    assert SweepConfig.path_of(8) == 255
    assert SweepConfig.path_of(63) == 2**63 - 1
    assert SweepConfig([1, 63]).bit_counts == [1, 63]
    with pytest.raises(ValueError, match="out of range"):
        SweepConfig([0])
    with pytest.raises(ValueError, match="out of range"):
        SweepConfig([64])


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
def test_check_extra_seed_regenerates_and_passes(spec_file, tmp_path):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = cmd_check(spec_file, out, CC_STRICT, paths=[1], seeds=[0, 11])
    assert ok is True


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
    rows = [json.loads(line) for line in open(report, encoding="utf-8")]
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


@needs_c
def test_check_checksum_only_mode(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = cmd_check(spec_file, out, CC_STRICT, paths=[0, 1], checksum_only=True)
    assert ok is True
    assert "pass" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# measure


@needs_c
def test_measure_two_flag_sets_two_rows(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    csv_path = str(tmp_path / "rows.csv")
    json_path = str(tmp_path / "rows.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, CC_FLAGS, flag_sets=["-O0", "-O2"],
            repetitions=3, warmups=1, csv_path=csv_path, json_path=json_path,
        )
    capsys.readouterr()
    assert len(results) == 2
    for m in results:
        assert not m.failed, m.error
        assert m.compile_time_ms > 0
        assert m.run_time_ms > 0
        assert m.binary_bytes > 0
        assert m.checksum is not None
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["flags"] == "-O0"
    assert rows[1]["flags"] == "-O2"
    assert rows[0]["checksum"] == rows[1]["checksum"]
    json_rows = [json.loads(line) for line in open(json_path, encoding="utf-8")]
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
    program = program_from_manifest(CONTAINER_STRESS_SPEC, manifest)
    (m,) = measure(2)
    capsys.readouterr()
    assert not m.failed, m.error
    assert m.checksum == interpret(program, oracle.ExecConfig(path=2))[1].checksum


def test_measure_unknown_compiler_marks_rows_failed(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, "definitely-not-a-compiler-9000 {flags} {in} -o {out}",
            flag_sets=["-O0", "-O2"], repetitions=2, warmups=0, oracle_check=False,
        )
    capsys.readouterr()
    assert len(results) == 2
    assert all(m.failed for m in results)
    assert all(m.error for m in results)


@needs_c
def test_measure_size_cmd_hook(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = cmd_measure(
            spec_file, out, CC_FLAGS, flag_sets=[""], repetitions=2, warmups=0,
            size_cmd="stat -c %s {bin}", oracle_check=False,
        )
    capsys.readouterr()
    assert results[0].text_bytes == results[0].binary_bytes


# ---------------------------------------------------------------------------
# sweep-pgo


@needs_c
def test_sweep_pgo_schema_and_ratios(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 5, default_plan(), codegen.EmitConfig(backend="c"))
    base = "%s -std=c99 -O2 {in} -o {out}" % C_COMPILER
    train = "%s -std=c99 -O2 -fprofile-generate {in} -o {out}" % C_COMPILER
    opt = "%s -std=c99 -O2 -fprofile-use {in} -o {out}" % C_COMPILER
    csv_path = str(tmp_path / "sweep.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = cmd_sweep_pgo(
            spec_file, out, base, train, opt,
            sweep=SweepConfig([1, 32]), train_path=1,
            repetitions=3, warmups=1, csv_path=csv_path,
        )
    capsys.readouterr()
    assert [row["i"] for row in rows] == [1, 32]
    assert rows[0]["path"] == 1
    assert rows[1]["path"] == 2**32 - 1
    for row in rows:
        assert list(row) == bench.SWEEP_COLUMNS
        assert row["t_ms"] > 0
        assert row["ti_ms"] > 0
        assert row["ratio"] > 0
    with open(csv_path, encoding="utf-8", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2


@needs_c
def test_sweep_pgo_missing_tooling_is_explanatory(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    gen_quiet(spec_file, out, 4, default_plan(), codegen.EmitConfig(backend="c"))
    bad = "%s -std=c99 -fprofile-no-such-flag {in} -o {out}" % C_COMPILER
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(BenchError, match="compile failed"):
            cmd_sweep_pgo(spec_file, out, bad, bad, bad, sweep=SweepConfig([1]))
    capsys.readouterr()
