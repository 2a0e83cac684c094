import csv
import json
import os
import warnings
from pathlib import Path

import pytest

from helpers import CONTAINER_STRESS_SPEC, STRICT_C_FLAGS, find_c_compiler
from lsysbench import astgen, bench, codegen, grammar
from lsysbench.cli import build_parser, main

C_COMPILER = find_c_compiler()
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
needs_c = pytest.mark.skipif(C_COMPILER is None, reason="no C toolchain found on PATH")


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "stress.lsys"
    path.write_text(CONTAINER_STRESS_SPEC)
    return str(path)


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("gen", "check", "measure", "sweep-pgo"):
        assert name in text


def test_gen_subcommand_writes_out_dir(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli(["gen", spec_file, "--generations", "4", "--out", out])
    assert code == 0
    assert sorted(os.listdir(out)) == ["main.c", "manifest.json", "runtime.h"]
    assert "wrote 2 source file(s)" in capsys.readouterr().out


def test_gen_container_choice_maps_to_internal_name(spec_file, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--container", "sortedlist", "--out", out]) == 0
    manifest = bench.load_manifest(out)
    assert manifest["containerKind"] == "sortedList"


def test_gen_go_backend_split(spec_file, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--backend", "go", "--split-files", "--out", out]) == 0
    manifest = bench.load_manifest(out)
    assert manifest["files"] == ["main.go"]  # single function: F files


def test_gen_missing_spec_file_is_error(tmp_path, capsys):
    code = run_cli(["gen", str(tmp_path / "nope.lsys"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_gen_unreadable_spec_or_unwritable_out_is_error(spec_file, tmp_path, capsys):
    # a directory as the spec, and an --out below a file
    for argv in (["gen", str(tmp_path), "--out", str(tmp_path / "out")],
                 ["gen", spec_file, "--out", os.path.join(spec_file, "x")]):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_gen_bad_spec_reports_position(tmp_path, capsys):
    spec = tmp_path / "bad.lsys"
    spec.write_text("A = IF(insert\n")
    code = run_cli(["gen", str(spec), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_bad_container_choice_rejected(spec_file, tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["gen", spec_file, "--container", "hashmap", "--out", str(tmp_path / "o")])


def test_check_requires_gen_first(spec_file, tmp_path, capsys):
    code = run_cli(["check", spec_file, "--out", str(tmp_path / "missing"),
                    "--cc", "cc {in} -o {out}"])
    assert code == 2
    assert "gen" in capsys.readouterr().err


USAGE_PREFIXES = {
    "check": ["check", "s.lsys", "--cc", "cc {in} -o {out}"],
    "measure": ["measure", "s.lsys", "--cc", "cc {flags} {in} -o {out}"],
    "sweep-pgo": ["sweep-pgo", "s.lsys", "--cc-base", "a", "--cc-train", "b", "--cc-opt", "c"],
}


@pytest.mark.parametrize("command, flag", [
    ("check", ["--seed", "5"]),
    ("measure", ["--container", "scalar"]),
    ("sweep-pgo", ["--generations", "3"]),
])
def test_generation_flags_are_usage_errors_after_gen(command, flag, capsys):
    # These commands read the manifest; a generation flag would be ignored.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(USAGE_PREFIXES[command] + flag)
    assert excinfo.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--paths", "0,18446744073709551616"),
    ("measure", "--path", "-1"),
    ("sweep-pgo", "--train-path", "18446744073709551616"),
])
def test_path_flags_reject_values_outside_64_bits(command, flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(USAGE_PREFIXES[command] + [flag, value])
    assert excinfo.value.code == 2
    assert "PATH must be in [0, 2^64)" in capsys.readouterr().err
    top = str(2**64 - 1)
    args = build_parser().parse_args(USAGE_PREFIXES[command] + [flag, top])
    assert vars(args)[flag[2:].replace("-", "_")] in (2**64 - 1, [2**64 - 1])


@pytest.mark.parametrize("prefix, flag, value", [
    (["gen", "s.lsys"], "--seed", "18446744073709551616"),
    (["gen", "s.lsys"], "--seed", "-1"),
    (USAGE_PREFIXES["check"], "--seeds", "3,18446744073709551616"),
    (USAGE_PREFIXES["check"], "--seeds", "-1"),
])
def test_seed_flags_reject_values_outside_64_bits(prefix, flag, value, capsys):
    # The emitted C bakes the seed into UINT64_C(...), and Go into uint64(...):
    # 2^64 does not compile, and neither does a negative value in Go.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(prefix + [flag, value])
    assert excinfo.value.code == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err
    args = build_parser().parse_args(prefix + [flag, str(2**64 - 1)])
    assert vars(args)[flag[2:]] in (2**64 - 1, [2**64 - 1])


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--paths", ""),
    ("check", "--paths", ","),
    ("check", "--seeds", ""),
    ("check", "--seeds", " , "),
    ("sweep-pgo", "--bits", ""),
])
def test_list_flags_reject_empty_lists(command, flag, value, capsys):
    # An empty list would check nothing and pass, or fall back to a default.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(USAGE_PREFIXES[command] + [flag, value])
    assert excinfo.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("measure", "--repetitions", "0"),
    ("measure", "--warmups", "-4"),
    ("sweep-pgo", "--repetitions", "0"),
    ("sweep-pgo", "--warmups", "-1"),
])
def test_run_count_flags_reject_values_that_were_clamped(
        command, flag, value, spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    capsys.readouterr()
    argv = USAGE_PREFIXES[command] + ["--out", out, flag, value]
    argv[1] = spec_file
    assert run_cli(argv) == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("check", []),
    ("measure", ["--no-oracle-check"]),
    ("sweep-pgo", []),
])
def test_commands_refuse_a_spec_other_than_the_manifests(
        command, extra, spec_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    other = tmp_path / "other.lsys"
    other.write_text("A = insert\n")

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled despite a mismatched spec")

    monkeypatch.setattr(bench, "start_compile", no_compile)
    capsys.readouterr()
    argv = USAGE_PREFIXES[command] + extra + ["--out", out]
    argv[1] = str(other)
    assert run_cli(argv) == 2
    assert "sha256" in capsys.readouterr().err


def test_gen_refuses_a_value_range_above_2_to_the_31(spec_file, tmp_path, capsys):
    # The planner's generator gives 31 bits, so a wider range was capped silently.
    out = str(tmp_path / "out")
    argv = ["gen", spec_file, "--generations", "3", "--out", out, "--value-range"]
    assert run_cli(argv + [str(2**31 + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: value_range must be in [1, 2^31]")
    assert not os.path.exists(out)
    assert run_cli(argv + [str(2**31)]) == 0
    assert bench.load_manifest(out)["valueRange"] == 2**31


def _exit_2_on_edited_manifest(command, edit, spec_file, tmp_path, capsys, monkeypatch):
    """Run gen, edit its manifest, then run `command` with compiling
    forbidden; require exit 2 and return stderr."""
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0
    path = os.path.join(out, bench.MANIFEST_NAME)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled from a manifest it should refuse")

    monkeypatch.setattr(bench, "start_compile", no_compile)
    monkeypatch.setattr(bench, "compile_sources", no_compile)
    capsys.readouterr()
    argv = USAGE_PREFIXES[command] + ["--out", out]
    argv[1] = spec_file
    assert run_cli(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("check", "files"),
    ("check", "backend"),
    ("check", "splitFiles"),
    ("measure", "oracleChecksumPath1"),
    ("measure", "specName"),
    ("sweep-pgo", "files"),
    ("sweep-pgo", "valueRange"),
])
def test_commands_refuse_a_manifest_that_lacks_a_key(
        command, key, spec_file, tmp_path, capsys, monkeypatch):
    err = _exit_2_on_edited_manifest(command, lambda manifest: manifest.pop(key),
                                     spec_file, tmp_path, capsys, monkeypatch)
    assert err.startswith("error: ")
    assert err.rstrip().endswith(f"lacks {key!r}; run `gen` again")


@pytest.mark.parametrize("command, key, value, want", [
    ("check", "files", 3, "list of str"),
    ("sweep-pgo", "files", ["main.c", 3], "list of str"),
    ("check", "generations", "2", "int"),
    ("measure", "oracleChecksumPath1", "1", "int"),
    ("measure", "seed", True, "int"),
    ("check", "splitFiles", 0, "bool"),
    ("check", "backend", None, "str"),
])
def test_commands_refuse_a_manifest_key_of_the_wrong_type(
        command, key, value, want, spec_file, tmp_path, capsys, monkeypatch):
    err = _exit_2_on_edited_manifest(command, lambda manifest: manifest.update({key: value}),
                                     spec_file, tmp_path, capsys, monkeypatch)
    assert err.startswith("error: ")
    assert err.rstrip().endswith(f"{key!r} must be {want}, got {value!r}; run `gen` again")


@pytest.mark.parametrize("command", ["check", "measure"])
def test_commands_refuse_a_manifest_with_an_unknown_backend(
        command, spec_file, tmp_path, capsys, monkeypatch):
    err = _exit_2_on_edited_manifest(command, lambda manifest: manifest.update(backend="txt"),
                                     spec_file, tmp_path, capsys, monkeypatch)
    assert err.startswith("error: unknown backend 'txt'")


@needs_c
def test_gen_check_measure_round_trip(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    cc = "%s %s -O0 {in} -o {out}" % (C_COMPILER, " ".join(STRICT_C_FLAGS))
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    assert run_cli(["check", spec_file, "--out", out, "--cc", cc, "--paths", "0,1"]) == 0

    csv_path = str(tmp_path / "m.csv")
    code = run_cli(["measure", spec_file, "--out", out,
                    "--cc", "%s -std=c99 {flags} {in} -o {out}" % C_COMPILER,
                    "--flags=-O0", "--flags=-O2",
                    "--repetitions", "2", "--warmups", "0", "--csv", csv_path])
    assert code == 0
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["compileTimeMs"]) > 0
    capsys.readouterr()


@needs_c
def test_check_nonzero_exit_on_corruption(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    cc = "%s -std=c99 -O0 {in} -o {out}" % C_COMPILER
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    main_c = os.path.join(out, "main.c")
    with open(main_c, encoding="utf-8") as fh:
        text = fh.read()
    with open(main_c, "w", encoding="utf-8") as fh:
        fh.write(text.replace("ls_contains(v", "ls_remove(v", 1))
    assert run_cli(["check", spec_file, "--out", out, "--cc", cc, "--paths", "1"]) == 1
    capsys.readouterr()


@needs_c
def test_sweep_pgo_subcommand(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    csv_path = str(tmp_path / "sweep.csv")
    code = run_cli([
        "sweep-pgo", spec_file, "--out", out,
        "--cc-base", "%s -std=c99 -O2 {in} -o {out}" % C_COMPILER,
        "--cc-train", "%s -std=c99 -O2 -fprofile-generate {in} -o {out}" % C_COMPILER,
        "--cc-opt", "%s -std=c99 -O2 -fprofile-use -Werror=missing-profile {in} -o {out}"
        % C_COMPILER,
        "--bits", "1", "--repetitions", "2", "--warmups", "0", "--csv", csv_path,
    ])
    assert code == 0
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["i"] == "1"
    assert rows[0]["path"] == "1"
    capsys.readouterr()


def test_measure_unknown_compiler_exits_nonzero(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    code = run_cli(["measure", spec_file, "--out", out,
                    "--cc", "not-a-real-compiler {flags} {in} -o {out}",
                    "--repetitions", "1", "--warmups", "0", "--no-oracle-check"])
    assert code == 1
    capsys.readouterr()


def test_measure_a_compile_that_writes_no_binary_fails_its_rows(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0
    csv_path = str(tmp_path / "m.csv")
    code = run_cli(["measure", spec_file, "--out", out, "--cc", "true {in} {out} {flags}",
                    "--flags=-O0", "--flags=-O2", "--repetitions", "1", "--warmups", "0",
                    "--csv", csv_path])
    assert code == 1
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["flags"] for row in rows] == ["-O0", "-O2"]
    for row in rows:
        assert row["failed"] == "True"
        assert row["error"].startswith("compile failed: exit=0 but wrote no binary ")
        assert row["error"].endswith(os.sep + "prog")
    capsys.readouterr()


def test_a_container_without_a_runtime_is_a_backend_error(spec_file, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.delitem(codegen.go._KINDS, "scalar")
    derived = grammar.derive(grammar.parse_spec(CONTAINER_STRESS_SPEC), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = astgen.lower(derived, astgen.OperandPlan(container_kind="scalar"))
    with pytest.raises(codegen.BackendError, match="the go backend has no runtime for "
                                                   "the 'scalar' container"):
        codegen.emit(program, codegen.EmitConfig(backend="go"))
    code = run_cli(["gen", spec_file, "--backend", "go", "--container", "scalar",
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: the go backend has no runtime")


def test_console_script_entry_point():
    """`[project.scripts]` declares `lsysbench = "lsysbench.cli:main"`, and the
    target resolves to the CLI's callable `main`. Checked from the checkout, so
    no install is needed; an installed distribution's metadata is checked too."""
    import importlib
    import importlib.metadata as md

    try:
        dist = md.distribution("lsysbench")
    except md.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed.get("lsysbench") == "lsysbench.cli:main"

    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["lsysbench"] == "lsysbench.cli:main"
    module_name, _, attr = scripts["lsysbench"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is main
    assert callable(target)
