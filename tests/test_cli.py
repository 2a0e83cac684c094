import csv
import json
import os
import warnings
from pathlib import Path

import pytest

from helpers import CONTAINER_STRESS_SPEC, STRICT_C_FLAGS, find_c_compiler
from lsysbench import bench
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

    monkeypatch.setattr(bench, "compile_sources", no_compile)
    capsys.readouterr()
    argv = USAGE_PREFIXES[command] + extra + ["--out", out]
    argv[1] = str(other)
    assert run_cli(argv) == 2
    assert "sha256" in capsys.readouterr().err


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
        "--cc-opt", "%s -std=c99 -O2 -fprofile-use {in} -o {out}" % C_COMPILER,
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
