import argparse
import ast
import csv
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from helpers import CALL_CHURN_SPEC, CONTAINER_STRESS_SPEC, STRICT_C_FLAGS, find_c_compiler
from lsysbench import astgen, bench, codegen, grammar, oracle
from lsysbench.cli import build_parser, main

C_COMPILER = find_c_compiler()
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
needs_c = pytest.mark.skipif(C_COMPILER is None, reason="no C toolchain found on PATH")


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "stress.lsys"
    path.write_text(CONTAINER_STRESS_SPEC)
    return str(path)


def src_env():
    """The environment, with this checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PYPROJECT.parent / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("gen", "check", "measure", "sweep-pgo"):
        assert name in text


def test_readme_cli_reference_names_every_option_and_no_other():
    # the subcommands' options, and the emitted binary's --debug
    text = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {option for parser in commands.values() for action in parser._actions
               for option in action.option_strings if option.startswith("--")}
    assert named == (options - {"--help"}) | {"--debug"}


def test_readme_column_lists_are_the_codes():
    text = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Measurement output\n", 1)[1].split("\n## ", 1)[0]
    measure = section.split("The column set is fixed:\n\n", 1)[1].split("\n\n", 1)[0]
    sweep = section.split("with columns ", 1)[1].split(" (", 1)[0]
    assert re.findall(r"`(\w+)`", measure) == bench.MEASUREMENT_COLUMNS
    assert re.findall(r"`(\w+)`", sweep) == bench.SWEEP_COLUMNS


@needs_c
def test_readme_quick_start_prints_what_it_shows(tmp_path):
    # Quick start's commands run in order on its spec; each one followed by
    # `# ` lines must print exactly those lines
    text = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section, re.S)
    (spec,) = [body for lang, body in blocks if lang == "text"]
    (tmp_path / "stress.lsys").write_text(spec, encoding="utf-8")
    commands = []  # [command, the lines it prints]
    for lang, body in blocks:
        if lang != "sh":
            continue
        for line in body.replace("\\\n", "").splitlines():
            if line.startswith("# "):
                commands[-1][1].append(line[2:])
            elif line:
                commands.append([line, []])
    assert [command.split()[:2] for command, _ in commands] == [
        ["lsysbench", "gen"], ["lsysbench", "check"], ["lsysbench", "measure"],
        ["gcc", "-std=c99"], ["./demo", "1"], ["./demo", "1"]]
    cli = f"{shlex.quote(sys.executable)} -m lsysbench.cli"
    for command, lines in commands:
        shown = re.sub(r"\bgcc\b", C_COMPILER, re.sub(r"^lsysbench\b", cli, command))
        run = subprocess.run(shown, shell=True, cwd=tmp_path, env=src_env(),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, (command, run.stderr)
        if lines:
            assert run.stdout.splitlines() == lines, command


def test_every_public_function_in_src_is_called_there_or_documented():
    # src/ holds what the commands and README's Python API run; a walker
    # that only tests call belongs in tests/helpers.py
    root = PYPROJECT.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "lsysbench").rglob("*.py"))]
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    unused = [name for name in sorted(public - referenced)
              if not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_every_module_level_import_in_src_is_read():
    # a name in __all__ counts as read: codegen/__init__.py re-exports so
    unused = []
    for path in sorted((PYPROJECT.parent / "src" / "lsysbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


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


def test_gen_has_no_debug_trace_flag(spec_file, tmp_path, capsys):
    # the binary prints its trace with --debug alone
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["gen", spec_file, "--debug-trace", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --debug-trace" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("interrupted", ["after the sources", "inside the manifest write"])
def test_an_interrupted_gen_leaves_no_manifest(interrupted, tmp_path, monkeypatch, capsys):
    # a seed-0 manifest left beside seed-1 sources made check report a
    # trace mismatch on a correct program; an empty one failed as bad JSON
    spec = tmp_path / "churn.lsys"
    spec.write_text(CALL_CHURN_SPEC)
    out = str(tmp_path / "out")
    assert run_cli(["gen", str(spec), "--generations", "6", "--seed", "0", "--out", out]) == 0

    write_source_files = bench.write_source_files

    def interrupt(*args):
        raise KeyboardInterrupt

    def write_then_interrupt(*args):
        write_source_files(*args)
        interrupt()

    if interrupted == "after the sources":
        monkeypatch.setattr(bench, "write_source_files", write_then_interrupt)
    else:
        monkeypatch.setattr(bench, "manifest_to_json", interrupt)
    assert run_cli(["gen", str(spec), "--generations", "6", "--seed", "1", "--out", out]) == 130
    capsys.readouterr()
    assert run_cli(["check", str(spec), "--out", out, "--cc", "cc {in} -o {out}"]) == 2
    assert capsys.readouterr().err == f"error: no manifest.json in {out}; run `gen` first\n"


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


def test_check_has_no_seeds_flag(capsys):
    # check checks the sources gen wrote; another seed's come from gen --seed
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(USAGE_PREFIXES["check"] + ["--seeds", "0"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seeds 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["measure", "sweep-pgo"])
def test_measure_and_sweep_pgo_have_no_csv_flag(command, capsys):
    # their table goes to stdout, and `> FILE` saves it
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(USAGE_PREFIXES[command] + ["--csv", "x"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --csv x" in capsys.readouterr().err


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
    (["gen", "s.lsys"], "--seed", "abc"),
])
def test_seed_flags_reject_values_outside_64_bits(prefix, flag, value, capsys):
    # The emitted C bakes the seed into UINT64_C(...), and Go into uint64(...):
    # 2^64 does not compile, and neither does a negative value in Go.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(prefix + [flag, value])
    assert excinfo.value.code == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err
    args = build_parser().parse_args(prefix + [flag, str(2**64 - 1)])
    assert vars(args)[flag[2:]] == 2**64 - 1


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--paths", ""),
    ("check", "--paths", ","),
    ("check", "--paths", "1,x"),
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
    ("measure", []),
    ("sweep-pgo", []),
])
def test_commands_refuse_a_spec_other_than_the_manifests(
        command, extra, spec_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    other = tmp_path / "other.lsys"

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled despite a mismatched spec")

    monkeypatch.setattr(bench, "start_compile", no_compile)
    argv = USAGE_PREFIXES[command] + extra + ["--out", out]
    argv[1] = str(other)
    # another spec, and the same spec with one more trailing newline
    for text, difference in [("A = insert\n", "line 1: got 'A = insert\\n', want 'A = new B B\\n'"),
                             (CONTAINER_STRESS_SPEC + "\n", "line 3: got '\\n', want end of file")]:
        other.write_text(text)
        capsys.readouterr()
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            f"error: spec file differs from the one gen used ({difference}); "
            "regenerate with gen or pass the original spec\n")


def test_gen_refuses_a_value_range_above_2_to_the_31(spec_file, tmp_path, capsys):
    # The planner's generator gives 31 bits, so a wider range was capped silently.
    out = str(tmp_path / "out")
    argv = ["gen", spec_file, "--generations", "3", "--out", out, "--value-range"]
    assert run_cli(argv + [str(2**31 + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: value_range must be in [1, 2^31]")
    assert not os.path.exists(out)
    assert run_cli(argv + [str(2**31)]) == 0
    assert bench.load_manifest(out)["valueRange"] == 2**31


def test_gen_refuses_a_trip_count_of_2_to_the_64(tmp_path, capsys):
    # The emitted C spells the trip count as a uint64_t constant, which the
    # compiler refused as too large.
    spec = tmp_path / "loop.lsys"
    spec.write_text("A = LOOP() insert\n")
    out = str(tmp_path / "out")
    assert run_cli(["gen", str(spec), "--out", out, "--trip-count", str(2**64)]) == 2
    assert capsys.readouterr().err.startswith("error: trip_count must be in [1, 2^64)")
    assert not os.path.exists(out)


def test_gen_refuses_constructs_nested_above_the_cap(tmp_path, capsys):
    # One LOOP deeper per generation; at g=170 gen overflowed Python's stack.
    # One trip per LOOP keeps the deepest program that passes small.
    spec = tmp_path / "deep.lsys"
    spec.write_text("A = LOOP(insert A)\n")
    out = str(tmp_path / "out")
    argv = ["gen", str(spec), "--out", out, "--trip-count", "1", "--generations"]
    assert run_cli(argv + ["170"]) == 2
    assert capsys.readouterr().err.startswith("error: generation 128 nests constructs 129 deep")
    assert not os.path.exists(out)
    assert run_cli(argv + [str(grammar.MAX_NESTING - 1)]) == 0
    assert bench.load_manifest(out)["generations"] == grammar.MAX_NESTING - 1


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


@pytest.mark.parametrize("command, name", [
    ("check", "../x.c"),
    ("measure", "../x.c"),
    ("sweep-pgo", "../x.c"),
    ("sweep-pgo", "sub/x.c"),
    ("check", ""),
    ("measure", "."),
    ("sweep-pgo", ".."),
])
def test_commands_refuse_a_manifest_file_that_is_no_plain_name(
        command, name, spec_file, tmp_path, capsys, monkeypatch):
    # out/../x.c exists: only the name is refused, before any copy or compile
    (tmp_path / "x.c").write_text("int main(void) { return 0; }\n")
    err = _exit_2_on_edited_manifest(command, lambda manifest: manifest["files"].append(name),
                                     spec_file, tmp_path, capsys, monkeypatch)
    assert err.startswith("error: ")
    assert err.rstrip().endswith(f"'files' holds {name!r}, not a plain file name; run `gen` again")


@pytest.mark.parametrize("command", ["check", "measure"])
def test_commands_refuse_a_manifest_with_an_unknown_backend(
        command, spec_file, tmp_path, capsys, monkeypatch):
    err = _exit_2_on_edited_manifest(command, lambda manifest: manifest.update(backend="txt"),
                                     spec_file, tmp_path, capsys, monkeypatch)
    assert err.startswith("error: unknown backend 'txt'")


@pytest.mark.parametrize("command", ["check", "measure"])
def test_commands_name_an_empty_manifest(command, spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / bench.MANIFEST_NAME).write_text("")
    argv = USAGE_PREFIXES[command] + ["--out", str(out)]
    argv[1] = spec_file
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {out / bench.MANIFEST_NAME} is not valid JSON "
        "(Expecting value: line 1 column 1 (char 0)); run gen again\n")


@needs_c
def test_gen_check_measure_round_trip(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    cc = "%s %s -O0 {in} -o {out}" % (C_COMPILER, " ".join(STRICT_C_FLAGS))
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    assert run_cli(["check", spec_file, "--out", out, "--cc", cc, "--paths", "0,1"]) == 0

    capsys.readouterr()
    code = run_cli(["measure", spec_file, "--out", out,
                    "--cc", "%s -std=c99 {flags} {in} -o {out}" % C_COMPILER,
                    "--flags=-O0", "--flags=-O2",
                    "--repetitions", "2", "--warmups", "0"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    assert float(rows[0]["compileTimeMs"]) > 0


@needs_c
def test_measure_prints_the_rows_it_writes_as_json(spec_file, tmp_path, capsys):
    # the CSV table on stdout and the --json lines are the same rows, in order
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0
    json_path = str(tmp_path / "m.jsonl")
    capsys.readouterr()
    code = run_cli(["measure", spec_file, "--out", out,
                    "--cc", "%s -std=c99 {flags} {in} -o {out}" % C_COMPILER,
                    "--flags=-O0", "--flags=-O1", "--flags=-O2", "--path", "2",
                    "--repetitions", "1", "--warmups", "0", "--json", json_path])
    assert code == 0
    printed = capsys.readouterr().out
    with open(json_path, encoding="utf-8") as fh:
        json_rows = [json.loads(line) for line in fh]
    assert [row["flags"] for row in json_rows] == ["-O0", "-O1", "-O2"]
    assert printed == bench.write_csv(json_rows, bench.MEASUREMENT_COLUMNS)


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
    argv = [
        "sweep-pgo", spec_file, "--out", out,
        "--cc-base", "%s -std=c99 -O2 {in} -o {out}" % C_COMPILER,
        "--cc-train", "%s -std=c99 -O2 -fprofile-generate {in} -o {out}" % C_COMPILER,
        "--cc-opt", "%s -std=c99 -O2 -fprofile-use -Werror=missing-profile {in} -o {out}"
        % C_COMPILER,
        "--repetitions", "2", "--warmups", "0",
    ]
    capsys.readouterr()
    assert run_cli(argv + ["--bits", "1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["i"] == "1"
    assert rows[0]["path"] == "1"
    # the default bit counts
    assert run_cli(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [int(row["i"]) for row in rows] == list(bench.SWEEP_BITS)
    assert [int(row["path"]) for row in rows] == [2**i - 1 for i in bench.SWEEP_BITS]


def test_measure_unknown_compiler_exits_nonzero(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--out", out]) == 0
    code = run_cli(["measure", spec_file, "--out", out,
                    "--cc", "not-a-real-compiler {flags} {in} -o {out}",
                    "--repetitions", "1", "--warmups", "0"])
    assert code == 1
    capsys.readouterr()


def test_measure_refuses_flag_sets_the_template_has_no_place_for(
        spec_file, tmp_path, capsys, monkeypatch):
    # Both rows were timed from the same binary, labelled -O0 and -O3.
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled without the flag sets")

    monkeypatch.setattr(bench, "compile_sources", no_compile)
    capsys.readouterr()
    code = run_cli(["measure", spec_file, "--out", out, "--cc", "gcc -std=c99 {in} -o {out}",
                    "--flags=-O0", "--flags=-O3"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: flag sets ['-O0', '-O3'] given, but the command template has no "
        "{flags} placeholder: gcc -std=c99 {in} -o {out}\n")


def test_measure_a_compile_that_writes_no_binary_fails_its_rows(spec_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0
    capsys.readouterr()
    code = run_cli(["measure", spec_file, "--out", out, "--cc", "true {in} {out} {flags}",
                    "--flags=-O0", "--flags=-O2", "--repetitions", "1", "--warmups", "0"])
    assert code == 1
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["flags"] for row in rows] == ["-O0", "-O2"]
    for row in rows:
        assert row["failed"] == "True"
        assert row["error"].startswith("compile failed: exit=0 but wrote no binary ")
        assert row["error"].endswith(os.sep + "prog")


@needs_c
def test_measure_times_only_compiles_that_write_the_binary(spec_file, tmp_path, capsys):
    # The template compiles on its first call only: a later compile that
    # exits 0 and writes nothing must not pass on the binary the first one
    # left, its near-zero time going into the median.
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0
    capsys.readouterr()
    once = "sh -c 'if [ ! -e once ]; then touch once; %s -std=c99 \"$0\" -o \"$1\"; fi' {in} {out}"
    code = run_cli(["measure", spec_file, "--out", out, "--cc", once % C_COMPILER,
                    "--repetitions", "3", "--warmups", "0"])
    assert code == 1
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert (row["failed"], row["compileTimeMs"]) == ("True", "0.0")
    assert re.fullmatch(r"compile failed: exit=0 but wrote no binary /.*/prog", row["error"])


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


@needs_c
def test_check_and_measure_keep_a_path_with_a_space_one_argument(
        spec_file, tmp_path, capsys, monkeypatch):
    # The binary's path under TMPDIR was split at the space into two
    # arguments: gcc reported "cannot find m", and {bin} named no file.
    spaced = tmp_path / "t m p"
    spaced.mkdir()
    monkeypatch.setenv("TMPDIR", str(spaced))
    monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir reads TMPDIR again
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0
    assert run_cli(["check", spec_file, "--out", out,
                    "--cc", C_COMPILER + " -std=c99 {in} -o {out}"]) == 0
    assert capsys.readouterr().out.endswith("check: PASS\n")
    json_path = str(tmp_path / "m.json")
    assert run_cli(["measure", spec_file, "--out", out,
                    "--cc", C_COMPILER + " -std=c99 {flags} {in} -o {out}", "--flags=-O0",
                    "--repetitions", "1", "--warmups", "0", "--size-cmd", "stat -c %s {bin}",
                    "--json", json_path]) == 0
    with open(json_path, encoding="utf-8") as fh:
        row = json.loads(fh.read())
    assert (row["failed"], row["error"]) == (False, "")
    assert row["textBytes"] == row["binaryBytes"] > 0
    capsys.readouterr()


def test_sweep_pgo_checks_every_template_before_compiling(
        spec_file, tmp_path, capsys, monkeypatch):
    # A bad --cc-opt was found only after the baseline and training builds.
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before checking every template")

    monkeypatch.setattr(bench, "start_compile", no_compile)
    monkeypatch.setattr(bench, "compile_sources", no_compile)
    capsys.readouterr()
    cc = "gcc -std=c99 {in} -o {out}"
    code = run_cli(["sweep-pgo", spec_file, "--out", out, "--cc-base", cc, "--cc-train", cc,
                    "--cc-opt", "gcc -fprofile-use {bogus} {in} -o {out}"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown placeholder {bogus}")


@pytest.mark.parametrize("command, extra, error", [
    ("check", ["--report", "missing/r.jsonl"],
     "[Errno 2] No such file or directory: 'missing/r.jsonl'"),
    ("check", ["--report", "."], "[Errno 21] Is a directory: '.'"),
    ("measure", ["--json", "missing/m.jsonl"],
     "[Errno 2] No such file or directory: 'missing/m.jsonl'"),
    ("measure", ["--path", "2", "--size-cmd", "{nope}"],
     "unknown placeholder {nope} in command template: {nope}"),
])
def test_check_and_measure_refuse_a_bad_output_before_any_work(
        command, extra, error, spec_file, tmp_path, capsys, monkeypatch):
    # check compiled, ran and printed its verdict, and measure timed every
    # run, before an unwritable file failed them; at a PATH other than 1 the
    # oracle ran before a bad --size-cmd was seen
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0

    def no_oracle(*args, **kwargs):
        raise AssertionError("ran the oracle before checking the output")

    monkeypatch.setattr(oracle, "interpret", no_oracle)
    monkeypatch.setattr(oracle, "run_to_pieces", no_oracle)
    monkeypatch.chdir(tmp_path)
    marker = tmp_path / "compiled"
    cc = "sh -c %s sh {in} {out}" % shlex.quote("touch " + shlex.quote(str(marker)))
    capsys.readouterr()
    assert run_cli([command, spec_file, "--out", out, "--cc", cc] + extra) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not marker.exists()


def test_measure_keeps_an_existing_json_file_until_its_rows_are_written(
        spec_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert run_cli(["gen", spec_file, "--generations", "3", "--out", out]) == 0

    def refused(manifest):
        raise bench.BenchError("refused")

    monkeypatch.setattr(bench, "oracle_checksums", refused)
    json_path = tmp_path / "m.jsonl"
    json_path.write_text("old\n", encoding="utf-8")
    assert run_cli(["measure", spec_file, "--out", out, "--cc", "cc {in} -o {out}",
                    "--json", str(json_path)]) == 2
    assert capsys.readouterr().err == "error: refused\n"
    assert json_path.read_text(encoding="utf-8") == "old\n"


@needs_c
def test_each_warning_is_printed_once_on_one_line(tmp_path):
    # Python's format took two lines, the second the source line of the
    # warnings.warn call; check and measure rebuilt gen's program and warned again
    spec = tmp_path / "leftover.lsys"
    spec.write_text("A = new insert X\n", encoding="utf-8")
    out = str(tmp_path / "out")
    gen = ["gen", str(spec), "--out", out, "--generations", "1"]

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "lsysbench.cli", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=120)

    proc = cli(*gen)
    assert (proc.returncode, proc.stderr) == (
        0, "warning: dropped 1 leftover nonterminal(s) before lowering\n")
    proc = cli("check", str(spec), "--out", out, "--paths", "0,2",
               "--cc", C_COMPILER + " -std=c99 {in} -o {out}")
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = cli("measure", str(spec), "--out", out, "--path", "2", "--repetitions", "1",
               "--warmups", "0", "--cc", C_COMPILER + " -std=c99 {in} -o {out}")
    assert (proc.returncode, proc.stderr) == (0, "")
    # a caller of main, pytest among them, still sees the UserWarning
    with pytest.warns(UserWarning, match=r"^dropped 1 leftover nonterminal\(s\) before lowering$"):
        assert main(gen) == 0


def test_gen_refuses_a_run_above_the_op_cap(tmp_path):
    # At trip count 2 the 128 nested loops ask for 2^128 iterations, and gen
    # spun without end; the oracle now refuses before its first op.
    spec = tmp_path / "deep.lsys"
    spec.write_text("A = LOOP(insert A)\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lsysbench.cli", "gen", str(spec), "--out", str(out),
         "--generations", "127"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 2
    # a new and an insert in the outer loop, one insert more per level: 2^129
    assert proc.stderr.splitlines()[-1] == (
        "error: the run at PATH 1 would execute %d ops, above the cap of %d"
        % (2**129, oracle.MAX_RUN_OPS))
    assert not out.exists()


def test_gen_refuses_a_run_above_the_loop_iteration_cap(tmp_path):
    # 60 nested loops with no op in them: the oracle ran none of them and
    # gen exited 0, but the binary runs 2^61 - 2 iterations at trip count 2
    spec = tmp_path / "loops.lsys"
    spec.write_text("AXIOM = new insert A\nA = LOOP(A)\n")
    out = tmp_path / "out"

    def gen(generations):
        return subprocess.run(
            [sys.executable, "-m", "lsysbench.cli", "gen", str(spec), "--out", str(out),
             "--generations", str(generations)],
            capture_output=True, text=True, env=src_env(), timeout=60)

    proc = gen(60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "error: the run at PATH 1 would run %d loop iterations, above the cap of %d"
        % (2**61 - 2, oracle.MAX_RUN_OPS))
    assert not out.exists()
    assert gen(27).returncode == 0  # 2^28 - 2 iterations


# Runs gen, check and measure in one fresh interpreter (pytest's own has
# imported hashlib) and prints their exit codes and which of hashlib and
# _hashlib, the module that loads OpenSSL's libcrypto, got imported.
NO_OPENSSL_SCRIPT = """\
import sys
from lsysbench.cli import main
spec, out, cc = sys.argv[1:]
codes = [main(["gen", spec, "--out", out, "--generations", "3"]),
         main(["check", spec, "--out", out, "--cc", cc + " -O0 {in} -o {out}", "--checksum-only"]),
         main(["measure", spec, "--out", out, "--cc", cc + " {flags} {in} -o {out}", "--flags=-O0",
               "--repetitions", "1", "--warmups", "0"])]
print(codes, sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


@needs_c
def test_no_command_loads_openssl(spec_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NO_OPENSSL_SCRIPT, spec_file, str(tmp_path / "out"), C_COMPILER],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_gen_runs_the_oracle_before_it_emits(spec_file, tmp_path, capsys, monkeypatch):
    # stress g=12 at trip count 1000 asks for 2.07 x 10^20 ops; gen rendered
    # every line of its C before the oracle refused it
    rendered = []
    monkeypatch.setattr(codegen.base.BraceSyntax, "render", lambda *a: rendered.append(a))
    out = tmp_path / "out"
    argv = ["gen", spec_file, "--out", str(out), "--generations", "12", "--trip-count", "1000"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: the run at PATH 1 would execute ")
    assert rendered == []
    assert not (out / "main.c").exists()
