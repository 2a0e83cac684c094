import argparse
import contextlib
import hashlib
import os
import random
import re
import shutil
import subprocess
import warnings

import pytest

from helpers import (
    CONTAINER_STRESS_SPEC,
    CALL_CHURN_SPEC,
    STRICT_C_FLAGS,
    compile_c,
    find_c_compiler,
    find_go_compiler,
    random_seq_nonempty,
    run_binary,
    write_files,
)
from lsysbench import astgen, codegen, grammar, oracle
from lsysbench.cli import build_parser
from lsysbench.codegen import BackendError, EmitConfig, SourceFile, base, emit

C_COMPILER = find_c_compiler()
GO_COMPILER = find_go_compiler()

needs_c = pytest.mark.skipif(C_COMPILER is None, reason="no C toolchain found on PATH")
needs_go = pytest.mark.skipif(GO_COMPILER is None, reason="no Go toolchain found on PATH")


def make_program(spec_text, generations, container="array", seed=0):
    spec = grammar.parse_spec(spec_text)
    derived = grammar.derive(spec, generations)
    plan = astgen.OperandPlan(seed=seed, container_kind=container)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return astgen.lower(derived, plan)


def small_program(container="array"):
    return make_program("A = new insert IF(contains, remove, insert) LOOP(insert)\n", 1, container)


# ---------------------------------------------------------------------------
# backends


def test_builtin_backends_registered():
    assert sorted(codegen.BACKENDS) == ["c", "go"]
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    backend = next(a for a in commands.choices["gen"]._actions if a.dest == "backend")
    assert backend.choices == ["c", "go"]


def test_unknown_backend_error_names_known_ones():
    program = small_program()
    with pytest.raises(BackendError, match="unknown backend"):
        emit(program, EmitConfig(backend="fortran"))


def test_every_kind_has_a_runtime_and_every_backend_an_extension():
    for module in (codegen.c, codegen.go):
        assert sorted(module._KINDS) == sorted(astgen.CONTAINER_KINDS), module.__name__
    for backend_id, backend in codegen.BACKENDS.items():
        assert backend.extension and not backend.extension.startswith("."), backend_id


# ---------------------------------------------------------------------------
# file layout and determinism


def test_c_single_file_layout():
    program = small_program()
    files = emit(program, EmitConfig(backend="c"))
    assert [f.relative_path for f in files] == ["runtime.h", "main.c"]


def test_c_split_layout_is_function_count_plus_one():
    program = make_program(CALL_CHURN_SPEC, 3)
    n = len(program.functions)
    assert n > 1
    files = emit(program, EmitConfig(backend="c", split_files=True))
    assert len(files) == n + 1
    names = [f.relative_path for f in files]
    assert names[0] == "runtime.h"
    assert names[1] == "main.c"
    expected = {"f%d.c" % fn.id for fn in program.functions if fn.id != program.entry_id}
    assert set(names[2:]) == expected


@pytest.mark.parametrize("container", ["array", "sortedList"])
def test_c_frees_every_binding_by_one_id_rule(container):
    # Callees borrow. Every function binds with ls_new(&data) and ends each
    # binding with ls_free(&data, v), which frees only what the call
    # allocated; no function keeps a per-binding ownership flag.
    program = make_program(CALL_CHURN_SPEC, 4, container)
    assert any(isinstance(st, astgen.Call) and st.available_slots
               for fn in program.functions for st in astgen.iter_statements(fn.body))
    files = {f.relative_path: f.contents
             for f in emit(program, EmitConfig(backend="c", split_files=True))}
    runtime = files["main.c"][:files["main.c"].index("\nvoid f%d(" % program.entry_id)]
    assert runtime.count("obj->id >= data->base") == 1
    for fn in program.functions:
        text = files["main.c" if fn.id == program.entry_id else "f%d.c" % fn.id]
        start = text.index("void f%d(" % fn.id)
        body = text[start:text.index("\n}\n", start)]
        news = sum(isinstance(st, astgen.New) for st in astgen.iter_statements(fn.body))
        assert body.count("ls_new(&data)") == news
        assert body.count("ls_free(&data, v") == news
        assert not any(form in body for form in ("&o", "if (o", "NULL)"))
    assert not any("refc" in text or "ls_retain" in text for text in files.values())


def test_go_single_file_layout():
    program = small_program()
    files = emit(program, EmitConfig(backend="go"))
    assert [f.relative_path for f in files] == ["main.go"]


def test_go_split_layout_is_function_count():
    program = make_program(CALL_CHURN_SPEC, 3)
    n = len(program.functions)
    files = emit(program, EmitConfig(backend="go", split_files=True))
    assert len(files) == n
    assert files[0].relative_path == "main.go"


@pytest.mark.parametrize("backend", sorted(codegen.BACKENDS))
def test_render_is_a_function_of_its_block_and_depth(backend):
    # Loop counters were numbered per function as rendering went, so the
    # lines of a block depended on what had been rendered before it.
    program = make_program(CALL_CHURN_SPEC, 5)
    syntax = codegen.BACKENDS[backend](program)
    state = dict(vars(syntax))

    def render(fn):
        lines = []
        syntax.render(fn.body, 1, lines.append)
        return lines

    forward = [render(fn) for fn in program.functions]
    assert sum(line.lstrip().startswith("for ") for lines in forward for line in lines) > 1
    assert [render(fn) for fn in program.functions] == forward
    assert [render(fn) for fn in reversed(program.functions)] == forward[::-1]
    for _, write_to in syntax.files(EmitConfig(backend=backend, split_files=True)):
        write_to(lambda text: None)
    assert vars(syntax) == state  # nothing is kept between blocks


def test_emit_is_deterministic_and_pure():
    program = make_program(CALL_CHURN_SPEC, 3, container="sortedList")
    cfg = EmitConfig(backend="c", split_files=True)
    first = emit(program, cfg)
    second = emit(program, cfg)
    assert [(f.relative_path, f.contents) for f in first] == \
           [(f.relative_path, f.contents) for f in second]


def test_emitted_text_mentions_every_function():
    program = make_program(CALL_CHURN_SPEC, 3)
    files = emit(program, EmitConfig(backend="c"))
    main_c = next(f.contents for f in files if f.relative_path == "main.c")
    for fn in program.functions:
        assert "void f%d(ls_params data, uint64_t path)" % fn.id in main_c
    header = next(f.contents for f in files if f.relative_path == "runtime.h")
    for fn in program.functions:
        assert "void f%d(ls_params data, uint64_t path);" % fn.id in header


# ---------------------------------------------------------------------------
# golden text: a small program that uses every statement form

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "emit_golden")

# New; insert, remove, contains; If with a cond and an else, If without a cond
# or an else; Loop with and without a cond; Call without slots (first
# statement) and with slots (later calls, one of them inside a loop).
GOLDEN_ITEMS = (
    "CALL(new insert) new insert remove contains "
    "IF(new contains, new insert LOOP(CALL(new contains IF(, insert))), remove LOOP(contains)) "
    "IF(, remove) LOOP(new contains, new insert) LOOP(remove) "
    "CALL(new contains IF(, insert))"
)


def golden_program(container):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return astgen.lower(grammar.parse_items(GOLDEN_ITEMS),
                            astgen.OperandPlan(seed=0, container_kind=container))


@pytest.mark.parametrize("container", ["array", "sortedList", "scalar"])
@pytest.mark.parametrize("backend", ["c", "go"])
def test_emitted_sources_match_golden_text(backend, container):
    files = emit(golden_program(container), EmitConfig(backend=backend))
    assert [f.relative_path for f in files] == (
        ["runtime.h", "main.c"] if backend == "c" else ["main.go"])
    for f in files:
        name = "%s_%s_%s" % (backend, container, f.relative_path)
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            assert f.contents == fh.read(), name


# ---------------------------------------------------------------------------
# compiled C behavior


def c_sources(files):
    return [f.relative_path for f in files if f.relative_path.endswith(".c")]


@needs_c
@pytest.mark.parametrize("container", ["array", "sortedList", "scalar"])
def test_c_compiles_warning_free_and_matches_oracle(container, tmp_path):
    program = make_program(CONTAINER_STRESS_SPEC, 4, container)
    files = emit(program, EmitConfig(backend="c"))
    write_files(files, str(tmp_path))
    binary = str(tmp_path / "prog")
    proc = compile_c(str(tmp_path), c_sources(files), binary, C_COMPILER, ["-O1"])
    assert proc.returncode == 0, proc.stderr
    for path in (0, 1, 2**64 - 1):
        run = run_binary(binary, path, debug=True)
        assert run.returncode == 0
        want = oracle.run_to_text(program, oracle.ExecConfig(path=path, debug_trace=True))
        assert run.stdout == want


@needs_c
def test_c_split_files_compile_and_match_single_file_output(tmp_path):
    program = make_program(CALL_CHURN_SPEC, 3, "sortedList")
    outputs = {}
    for split in (False, True):
        workdir = tmp_path / ("split" if split else "single")
        files = emit(program, EmitConfig(backend="c", split_files=split))
        write_files(files, str(workdir))
        binary = str(workdir / "prog")
        proc = compile_c(str(workdir), c_sources(files), binary, C_COMPILER, ["-O0"])
        assert proc.returncode == 0, proc.stderr
        outputs[split] = run_binary(binary, 5, debug=True).stdout
    assert outputs[False] == outputs[True]
    want = oracle.run_to_text(program, oracle.ExecConfig(path=5, debug_trace=True))
    assert outputs[False] == want


@needs_c
def test_c_non_debug_prints_only_checksum(tmp_path):
    program = small_program()
    files = emit(program, EmitConfig(backend="c"))
    write_files(files, str(tmp_path))
    binary = str(tmp_path / "prog")
    proc = compile_c(str(tmp_path), c_sources(files), binary, C_COMPILER, ["-O0"])
    assert proc.returncode == 0, proc.stderr
    out = run_binary(binary, 1, debug=False).stdout
    assert out == oracle.run_to_text(program, oracle.ExecConfig(path=1, debug_trace=False))
    assert out.startswith("CHECKSUM ")
    assert len(out.splitlines()) == 1


@needs_c
def test_c_missing_path_argument_defaults_to_zero(tmp_path):
    program = make_program(CONTAINER_STRESS_SPEC, 4)
    files = emit(program, EmitConfig(backend="c"))
    write_files(files, str(tmp_path))
    binary = str(tmp_path / "prog")
    proc = compile_c(str(tmp_path), c_sources(files), binary, C_COMPILER, ["-O0"])
    assert proc.returncode == 0, proc.stderr
    bare = subprocess.run([binary], capture_output=True, text=True).stdout
    zero = run_binary(binary, 0, debug=False).stdout
    assert bare == zero


@needs_c
def test_c_path_argument_accepts_only_64_bit_decimals(tmp_path):
    program = make_program(CONTAINER_STRESS_SPEC, 4)
    files = emit(program, EmitConfig(backend="c"))
    write_files(files, str(tmp_path))
    binary = str(tmp_path / "prog")
    proc = compile_c(str(tmp_path), c_sources(files), binary, C_COMPILER, ["-O0"])
    assert proc.returncode == 0, proc.stderr
    for path in (0, 2**64 - 1):
        run = run_binary(binary, path, debug=False)
        assert run.returncode == 0
        assert run.stdout == oracle.run_to_text(program, oracle.ExecConfig(path=path))
    for bad in ("18446744073709551616", "-1", "+1", " 1", "1abc", "0x1", ""):
        run = subprocess.run([binary, bad], capture_output=True, text=True)
        assert run.returncode == 2, bad
        assert "CHECKSUM" not in run.stdout, bad
        assert "PATH must be a decimal integer" in run.stderr, bad


@needs_c
def test_c_refuses_arguments_other_than_one_path_and_debug(tmp_path):
    # `prog 1 5` and `prog 1 --debg` both ran PATH 1 without a trace
    program = small_program()
    files = emit(program, EmitConfig(backend="c"))
    write_files(files, str(tmp_path))
    binary = str(tmp_path / "prog")
    proc = compile_c(str(tmp_path), c_sources(files), binary, C_COMPILER, ["-O0"])
    assert proc.returncode == 0, proc.stderr
    for argv, stray in ((["1", "5"], "5"), (["1", "--debg"], "--debg"),
                        (["--debug", "1", "--debug", "1"], "1")):
        run = subprocess.run([binary] + argv, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (2, ""), argv
        assert run.stderr == base.ARG_ERROR % stray + "\n", argv
    run = subprocess.run([binary, "--debug", "1", "--debug"], capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == oracle.run_to_text(program, oracle.ExecConfig(path=1, debug_trace=True))


GXX = shutil.which("g++")
CXX_FLAGS = ["-x", "c++", "-std=c++17", "-pedantic", "-Wall", "-Wextra", "-Wshadow", "-Werror", "-O2"]
SANITIZE_FLAGS = ["-O1", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]


def assert_builds_match_oracle(compiler_argv, tmp_path):
    """Build churn g=5 and stress g=4 of every kind, in both layouts, with
    `compiler_argv`. Each binary must exit 0, write nothing to stderr and
    print the oracle's trace at PATHs 0, 1 and 2^64-1."""
    paths = (0, 1, 2**64 - 1)
    case = 0
    for spec_text, generations in ((CALL_CHURN_SPEC, 5), (CONTAINER_STRESS_SPEC, 4)):
        for container in astgen.CONTAINER_KINDS:
            program = make_program(spec_text, generations, container)
            # both layouts compile side by side while the oracle runs
            with contextlib.ExitStack() as running:
                builds = []
                for split in (False, True):
                    case += 1
                    workdir = tmp_path / ("case%d" % case)
                    files = emit(program, EmitConfig(backend="c", split_files=split))
                    write_files(files, str(workdir))
                    binary = str(workdir / "prog")
                    argv = compiler_argv + c_sources(files) + ["-o", binary]
                    builds.append((split, binary, running.enter_context(subprocess.Popen(
                        argv, cwd=str(workdir), stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE, text=True))))
                want = {path: oracle.run_to_text(program, oracle.ExecConfig(
                    path=path, debug_trace=True)) for path in paths}
                for split, binary, proc in builds:
                    _, stderr = proc.communicate()
                    assert proc.returncode == 0, stderr
                    for path in paths:
                        run = run_binary(binary, path, debug=True)
                        where = (spec_text[:20], generations, container, split, path)
                        assert (run.returncode, run.stderr) == (0, ""), where
                        assert run.stdout == want[path], where


@pytest.mark.skipif(GXX is None, reason="no g++ found on PATH")
def test_c_compiles_as_strict_cpp17_and_matches_oracle(tmp_path):
    # guards the C runtime text against constructs that C++ rejects
    assert_builds_match_oracle([GXX] + CXX_FLAGS, tmp_path)


@needs_c
def test_c_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    trivial = tmp_path / "trivial.c"
    trivial.write_text("int main(void)\n{\n    return 0;\n}\n")
    probe = compile_c(str(tmp_path), [str(trivial)], str(tmp_path / "trivial"), C_COMPILER,
                      SANITIZE_FLAGS)
    if probe.returncode != 0:
        pytest.skip("a trivial sanitized build fails: %s" % probe.stderr.strip()[:200])
    assert_builds_match_oracle([C_COMPILER] + STRICT_C_FLAGS + SANITIZE_FLAGS, tmp_path)


# ---------------------------------------------------------------------------
# Go sources (structural checks always; compile checks only with a toolchain)


def go_package_lines(text):
    return [line for line in text.splitlines() if line == "package main"]


def test_go_sources_are_wellformed_package_main():
    for container in ("array", "sortedList", "scalar"):
        program = make_program(CALL_CHURN_SPEC, 3, container)
        files = emit(program, EmitConfig(backend="go", split_files=True))
        for f in files:
            assert len(go_package_lines(f.contents)) == 1
            assert f.contents.count("{") == f.contents.count("}")
            # callees borrow, so no reference counts are kept
            for word in ("refc", "lsRetain", "lsRelease"):
                assert word not in f.contents
            # every binding is pinned: unused locals are compile errors in Go
            lines = f.contents.splitlines()
            for i, line in enumerate(lines):
                m = re.match(r"(\s*)(v\d+) :=", line)
                if m:
                    assert lines[i + 1] == "%s_ = %s" % m.groups()
        main_go = files[0].contents
        assert "func main() {" in main_go
        assert "func f%d(data lsParams, path uint64) {" % program.entry_id in main_go
        assert "_ = v" in main_go


@needs_go
@pytest.mark.parametrize("container", ["array", "sortedList", "scalar"])
def test_go_compiles_and_matches_oracle(container, tmp_path):
    program = make_program(CONTAINER_STRESS_SPEC, 4, container)
    files = emit(program, EmitConfig(backend="go"))
    write_files(files, str(tmp_path))
    binary = str(tmp_path / "prog")
    env = dict(os.environ, GO111MODULE="off", GOCACHE=str(tmp_path / "gocache"))
    proc = subprocess.run(
        [GO_COMPILER, "build", "-o", binary, "main.go"],
        cwd=str(tmp_path), capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for path in (0, 1, 2**64 - 1):
        run = run_binary(binary, path, debug=True)
        want = oracle.run_to_text(program, oracle.ExecConfig(path=path, debug_trace=True))
        assert run.stdout == want


def test_source_file_is_frozen():
    f = SourceFile("a.c", "x")
    with pytest.raises(Exception):
        f.contents = "y"


# ---------------------------------------------------------------------------
# every emitter option, pinned by one digest

DIGEST_SPECS = ([(CALL_CHURN_SPEC, g) for g in (3, 5, 8)]
                + [(CONTAINER_STRESS_SPEC, g) for g in (4, 7)])
# (files, sha256) of everything the test below emits.
EMITTED_FILES_DIGEST = (1212, "aca306e213037a4db4e2b0f039963fe2b7d275457edbb637796fdc16d4048f4c")


def digest_programs(kind, seed):
    for spec_text, generations in DIGEST_SPECS:
        derived = grammar.derive(grammar.parse_spec(spec_text), generations)
        yield astgen.lower(derived, astgen.OperandPlan(seed=seed, container_kind=kind))
    rng = random.Random(2718)
    for _ in range(12):
        seq = random_seq_nonempty(rng, depth=3)
        yield astgen.lower(seq, astgen.OperandPlan(seed=seed, container_kind=kind))


def test_emitted_sources_digest_is_pinned():
    # The golden fixtures pin single-file output of one program; this pins
    # both layouts on larger programs.
    digest = hashlib.sha256()
    files = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in astgen.CONTAINER_KINDS:
            for seed in (0, 7):
                for program in digest_programs(kind, seed):
                    for backend in ("c", "go"):
                        for split in (False, True):
                            cfg = EmitConfig(backend=backend, split_files=split)
                            for f in emit(program, cfg):
                                digest.update(f.relative_path.encode() + b"\0")
                                digest.update(f.contents.encode() + b"\0")
                                files += 1
    assert files == EMITTED_FILES_DIGEST[0]
    assert digest.hexdigest() == EMITTED_FILES_DIGEST[1]
