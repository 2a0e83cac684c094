"""Benchmark harness: generate programs, check them, and measure toolchains.

The four commands mirror the CLI subcommands:

  cmd_gen       derive -> lower -> oracle at PATH 1, then stream the sources
                and write a manifest
  cmd_check     compile the emitted program and diff its trace vs the oracle
  cmd_measure   time compilation and execution under user-supplied flag sets
  cmd_sweep_pgo compare a baseline binary against a profile-trained one over
                a sweep of control paths

Compiler invocations are user-supplied command templates with ``{in}``,
``{out}`` and (for measure) ``{flags}`` placeholders; the tool never guesses
toolchain flags. Timing wraps each subprocess in a monotonic clock and takes
the median over repetitions, with warm-up runs discarded; every run of a
timed binary, warm-ups included, must print the oracle's checksum.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shlex
import shutil
import signal
import statistics
import string
import subprocess
import tempfile
import time
import warnings
from typing import BinaryIO, Callable, Dict, List, Optional, Sequence, Tuple

from . import astgen, codegen, grammar, oracle

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "lsysbench/manifest/v3"
# v1 kept a sha256 of the spec where v2 keeps its text; a v2 source could
# print its trace without --debug
_OLDER_SCHEMAS = ("lsysbench/manifest/v1", "lsysbench/manifest/v2")
# the manifest keys that check, measure and sweep-pgo read, and the JSON type
# each must have ("files" is a list of str)
_MANIFEST_KEYS = {"specName": str, "specText": str, "generations": int, "seed": int,
                  "valueRange": int, "tripCount": int, "containerKind": str, "backend": str,
                  "splitFiles": bool, "files": list,
                  "oracleChecksumPath1": int}

MEASUREMENT_COLUMNS = ["specName", "generation", "backend", "compilerCmd", "flags", "path",
                       "seed", "containerKind", "compileTimeMs", "runTimeMs", "binaryBytes",
                       "textBytes", "checksum", "failed", "error"]
SWEEP_COLUMNS = ["i", "path", "t_ms", "ti_ms", "ratio"]
# sweep-pgo's default bit counts i; each runs PATH = 2^i - 1
SWEEP_BITS = (1, 2, 4, 8, 16, 32, 63)


class BenchError(Exception):
    """Harness-level failure (bad manifest, missing files, bad template)."""


# ---------------------------------------------------------------------------
# pipeline helpers


def count_ops(program: astgen.Program) -> int:
    """Number of behavioral statements (new/insert/remove/contains) in the tree."""
    ops = 0
    for fn in program.functions:
        for st in astgen.iter_statements(fn.body):
            if isinstance(st, (astgen.New, astgen.Insert, astgen.Remove, astgen.Contains)):
                ops += 1
    return ops


def build_program(spec_text: str, generations: int, plan: astgen.OperandPlan) -> astgen.Program:
    """Parse, derive, and lower a spec into a planned program."""
    spec = grammar.parse_spec(spec_text)
    derived = grammar.derive(spec, generations)
    return astgen.lower(derived, plan)


def build_manifest(
    spec_name: str,
    spec_text: str,
    generations: int,
    emit_cfg: codegen.EmitConfig,
    program: astgen.Program,
    file_names: Sequence[str],
    total_ops: int,
) -> dict:
    """The manifest of a generated program; total_ops is count_ops(program).
    Runs the oracle at PATH 1, which refuses a run that cannot finish."""
    checksum_path1 = oracle.interpret(program, oracle.ExecConfig(path=1))[1].checksum
    return {
        "schema": MANIFEST_SCHEMA,
        "specName": spec_name,
        "specText": spec_text,
        "generations": generations,
        "seed": program.plan.seed,
        "valueRange": program.plan.value_range,
        "tripCount": program.plan.trip_count,
        "containerKind": program.plan.container_kind,
        "backend": emit_cfg.backend,
        "splitFiles": emit_cfg.split_files,
        "functionCount": len(program.functions),
        "entryId": program.entry_id,
        "totalOps": total_ops,
        "files": sorted(file_names),
        "oracleChecksumPath1": checksum_path1,
    }


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def load_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise BenchError(f"no {MANIFEST_NAME} in {out_dir}; run `gen` first")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BenchError(f"{path} is not valid JSON ({exc}); run gen again") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema in _OLDER_SCHEMAS:
        raise BenchError(f"manifest schema {schema} was written by an older lsysbench; run gen again")
    if schema != MANIFEST_SCHEMA:
        raise BenchError(f"unsupported manifest schema: {schema!r}")
    for key, want in _MANIFEST_KEYS.items():
        if key not in manifest:
            raise BenchError(f"{path} lacks {key!r}; run `gen` again")
        value = manifest[key]
        # type(), not isinstance(): a JSON true is no int
        if type(value) is not want or want is list and any(type(v) is not str for v in value):
            name = "list of str" if want is list else want.__name__
            raise BenchError(f"{path}: {key!r} must be {name}, got {value!r}; run `gen` again")
    for name in manifest["files"]:  # each is copied and compiled inside the out directory
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise BenchError(f"{path}: 'files' holds {name!r}, not a plain file name; "
                             "run `gen` again")
    return manifest


def plan_from_manifest(manifest: dict) -> astgen.OperandPlan:
    return astgen.OperandPlan(
        seed=manifest["seed"],
        value_range=manifest["valueRange"],
        trip_count=manifest["tripCount"],
        container_kind=manifest["containerKind"],
    )


def check_spec(spec_text: str, manifest: dict) -> None:
    """Refuse a spec other than the one `gen` wrote the manifest for, naming
    the first line that differs."""
    want = manifest["specText"]
    if spec_text == want:
        return
    got_lines = spec_text.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    # the first unequal line, else the first line past the shorter text
    line = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                min(len(got_lines), len(want_lines)))

    def shown(lines: List[str]) -> str:
        return repr(lines[line]) if line < len(lines) else "end of file"

    raise BenchError(
        f"spec file differs from the one gen used (line {line + 1}: got {shown(got_lines)}, "
        f"want {shown(want_lines)}); regenerate with gen or pass the original spec"
    )


def program_from_manifest(manifest: dict) -> astgen.Program:
    """The program gen built, rebuilt without the warnings gen printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_program(manifest["specText"], manifest["generations"],
                             plan_from_manifest(manifest))


def oracle_checksums(manifest: dict) -> Callable[[int], int]:
    """The oracle's checksum at a PATH: the manifest's at PATH 1, else
    oracle.interpret's on the manifest's program, rebuilt at its first use."""
    program = None

    def at(path: int) -> int:
        nonlocal program
        if path == 1:
            return manifest["oracleChecksumPath1"]
        if program is None:
            program = program_from_manifest(manifest)
        return oracle.interpret(program, oracle.ExecConfig(path=path))[1].checksum
    return at


def read_spec_file(spec_path: str) -> str:
    with open(spec_path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_source_files(sources: Sequence[codegen.Source], out_dir: str) -> None:
    """Stream each file of codegen.sources to out_dir, a line at a time."""
    os.makedirs(out_dir, exist_ok=True)
    for name, write_to in sources:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            write_to(fh.write)


def source_file_names(manifest: dict) -> List[str]:
    ext = "." + codegen.get_backend(manifest["backend"]).extension
    return [name for name in manifest["files"] if name.endswith(ext)]


# ---------------------------------------------------------------------------
# subprocess helpers


def render_template(template: str, mapping: Dict[str, str]) -> List[str]:
    """The argv of a command template: each placeholder is replaced by its
    text, then the whole is split as a shell would. So a path is given
    shlex.quote'd, to stay one argument, and {flags} is given as is. Any
    other field, such as {in.x}, {in[0]}, {out!r} or {in:>5}, is refused."""
    for _, name, spec, conversion in string.Formatter().parse(template):
        if name is not None and (spec or conversion or name not in mapping):
            field = name + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "")
            raise BenchError(f"unknown placeholder {{{field}}} in command template: {template}")
    argv = shlex.split(template.format_map(mapping))
    if not argv:
        raise BenchError(f"empty command template: {template!r}")
    return argv


def _kill_group(child: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(child.pid, signal.SIGKILL)


def _reread(fh) -> str:
    fh.seek(0)
    return fh.read()


def _start(
    argv: List[str],
    cwd: Optional[str] = None,
    env: Optional[Dict[str, str]] = None,
    stdout: Optional[BinaryIO] = None,
) -> Callable[..., Tuple[float, subprocess.CompletedProcess]]:
    """Start argv in a process group of its own and return its finisher.

    ``finish()`` reaps the child and returns ``(ms, CompletedProcess)`` with
    str output, its line endings as written, timed from the start to the
    reap; ``finish(cancel=True)`` kills the child first. A kill, also one
    after an interrupted wait, reaches the whole group, so that no child of
    the child (cc1, as, ld) is left behind. stdout and stderr go to
    temporary files, which a large trace crosses faster than a pipe. A
    caller's ``stdout`` file receives the output instead and stays open for
    the caller to read; the CompletedProcess's stdout is then "". An
    interrupt that arrives inside Popen after the fork kills and reaps the
    child's group too.
    """
    with contextlib.ExitStack() as files:  # closed on every way out but a started child
        out = (files.enter_context(tempfile.TemporaryFile("w+", newline=""))
               if stdout is None else stdout)
        err = files.enter_context(tempfile.TemporaryFile("w+", newline=""))
        start = time.perf_counter()
        child = subprocess.Popen.__new__(subprocess.Popen)  # kept, should __init__ raise
        try:
            child.__init__(argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        except BaseException as exc:
            if getattr(child, "pid", None) is not None and child.returncode is None:
                _kill_group(child)
                child.wait()
            if not isinstance(exc, OSError):
                raise
            failed = subprocess.CompletedProcess(argv, returncode=127, stdout="", stderr=str(exc))
            return lambda cancel=False: ((time.perf_counter() - start) * 1000.0, failed)
        files = files.pop_all()  # the child started: finish() closes them

    def finish(cancel: bool = False) -> Tuple[float, subprocess.CompletedProcess]:
        with files:
            try:
                if cancel:
                    _kill_group(child)
                child.wait()
            finally:
                if child.returncode is None:  # interrupted: leave no child behind
                    _kill_group(child)
                    child.wait()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            return elapsed_ms, subprocess.CompletedProcess(
                argv, child.returncode, _reread(out) if stdout is None else "", _reread(err))

    return finish


def timed_run(
    argv: List[str],
    cwd: Optional[str] = None,
    env: Optional[Dict[str, str]] = None,
    stdout: Optional[BinaryIO] = None,
) -> Tuple[float, subprocess.CompletedProcess]:
    return _start(argv, cwd, env, stdout)()


def start_compile(
    cc_template: str,
    src_dir: str,
    src_files: Sequence[str],
    out_binary: str,
    flags: Optional[str] = None,
) -> Callable[..., Tuple[float, subprocess.CompletedProcess]]:
    """Start a compile in the background and return its finisher (see _start)."""
    mapping = {"in": " ".join(map(shlex.quote, src_files)), "out": shlex.quote(out_binary)}
    if flags is not None:
        mapping["flags"] = flags
    return _start(render_template(cc_template, mapping), cwd=src_dir)


def compile_sources(
    cc_template: str,
    src_dir: str,
    src_files: Sequence[str],
    out_binary: str,
    flags: Optional[str] = None,
) -> Tuple[float, subprocess.CompletedProcess]:
    return start_compile(cc_template, src_dir, src_files, out_binary, flags)()


def _exit_report(proc: subprocess.CompletedProcess, failure: Optional[str] = None) -> str:
    """How every report shows a child: ``exit=<code> <stderr[:400]>``. Given
    a failure prefix, a nonzero exit raises ``BenchError(f"{failure}: exit=...")``."""
    report = f"exit={proc.returncode} {proc.stderr.strip()[:400]}"
    if failure is not None and proc.returncode != 0:
        raise BenchError(f"{failure}: {report}")
    return report


def _check_built(proc: subprocess.CompletedProcess, binary: str,
                 failure: Optional[str] = None) -> Optional[str]:
    """Why the compile did not build ``binary``: its exit report, or that it
    exited 0 but wrote no binary; None if it did. Given a failure prefix, a
    compile that did not build it raises ``BenchError(f"{failure}: ...")``."""
    why = (_exit_report(proc) if proc.returncode != 0
           else None if os.path.isfile(binary) else f"exit=0 but wrote no binary {binary}")
    if why is not None and failure is not None:
        raise BenchError(f"{failure}: {why}")
    return why


def parse_checksum(stdout: str) -> Optional[int]:
    for line in reversed(stdout.splitlines()):
        if line.startswith("CHECKSUM "):
            try:
                return int(line.split(" ", 1)[1])
            except ValueError:
                return None
    return None


# ---------------------------------------------------------------------------
# report writers


def write_csv(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """The rows as RFC-4180 CSV text, None as an empty cell."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("" if row.get(key) is None else row.get(key)) for key in columns})
    return buf.getvalue()


def _check_writable(path: Optional[str]) -> None:
    """Refuse an output file that cannot be opened for writing, before any
    work. Opening it to append truncates nothing; a missing one is created
    empty."""
    if path:
        open(path, "a", encoding="utf-8").close()


def write_json_lines(rows: Sequence[Dict[str, object]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(
    spec_path: str,
    out_dir: str,
    generations: int,
    plan: astgen.OperandPlan,
    emit_cfg: codegen.EmitConfig,
) -> dict:
    """Generate sources and a manifest; returns the manifest. A program with
    no op is refused before anything is written, as a run the oracle refuses."""
    spec_text = read_spec_file(spec_path)
    program = build_program(spec_text, generations, plan)
    total_ops = count_ops(program)
    if total_ops == 0:
        raise BenchError("derivation contains no behavioral operations; nothing to emit")
    sources = codegen.sources(program, emit_cfg)
    spec_name = os.path.basename(spec_path)
    # the oracle runs first, so a run it refuses writes no source
    manifest = build_manifest(spec_name, spec_text, generations, emit_cfg, program,
                              [name for name, _ in sources], total_ops)
    # no old manifest beside new sources: an interrupted gen leaves none
    path = os.path.join(out_dir, MANIFEST_NAME)
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    write_source_files(sources, out_dir)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(manifest_to_json(manifest))
    os.replace(path + ".tmp", path)
    print(f"wrote {len(sources)} source file(s) + {MANIFEST_NAME} to {out_dir}")
    print(f"functions: {manifest['functionCount']}  ops: {manifest['totalOps']}")
    print(f"oracle checksum (path=1): {manifest['oracleChecksumPath1']}")
    return manifest


def _first_divergence(got: BinaryIO, pieces: Sequence[str]) -> Optional[str]:
    """Where the output read from got first differs from the pieces joined:
    a report naming the first unequal line, or None if they are equal.

    Each piece is compared with one read of its size, so neither text is
    held whole; only an unequal piece is compared again, line by line.
    Lines are compared with their endings."""
    event = 0
    for piece in pieces:
        start, want = got.tell(), piece.encode()
        if got.read(len(want)) != want:
            got.seek(start)
            for at, want_line in enumerate(piece.splitlines(keepends=True), event):
                line = got.readline().decode(errors="replace")
                if line != want_line:
                    return _mismatch(at, line, want_line)
        event += piece.count("\n")
    extra = got.readline().decode(errors="replace")
    return _mismatch(event, extra, "") if extra else None


def _mismatch(event: int, got: str, want: str) -> str:
    """A report of unequal lines, "" for a missing one. Each is shown
    without its newline, unless that would make them look equal."""
    shown = [line.removesuffix("\n") for line in (got, want)]
    if shown[0] == shown[1]:
        shown = [got, want]
    got_at, want_at = (repr(text) if line else "'<missing>'"
                       for line, text in zip((got, want), shown))
    return f"first divergence at event {event}: got {got_at}, want {want_at}"


def cmd_check(
    spec_path: str,
    out_dir: str,
    cc_template: str,
    paths: Sequence[int],
    checksum_only: bool = False,
    report_path: Optional[str] = None,
) -> bool:
    """Compile the sources gen wrote and diff each run against the oracle.

    The compile runs in the background while the oracle computes the first
    PATH's expected trace; then it is reaped and the binary runs at each
    PATH, each later PATH's trace computed just before its run, so one
    PATH's trace is held at a time. An oracle failure or an interrupt kills
    the compile or the running binary with its process group.
    Returns True when every PATH passes. Failure categories:
    compile-failure, runtime-failure, trace-mismatch.
    """
    if not paths:  # else no binary runs and the check passes vacuously
        raise BenchError("check needs at least one PATH")
    manifest = load_manifest(out_dir)
    check_spec(read_spec_file(spec_path), manifest)
    _check_writable(report_path)
    seed = manifest["seed"]
    rows: List[Dict[str, object]] = []

    def report(path: Optional[int], status: str, detail: str = "") -> None:
        rows.append({"seed": seed, "path": path, "status": status, "detail": detail})
        tail = f" {detail}" if detail else ""
        where = f"seed={seed}" + ("" if path is None else f" path={path}")
        print(f"[{status}] {where}{tail}")

    def expected(path: int) -> List[str]:
        return oracle.run_to_pieces(program, oracle.ExecConfig(
            path=path, debug_trace=not checksum_only))

    with tempfile.TemporaryDirectory(prefix="lsysbench-check-") as workdir:
        # gcc compiles while the oracle computes the first PATH's expected trace
        binary = os.path.join(workdir, "prog")
        finish = start_compile(cc_template, out_dir, source_file_names(manifest), binary)
        try:
            program = program_from_manifest(manifest)
            want = expected(paths[0])
        except BaseException:
            finish(cancel=True)
            raise
        failure = _check_built(finish()[1], binary)
        if failure is not None:
            report(None, "compile-failure", failure)
            paths = []  # no binary to run
        for k, path in enumerate(paths):
            if k:
                want = None  # the last PATH's trace goes before this one's is computed
                want = expected(path)
            argv = [binary, str(path)]
            if not checksum_only:
                argv.append("--debug")
            with tempfile.TemporaryFile() as got:
                _, run = timed_run(argv, stdout=got)
                if run.returncode != 0:
                    report(path, "runtime-failure", _exit_report(run))
                    continue
                got.seek(0)
                mismatch = _first_divergence(got, want)
            if mismatch is None:
                report(path, "pass")
            else:
                report(path, "trace-mismatch", mismatch)
    ok = all(row["status"] == "pass" for row in rows)
    if report_path:
        write_json_lines(rows, report_path)
    print("check: PASS" if ok else "check: FAIL")
    return ok


def cmd_measure(
    spec_path: str,
    out_dir: str,
    cc_template: str,
    flag_sets: Sequence[str],
    repetitions: int = 10,
    warmups: int = 3,
    path: int = 1,
    size_cmd: Optional[str] = None,
    json_path: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Time each flag set's compile and run; returns one row per flag set,
    printed as a CSV table and written to json_path as JSON lines.
    Failures mark the row, not the batch."""
    _check_run_counts(repetitions, warmups)
    # a bad template fails the command before any compile, not each row
    render_template(cc_template, dict.fromkeys(("in", "out", "flags"), "x"))
    if size_cmd:
        render_template(size_cmd, {"bin": "x"})
    placeholders = {name for _, name, _, _ in string.Formatter().parse(cc_template)}
    if any(flag_sets) and "flags" not in placeholders:
        raise BenchError(f"flag sets {list(flag_sets)} given, but the command template "
                         f"has no {{flags}} placeholder: {cc_template}")
    manifest = load_manifest(out_dir)
    check_spec(read_spec_file(spec_path), manifest)
    _check_writable(json_path)
    checksum = oracle_checksums(manifest)(path)

    src_files = source_file_names(manifest)
    rows: List[Dict[str, object]] = []
    for flags in flag_sets:
        row = {"specName": manifest["specName"], "generation": manifest["generations"],
               "backend": manifest["backend"], "compilerCmd": cc_template, "flags": flags,
               "path": path, "seed": manifest["seed"], "containerKind": manifest["containerKind"],
               "compileTimeMs": 0.0, "runTimeMs": 0.0, "binaryBytes": 0,
               "textBytes": None, "checksum": None, "failed": False, "error": ""}
        rows.append(row)
        with tempfile.TemporaryDirectory(prefix="lsysbench-measure-") as workdir:
            binary = os.path.join(workdir, "prog")
            try:
                compile_times = []
                for _ in range(repetitions):
                    # each timed compile must write the binary, not find the last one's
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(binary)
                    elapsed, proc = compile_sources(cc_template, out_dir, src_files, binary, flags)
                    _check_built(proc, binary, "compile failed")
                    compile_times.append(elapsed)
                row["compileTimeMs"] = round(statistics.median(compile_times), 3)
                row["binaryBytes"] = os.path.getsize(binary)
                row["runTimeMs"] = round(
                    _median_run_ms(binary, path, repetitions, warmups, checksum), 3)
                row["checksum"] = checksum
                if size_cmd:
                    _, proc = timed_run(render_template(size_cmd, {"bin": shlex.quote(binary)}))
                    _exit_report(proc, "size command failed")
                    first = (proc.stdout.splitlines() or [""])[0].strip()
                    if not first.isdecimal():
                        raise BenchError(f"size command failed: {first!r} is not a byte count")
                    row["textBytes"] = int(first)
            except BenchError as exc:  # the only place a row fails
                row["failed"], row["error"] = True, str(exc)

    if json_path:
        write_json_lines(rows, json_path)
    print(write_csv(rows, MEASUREMENT_COLUMNS), end="")
    return rows


def _check_run_counts(repetitions: int, warmups: int) -> None:
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if warmups < 0:
        raise ValueError(f"warmups must be at least 0, got {warmups}")


def _median_run_ms(binary: str, path: int, repetitions: int, warmups: int, checksum: int,
                   cwd: Optional[str] = None, failure: str = "checksum mismatch") -> float:
    """Median wall time of the runs after the warm-ups. Every run, warm-ups
    included, must exit 0 and print the oracle's CHECKSUM line alone, as a
    binary run without --debug prints it: the first that does not raises
    BenchError, ``benchmark binary failed: exit=...`` or ``{failure}: first
    divergence ...``. The one check of a timed binary's output."""
    argv, want = [binary, str(path)], [f"CHECKSUM {checksum}\n"]
    times = []
    for _ in range(warmups + repetitions):
        elapsed, proc = timed_run(argv, cwd=cwd)
        _exit_report(proc, "benchmark binary failed")
        mismatch = _first_divergence(io.BytesIO(proc.stdout.encode()), want)
        if mismatch is not None:
            raise BenchError(f"{failure}: {mismatch}")
        times.append(elapsed)
    return statistics.median(times[warmups:])


def cmd_sweep_pgo(
    spec_path: str,
    out_dir: str,
    cc_base: str,
    cc_train: str,
    cc_opt: str,
    bit_counts: Sequence[int],
    train_path: int = 1,
    repetitions: int = 10,
    warmups: int = 3,
) -> List[Dict[str, object]]:
    """Baseline vs profile-trained binary over PATH = 2^i - 1, for each
    bit count i in bit_counts, printed as a CSV table.

    The training binary runs once at train_path; profile data lands in the
    working directory (LLVM_PROFILE_FILE is pointed there for clang-style
    instrumentation; gcc-style .gcda files land there because the compiler
    runs with that working directory). gcc names a .gcda file after the
    binary it was compiled into, so every binary is compiled as ``prog`` and
    renamed after: the optimized compile then finds the training profile.
    An optimized compile that reports a missing profile, a failed profile
    merge, and a baseline or optimized binary whose stdout on any run at a
    swept PATH is other than the oracle's CHECKSUM line each raise BenchError.
    """
    _check_run_counts(repetitions, warmups)
    for i in bit_counts:
        if not 1 <= i <= 63:
            raise ValueError(f"sweep bit count out of range [1, 63]: {i}")
    for template in (cc_base, cc_train, cc_opt):  # a bad one fails before any compile
        render_template(template, dict.fromkeys(("in", "out"), "x"))
    manifest = load_manifest(out_dir)
    check_spec(read_spec_file(spec_path), manifest)
    oracle_checksum = oracle_checksums(manifest)
    src_files = source_file_names(manifest)

    with tempfile.TemporaryDirectory(prefix="lsysbench-pgo-") as workdir:
        for name in manifest["files"]:
            shutil.copy(os.path.join(out_dir, name), os.path.join(workdir, name))

        def build(template: str, out_name: str) -> str:
            prog = os.path.join(workdir, "prog")
            _, proc = compile_sources(template, workdir, src_files, prog)
            _check_built(proc, prog,
                         f"compile failed for {out_name} (is profile tooling available?)")
            if "missing-profile" in proc.stderr:
                raise BenchError(f"{out_name} was compiled without its profile: "
                                 f"{_exit_report(proc)}")
            binary = os.path.join(workdir, out_name)
            os.rename(prog, binary)
            return binary

        base_bin = build(cc_base, "prog-base")
        train_bin = build(cc_train, "prog-train")

        env = dict(os.environ)
        env["LLVM_PROFILE_FILE"] = os.path.join(workdir, "default.profraw")
        _exit_report(timed_run([train_bin, str(train_path)], cwd=workdir, env=env)[1],
                     "training run failed")
        profraw = os.path.join(workdir, "default.profraw")
        if os.path.exists(profraw) and shutil.which("llvm-profdata"):
            _, proc = timed_run(["llvm-profdata", "merge", "-output",
                                 os.path.join(workdir, "default.profdata"), profraw])
            _exit_report(proc, "llvm-profdata merge failed")

        opt_bin = build(cc_opt, "prog-opt")

        rows: List[Dict[str, object]] = []
        for i in bit_counts:
            path = (1 << i) - 1
            want = oracle_checksum(path)
            t_ms, ti_ms = (_median_run_ms(binary, path, repetitions, warmups, want, workdir,
                                          f"checksum mismatch at path={path} ({name} binary)")
                           for binary, name in ((base_bin, "baseline"), (opt_bin, "optimized")))
            ratio = t_ms / ti_ms if ti_ms > 0 else 0.0
            rows.append({
                "i": i,
                "path": path,
                "t_ms": round(t_ms, 3),
                "ti_ms": round(ti_ms, 3),
                "ratio": round(ratio, 4),
            })

    print(write_csv(rows, SWEEP_COLUMNS), end="")
    return rows
