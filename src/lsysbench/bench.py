"""Benchmark harness: generate programs, check them, and measure toolchains.

The four commands mirror the CLI subcommands:

  cmd_gen       derive -> lower -> emit, write sources plus a manifest
  cmd_check     compile the emitted program and diff its trace vs the oracle
  cmd_measure   time compilation and execution under user-supplied flag sets
  cmd_sweep_pgo compare a baseline binary against a profile-trained one over
                a sweep of control paths

Compiler invocations are user-supplied command templates with ``{in}``,
``{out}`` and (for measure) ``{flags}`` placeholders; the tool never guesses
toolchain flags. Timing wraps each subprocess in a monotonic clock and takes
the median over repetitions, with warm-up runs discarded.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import astgen, codegen, grammar, oracle

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "lsysbench/manifest/v1"

SOURCE_EXTENSIONS = {"c": ".c", "go": ".go"}

MEASUREMENT_COLUMNS = [
    "specName", "generation", "backend", "compilerCmd", "flags", "path", "seed",
    "containerKind", "compileTimeMs", "runTimeMs", "binaryBytes", "textBytes",
    "checksum", "failed", "error",
]

SWEEP_COLUMNS = ["i", "path", "t_ms", "ti_ms", "ratio"]


class BenchError(Exception):
    """Harness-level failure (bad manifest, missing files, bad template)."""


@dataclass
class Measurement:
    spec_name: str
    generation: int
    backend: str
    compiler_cmd: str
    flags: str
    path: int
    seed: int
    container_kind: str
    compile_time_ms: float = 0.0
    run_time_ms: float = 0.0
    binary_bytes: int = 0
    text_bytes: Optional[int] = None
    checksum: Optional[int] = None
    failed: bool = False
    error: str = ""

    def to_row(self) -> Dict[str, object]:
        return {
            "specName": self.spec_name,
            "generation": self.generation,
            "backend": self.backend,
            "compilerCmd": self.compiler_cmd,
            "flags": self.flags,
            "path": self.path,
            "seed": self.seed,
            "containerKind": self.container_kind,
            "compileTimeMs": round(self.compile_time_ms, 3),
            "runTimeMs": round(self.run_time_ms, 3),
            "binaryBytes": self.binary_bytes,
            "textBytes": self.text_bytes,
            "checksum": self.checksum,
            "failed": self.failed,
            "error": self.error,
        }


@dataclass
class SweepConfig:
    """Path sweep: each bit count i turns into PATH = 2^i - 1."""

    bit_counts: List[int] = field(default_factory=lambda: [1, 2, 4, 8, 16, 32, 63])

    def __post_init__(self):
        for i in self.bit_counts:
            if not 1 <= i <= 63:
                raise ValueError(f"sweep bit count out of range [1, 63]: {i}")

    @staticmethod
    def path_of(i: int) -> int:
        return (1 << i) - 1


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
    plan: astgen.OperandPlan,
    emit_cfg: codegen.EmitConfig,
    program: astgen.Program,
    files: Sequence[codegen.SourceFile],
) -> dict:
    checksum_path1 = oracle.interpret(program, oracle.ExecConfig(path=1))[1].checksum
    return {
        "schema": MANIFEST_SCHEMA,
        "specName": spec_name,
        "specSha256": hashlib.sha256(spec_text.encode("utf-8")).hexdigest(),
        "generations": generations,
        "seed": plan.seed,
        "valueRange": plan.value_range,
        "tripCount": plan.trip_count,
        "containerKind": plan.container_kind,
        "backend": emit_cfg.backend,
        "splitFiles": emit_cfg.split_files,
        "debugTrace": emit_cfg.debug_trace,
        "functionCount": len(program.functions),
        "entryId": program.entry_id,
        "totalOps": count_ops(program),
        "files": sorted(f.relative_path for f in files),
        "oracleChecksumPath1": checksum_path1,
    }


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def load_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise BenchError(f"no {MANIFEST_NAME} in {out_dir}; run `gen` first")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise BenchError(f"unsupported manifest schema: {manifest.get('schema')!r}")
    return manifest


def plan_from_manifest(manifest: dict, seed: Optional[int] = None) -> astgen.OperandPlan:
    return astgen.OperandPlan(
        seed=manifest["seed"] if seed is None else seed,
        value_range=manifest["valueRange"],
        trip_count=manifest["tripCount"],
        container_kind=manifest["containerKind"],
    )


def check_spec(spec_text: str, manifest: dict) -> None:
    """Refuse a spec other than the one `gen` wrote the manifest for."""
    digest = hashlib.sha256(spec_text.encode("utf-8")).hexdigest()
    if digest != manifest["specSha256"]:
        raise BenchError(
            "spec file does not match the manifest (sha256 differs); "
            "regenerate with `gen` or pass the original spec"
        )


def program_from_manifest(spec_text: str, manifest: dict, seed: Optional[int] = None) -> astgen.Program:
    check_spec(spec_text, manifest)
    return build_program(spec_text, manifest["generations"], plan_from_manifest(manifest, seed))


def read_spec_file(spec_path: str) -> str:
    with open(spec_path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_source_files(files: Sequence[codegen.SourceFile], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for f in files:
        with open(os.path.join(out_dir, f.relative_path), "w", encoding="utf-8") as fh:
            fh.write(f.contents)


def source_file_names(manifest: dict) -> List[str]:
    ext = SOURCE_EXTENSIONS[manifest["backend"]]
    return [name for name in manifest["files"] if name.endswith(ext)]


# ---------------------------------------------------------------------------
# subprocess helpers


def render_template(template: str, mapping: Dict[str, str]) -> List[str]:
    class _Strict(dict):
        def __missing__(self, key):
            raise BenchError(f"unknown placeholder {{{key}}} in command template: {template}")

    rendered = template.format_map(_Strict(mapping))
    argv = shlex.split(rendered)
    if not argv:
        raise BenchError(f"empty command template: {template!r}")
    return argv


def timed_run(
    argv: List[str],
    cwd: Optional[str] = None,
    env: Optional[Dict[str, str]] = None,
) -> Tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    except OSError as exc:
        proc = subprocess.CompletedProcess(argv, returncode=127, stdout="", stderr=str(exc))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return elapsed_ms, proc


def compile_sources(
    cc_template: str,
    src_dir: str,
    src_files: Sequence[str],
    out_binary: str,
    flags: Optional[str] = None,
) -> Tuple[float, subprocess.CompletedProcess]:
    mapping = {"in": " ".join(src_files), "out": out_binary}
    if flags is not None:
        mapping["flags"] = flags
    argv = render_template(cc_template, mapping)
    return timed_run(argv, cwd=src_dir)


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


def write_csv(rows: Sequence[Dict[str, object]], columns: Sequence[str], path: Optional[str]) -> str:
    """Write RFC-4180 CSV; returns the text. path=None writes nowhere."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("" if row.get(key) is None else row.get(key)) for key in columns})
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def write_json_lines(rows: Sequence[Dict[str, object]], path: Optional[str]) -> str:
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# commands


def cmd_gen(
    spec_path: str,
    out_dir: str,
    generations: int,
    plan: astgen.OperandPlan,
    emit_cfg: codegen.EmitConfig,
) -> Optional[dict]:
    """Generate sources and a manifest; returns the manifest (None if empty)."""
    spec_text = read_spec_file(spec_path)
    program = build_program(spec_text, generations, plan)
    if count_ops(program) == 0:
        print(
            "warning: derivation contains no behavioral operations; nothing to emit",
            file=sys.stderr,
        )
        return None
    files = codegen.emit(program, emit_cfg)
    spec_name = os.path.basename(spec_path)
    manifest = build_manifest(spec_name, spec_text, generations, plan, emit_cfg, program, files)
    write_source_files(files, out_dir)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(manifest_to_json(manifest))
    print(f"wrote {len(files)} source file(s) + {MANIFEST_NAME} to {out_dir}")
    print(f"functions: {manifest['functionCount']}  ops: {manifest['totalOps']}")
    print(f"oracle checksum (path=1): {manifest['oracleChecksumPath1']}")
    return manifest


def _first_divergence(got: List[str], want: List[str]) -> int:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return min(len(got), len(want))


def cmd_check(
    spec_path: str,
    out_dir: str,
    cc_template: str,
    paths: Sequence[int],
    seeds: Optional[Sequence[int]] = None,
    checksum_only: bool = False,
    report_path: Optional[str] = None,
) -> bool:
    """Compile the emitted program and diff each run against the oracle.

    Returns True when every (seed, path) combination passes. Failure
    categories: compile-failure, runtime-failure, trace-mismatch.
    """
    manifest = load_manifest(out_dir)
    spec_text = read_spec_file(spec_path)
    seed_list = list(seeds) if seeds else [manifest["seed"]]
    rows: List[Dict[str, object]] = []
    ok = True

    def report(seed: int, path: Optional[int], status: str, detail: str = "") -> None:
        rows.append({"seed": seed, "path": path, "status": status, "detail": detail})
        tail = f" {detail}" if detail else ""
        where = f"seed={seed}" + ("" if path is None else f" path={path}")
        print(f"[{status}] {where}{tail}")

    for seed in seed_list:
        program = program_from_manifest(spec_text, manifest, seed)
        with tempfile.TemporaryDirectory(prefix="lsysbench-check-") as workdir:
            if seed == manifest["seed"]:
                src_dir = out_dir
            else:
                emit_cfg = codegen.EmitConfig(
                    backend=manifest["backend"],
                    split_files=manifest["splitFiles"],
                    debug_trace=manifest["debugTrace"],
                )
                write_source_files(codegen.emit(program, emit_cfg), workdir)
                src_dir = workdir
            binary = os.path.join(workdir, "prog")
            _, proc = compile_sources(cc_template, src_dir, source_file_names(manifest), binary)
            if proc.returncode != 0:
                report(seed, None, "compile-failure", proc.stderr.strip()[:400])
                ok = False
                continue
            for path in paths:
                argv = [binary, str(path)]
                if not checksum_only:
                    argv.append("--debug")
                _, run = timed_run(argv)
                if run.returncode != 0:
                    report(seed, path, "runtime-failure",
                           f"exit={run.returncode} {run.stderr.strip()[:200]}")
                    ok = False
                    continue
                cfg = oracle.ExecConfig(path=path, debug_trace=not checksum_only)
                want = oracle.run_to_text(program, cfg)
                if run.stdout == want:
                    report(seed, path, "pass")
                    continue
                got_lines = run.stdout.splitlines()
                want_lines = want.splitlines()
                idx = _first_divergence(got_lines, want_lines)
                got_at = got_lines[idx] if idx < len(got_lines) else "<missing>"
                want_at = want_lines[idx] if idx < len(want_lines) else "<missing>"
                report(seed, path, "trace-mismatch",
                       f"first divergence at event {idx}: got {got_at!r}, want {want_at!r}")
                ok = False
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
    oracle_check: bool = True,
    csv_path: Optional[str] = None,
    json_path: Optional[str] = None,
) -> List[Measurement]:
    """One Measurement row per flag set; failures mark the row, not the batch."""
    manifest = load_manifest(out_dir)
    spec_text = read_spec_file(spec_path)
    check_spec(spec_text, manifest)
    expected_checksum = None
    if oracle_check and path == 1:
        expected_checksum = manifest["oracleChecksumPath1"]
    elif oracle_check:
        program = program_from_manifest(spec_text, manifest)
        expected_checksum = oracle.interpret(program, oracle.ExecConfig(path=path))[1].checksum

    src_files = source_file_names(manifest)
    results: List[Measurement] = []
    for flags in flag_sets:
        m = Measurement(
            spec_name=manifest["specName"],
            generation=manifest["generations"],
            backend=manifest["backend"],
            compiler_cmd=cc_template,
            flags=flags,
            path=path,
            seed=manifest["seed"],
            container_kind=manifest["containerKind"],
        )
        results.append(m)
        with tempfile.TemporaryDirectory(prefix="lsysbench-measure-") as workdir:
            binary = os.path.join(workdir, "prog")
            compile_times = []
            failed_proc = None
            for _ in range(max(1, repetitions)):
                elapsed, proc = compile_sources(cc_template, out_dir, src_files, binary, flags=flags)
                if proc.returncode != 0:
                    failed_proc = proc
                    break
                compile_times.append(elapsed)
            if failed_proc is not None:
                m.failed = True
                m.error = failed_proc.stderr.strip()[:400]
                continue
            m.compile_time_ms = statistics.median(compile_times)
            m.binary_bytes = os.path.getsize(binary)

            try:
                m.run_time_ms, stdout = _median_run_ms(binary, path, repetitions, warmups)
            except BenchError as exc:
                m.failed = True
                m.error = str(exc)
                continue
            m.checksum = parse_checksum(stdout)

            if size_cmd:
                argv = render_template(size_cmd, {"bin": binary})
                _, proc = timed_run(argv)
                first = proc.stdout.splitlines()[0].strip() if proc.stdout.splitlines() else ""
                try:
                    m.text_bytes = int(first)
                except ValueError:
                    m.text_bytes = None

            if expected_checksum is not None and m.checksum != expected_checksum:
                m.failed = True
                m.error = f"checksum mismatch: got {m.checksum}, oracle {expected_checksum}"

    rows = [m.to_row() for m in results]
    csv_text = write_csv(rows, MEASUREMENT_COLUMNS, csv_path)
    if json_path:
        write_json_lines(rows, json_path)
    if not csv_path and not json_path:
        print(csv_text, end="")
    else:
        for m in results:
            status = "FAILED" if m.failed else "ok"
            print(f"[{status}] flags={m.flags!r} compile={m.compile_time_ms:.1f}ms "
                  f"run={m.run_time_ms:.1f}ms size={m.binary_bytes}B")
    return results


def _median_run_ms(binary: str, path: int, repetitions: int, warmups: int,
                   cwd: Optional[str] = None,
                   env: Optional[Dict[str, str]] = None) -> Tuple[float, str]:
    """Median wall time of the timed runs, and the last run's stdout."""
    argv = [binary, str(path)]
    for _ in range(max(0, warmups)):
        _, proc = timed_run(argv, cwd=cwd, env=env)
        if proc.returncode != 0:
            raise BenchError(f"benchmark binary failed: exit={proc.returncode} {proc.stderr.strip()[:300]}")
    times = []
    for _ in range(max(1, repetitions)):
        elapsed, proc = timed_run(argv, cwd=cwd, env=env)
        if proc.returncode != 0:
            raise BenchError(f"benchmark binary failed: exit={proc.returncode} {proc.stderr.strip()[:300]}")
        times.append(elapsed)
    return statistics.median(times), proc.stdout


def cmd_sweep_pgo(
    spec_path: str,
    out_dir: str,
    cc_base: str,
    cc_train: str,
    cc_opt: str,
    sweep: SweepConfig,
    train_path: int = 1,
    repetitions: int = 10,
    warmups: int = 3,
    csv_path: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Baseline vs profile-trained binary over PATH = 2^i - 1 sweeps.

    The training binary runs once at train_path; profile data lands in the
    working directory (LLVM_PROFILE_FILE is pointed there for clang-style
    instrumentation; gcc-style .gcda files land there because the compiler
    runs with that working directory).
    """
    manifest = load_manifest(out_dir)
    check_spec(read_spec_file(spec_path), manifest)
    src_files = source_file_names(manifest)

    with tempfile.TemporaryDirectory(prefix="lsysbench-pgo-") as workdir:
        for name in manifest["files"]:
            shutil.copy(os.path.join(out_dir, name), os.path.join(workdir, name))

        def build(template: str, out_name: str) -> str:
            binary = os.path.join(workdir, out_name)
            _, proc = compile_sources(template, workdir, src_files, binary)
            if proc.returncode != 0:
                raise BenchError(
                    f"compile failed for {out_name} (is profile tooling available?): "
                    f"{proc.stderr.strip()[:400]}"
                )
            return binary

        base_bin = build(cc_base, "prog-base")
        train_bin = build(cc_train, "prog-train")

        env = dict(os.environ)
        env["LLVM_PROFILE_FILE"] = os.path.join(workdir, "default.profraw")
        _, proc = timed_run([train_bin, str(train_path)], cwd=workdir, env=env)
        if proc.returncode != 0:
            raise BenchError(
                f"training run failed: exit={proc.returncode} {proc.stderr.strip()[:300]}"
            )
        profraw = os.path.join(workdir, "default.profraw")
        if os.path.exists(profraw) and shutil.which("llvm-profdata"):
            subprocess.run(
                ["llvm-profdata", "merge", "-output",
                 os.path.join(workdir, "default.profdata"), profraw],
                capture_output=True,
            )

        opt_bin = build(cc_opt, "prog-opt")

        rows: List[Dict[str, object]] = []
        for i in sweep.bit_counts:
            path = SweepConfig.path_of(i)
            t_ms, _ = _median_run_ms(base_bin, path, repetitions, warmups, cwd=workdir)
            ti_ms, _ = _median_run_ms(opt_bin, path, repetitions, warmups, cwd=workdir)
            ratio = t_ms / ti_ms if ti_ms > 0 else 0.0
            rows.append({
                "i": i,
                "path": path,
                "t_ms": round(t_ms, 3),
                "ti_ms": round(ti_ms, 3),
                "ratio": round(ratio, 4),
            })

    csv_text = write_csv(rows, SWEEP_COLUMNS, csv_path)
    if not csv_path:
        print(csv_text, end="")
    else:
        for row in rows:
            print(f"i={row['i']} path={row['path']} t={row['t_ms']}ms "
                  f"ti={row['ti_ms']}ms ratio={row['ratio']}")
    return rows
