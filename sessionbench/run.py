#!/usr/bin/env python3
"""Session benchmark: the ``lsysbench gen`` -> ``check`` -> ``measure`` session
a user runs, timed from outside, plus a traced replay for per-layer numbers.

Run from the repository root:

    python3 sessionbench/run.py --workload churn --seed 0 --seconds 25 --trace 0
    python3 sessionbench/run.py --workload all       # every workload in turn

``--seed`` is the operand-planner seed handed to ``gen``. ``--seconds`` bounds
how long the loop of timed sessions keeps starting new ones (at least three
run). ``--trace 1`` adds one in-process session with spans around the public
functions of each module and reports per-layer metrics instead of end-to-end
ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Each command runs as a child process, reaped with ``os.wait4`` so that wall
time, CPU time (including gcc and the emitted binary) and max RSS of the
whole process tree are measured. Everything the benchmark writes goes under
``.sessionbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".sessionbench")

SETUP_REPEATS = 5
# At least three sessions, so a median is never the mean of two; the
# determinism probe compares the gens of the first two.
MIN_SESSIONS = 3
FLOOR_SPAWNS = 20
BELOW_FLOOR_FACTOR = 10
STRICT_FLAGS = ["-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
STRICT_LEVELS = ["-O0", "-O2"]
PLAIN_CC = ["gcc", "-std=c99", "-O0"]
TRIVIAL_C = "int main(void) { return 0; }\n"
COMMANDS = ("gen", "check", "measure")

# Failures of these kinds are defects of the emitted code that do not make
# any output wrong; they count in fail_ratio but leave ``correct`` true.
NON_OUTPUT_KINDS = frozenset({"strict-probe"})

END_TO_END_UNITS = {
    "setup_s": "s",
    "gen_s": "s",
    "check_s": "s",
    "measure_s": "s",
    "session_cpu_s": "s",
    "gen_rss_mb": "MB",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> span whose self time it sums.
SELF_MS = {
    "grammar.parse_ms": "grammar.parse_spec",
    "grammar.derive_ms": "grammar.derive",
    "astgen.prune_ms": "astgen.prune_nonterminals",
    "astgen.extract_ms": "astgen.extract_functions",
    "astgen.bits_ms": "astgen.assign_all_path_bits",
    "astgen.plan_ms": "astgen.plan_operands",
    "oracle.interpret_ms": "oracle.interpret",
    "oracle.format_ms": "oracle.run_to_text",
    "codegen.emit_ms": "codegen.emit",
    "bench.manifest_ms": "bench.build_manifest",
    "bench.gen_self_ms": "bench.cmd_gen",
    "bench.check_self_ms": "bench.cmd_check",
    "bench.measure_self_ms": "bench.cmd_measure",
    "toolchain.compile_ms": "toolchain.compile",
    "toolchain.run_ms": "toolchain.run",
    "trace.count_ms": spans.COUNT_SPAN,
}
# Per-layer metric -> span whose calls it counts.
CALLS = {
    "astgen.lower_calls": "astgen.lower",
    "oracle.interpret_calls": "oracle.interpret",
    "codegen.emit_calls": "codegen.emit",
    "toolchain.compile_calls": "toolchain.compile",
    "toolchain.runs": "toolchain.run",
}
# Per-layer metric -> (span, count recorded on it, how calls combine, unit).
COUNTS = {
    "grammar.items": ("grammar.derive", "items", max, "count"),
    "astgen.dropped_nonterminals": ("astgen.prune_nonterminals", "dropped", max, "count"),
    "astgen.functions": ("astgen.extract_functions", "functions", max, "count"),
    "astgen.max_bit_raw": ("astgen.assign_all_path_bits", "max_bit_raw", max, "count"),
    "astgen.static_ops": ("astgen.plan_operands", "static_ops", max, "count"),
    "oracle.dyn_ops": ("oracle.interpret", "dyn_ops", sum, "count"),
    "oracle.max_live": ("oracle.interpret", "max_live", max, "count"),
    "oracle.trace_events": ("oracle.interpret", "trace_events", sum, "count"),
    "codegen.source_bytes": ("codegen.emit", "source_bytes", max, "bytes"),
    "toolchain.binary_bytes": ("toolchain.compile", "binary_bytes", max, "bytes"),
    "toolchain.trace_bytes": ("toolchain.run", "trace_bytes", sum, "bytes"),
}


def per_layer_units() -> Dict[str, str]:
    units = {name: "ms" for name in SELF_MS}
    units.update({name: "count" for name in CALLS})
    units.update({name: spec[3] for name, spec in COUNTS.items()})
    units.update({
        "oracle.us_per_op": "us",
        "bench.spawn_floor_ms": "ms",
        "toolchain.runs_below_floor": "count",
        "trace.overhead_ms": "ms",
    })
    return units


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    generations: int
    container: str
    check_cc: str
    check_paths: Tuple[int, ...]
    measure_cc: str
    measure_flags: Tuple[str, ...]
    measure_path: int
    repetitions: int


def load_workloads() -> Dict[str, Workload]:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for w in data["workloads"]:
        out[w["name"]] = Workload(
            name=w["name"],
            spec=os.path.join(HERE, w["spec"]),
            generations=w["generations"],
            container=w["container"],
            check_cc=w["check"]["cc"],
            check_paths=tuple(w["check"]["paths"]),
            measure_cc=w["measure"]["cc"],
            measure_flags=tuple(w["measure"]["flags"]),
            measure_path=w["measure"]["path"],
            repetitions=w["measure"]["repetitions"],
        )
    return out


def cli_args(wl: Workload, spec: str, out_dir: str, seed: int) -> Dict[str, List[str]]:
    """The three command lines of one session, without the program name."""
    return {
        "gen": ["gen", spec, "--out", out_dir, "--generations", str(wl.generations),
                "--container", wl.container, "--seed", str(seed)],
        "check": ["check", spec, "--out", out_dir, "--cc", wl.check_cc,
                  "--paths", ",".join(str(p) for p in wl.check_paths),
                  "--report", out_dir + ".check.jsonl"],
        "measure": ["measure", spec, "--out", out_dir, "--cc", wl.measure_cc,
                    *[f"--flags={f}" for f in wl.measure_flags],
                    "--path", str(wl.measure_path),
                    "--repetitions", str(wl.repetitions),
                    "--json", out_dir + ".measure.jsonl"],
    }


# ---------------------------------------------------------------------------
# fail accounting


@dataclass
class Ledger:
    """Every attempted operation and whether it succeeded."""

    entries: List[Tuple[str, bool, str]] = field(default_factory=list)

    def record(self, kind: str, ok: bool, detail: str = "") -> None:
        self.entries.append((kind, ok, detail))

    @property
    def attempted(self) -> int:
        return len(self.entries)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.entries if not ok)

    @property
    def correct(self) -> bool:
        return all(ok or kind in NON_OUTPUT_KINDS for kind, ok, _ in self.entries)

    def failures(self) -> List[Tuple[str, str]]:
        return [(kind, detail) for kind, ok, detail in self.entries if not ok]


def read_json_lines(path: str) -> List[dict]:
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def account_session(ledger: Ledger, wl: Workload, out_dir: str, codes: Dict[str, int]) -> None:
    """Exit statuses, then every check row and every measure row."""
    for cmd in COMMANDS:
        ledger.record("exit", codes[cmd] == 0, f"{cmd} exited {codes[cmd]}")
    rows = read_json_lines(out_dir + ".check.jsonl")
    for row in rows:
        ledger.record("check-row", row["status"] == "pass",
                      f"path={row['path']} {row['status']} {row['detail']}"[:300])
    for _ in range(len(wl.check_paths) - len(rows)):
        ledger.record("check-row", False, "check row missing")
    rows = read_json_lines(out_dir + ".measure.jsonl")
    for row in rows:
        ledger.record("measure-row", not row["failed"], f"flags={row['flags']} {row['error']}"[:300])
    for _ in range(len(wl.measure_flags) - len(rows)):
        ledger.record("measure-row", False, "measure row missing")


# ---------------------------------------------------------------------------
# timed children


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv: List[str], log_prefix: str, env: Dict[str, str]) -> Child:
    """Run argv to completion; rusage covers the child and all it waited for."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    )


@dataclass
class Session:
    out_dir: str
    children: Dict[str, Child]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children.values())

    def metrics(self) -> Dict[str, float]:
        c = self.children
        return {
            "gen_s": c["gen"].wall_s,
            "check_s": c["check"].wall_s,
            "measure_s": c["measure"].wall_s,
            "session_cpu_s": sum(x.cpu_s for x in c.values()),
            "gen_rss_mb": c["gen"].maxrss_mb,
            "peak_rss_mb": max(x.maxrss_mb for x in c.values()),
        }


def run_session(wl: Workload, ctx: "Setup", index: int) -> Session:
    out_dir = os.path.join(ctx.ws, f"s{index}")
    children = {}
    for cmd, args in cli_args(wl, ctx.spec, out_dir, ctx.seed).items():
        argv = [sys.executable, "-m", "lsysbench.cli", *args]
        children[cmd] = run_child(argv, f"{out_dir}.{cmd}", ctx.env)
    return Session(out_dir, children)


# ---------------------------------------------------------------------------
# setup


@dataclass
class Setup:
    ws: str
    spec: str
    seed: int
    env: Dict[str, str]
    floor_ms: float
    seconds: float


def prepare(wl: Workload, seed: int) -> Setup:
    """Fresh workspace and spec, warm bytecode cache, spawn-floor calibration."""
    from lsysbench import bench

    start = time.perf_counter()
    ws = os.path.join(WORK, wl.name)
    shutil.rmtree(ws, ignore_errors=True)
    os.makedirs(ws)
    spec = os.path.join(ws, os.path.basename(wl.spec))
    shutil.copyfile(wl.spec, spec)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every child
    warm = subprocess.run([sys.executable, "-c", "import lsysbench.cli"], env=env,
                          cwd=ROOT, capture_output=True, text=True)
    if warm.returncode != 0:
        raise SystemExit(f"cannot import lsysbench: {warm.stderr.strip()[-300:]}")
    trivial = os.path.join(ws, "trivial")
    with open(trivial + ".c", "w", encoding="utf-8") as fh:
        fh.write(TRIVIAL_C)
    built = subprocess.run(PLAIN_CC + [trivial + ".c", "-o", trivial], env=env,
                           capture_output=True, text=True)
    if built.returncode != 0:
        raise SystemExit(f"cannot compile a trivial C program: {built.stderr.strip()[:300]}")
    floor_ms = statistics.median(bench.timed_run([trivial])[0] for _ in range(FLOOR_SPAWNS))
    return Setup(ws, spec, seed, env, floor_ms, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# correctness probes (untimed)


def generated_files(out_dir: str) -> List[str]:
    """Files a gen wrote, per its manifest; none when it wrote no manifest."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    return sorted(manifest["files"]) + ["manifest.json"]


def c_sources(out_dir: str) -> List[str]:
    return [name for name in generated_files(out_dir) if name.endswith(".c")]


def compile_c(out_dir: str, flags: List[str], binary: str, env: Dict[str, str]):
    return subprocess.run(flags + c_sources(out_dir) + ["-o", binary], cwd=out_dir,
                          env=env, capture_output=True, text=True)


def first_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[0].strip()[:200] if lines else ""


def probe_determinism(ledger: Ledger, a: str, b: str, ctx: Setup) -> Optional[str]:
    """Two gens give identical files; two compiles give identical binaries.

    Returns the path of one compiled binary, or None if compiling failed.
    """
    names = generated_files(a)
    same = names == generated_files(b) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names)
    ledger.record("determinism-gen", same, f"{a} vs {b}")
    binaries = [os.path.join(ctx.ws, f"plain-{i}") for i in range(2)]
    procs = [compile_c(a, PLAIN_CC, path, ctx.env) for path in binaries]
    built = all(p.returncode == 0 for p in procs)
    same = built and filecmp.cmp(binaries[0], binaries[1], shallow=False)
    ledger.record("determinism-compile", same,
                  "" if built else first_line(procs[0].stderr + procs[1].stderr))
    return binaries[0] if built else None


def probe_checksums(ledger: Ledger, wl: Workload, out_dir: str, binary: Optional[str],
                    ctx: Setup) -> None:
    """Manifest, a direct oracle run and the binary agree at PATH 1."""
    from lsysbench import bench, oracle

    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(ctx.spec, encoding="utf-8") as fh:
        spec_text = fh.read()
    with warnings.catch_warnings():  # gen already reported dropped symbols and wrapped bits
        warnings.simplefilter("ignore")
        program = bench.build_program(spec_text, wl.generations, bench.plan_from_manifest(manifest))
    direct = oracle.interpret(program, oracle.ExecConfig(path=1))[1].checksum
    got = None
    if binary is not None:
        proc = subprocess.run([binary, "1"], capture_output=True, text=True)
        got = bench.parse_checksum(proc.stdout) if proc.returncode == 0 else None
    want = manifest["oracleChecksumPath1"]
    ledger.record("checksum-path1", want == direct == got,
                  f"manifest={want} oracle={direct} binary={got}")


def probe_strict(ledger: Ledger, out_dir: str, ctx: Setup) -> None:
    """Compile once per level under -pedantic -Wall -Wextra -Werror."""
    for level in STRICT_LEVELS:
        proc = compile_c(out_dir, ["gcc"] + STRICT_FLAGS + [level],
                         os.path.join(ctx.ws, f"strict{level}"), ctx.env)
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        detail = "ok" if proc.returncode == 0 else first_line("\n".join(errors) or proc.stderr)
        ledger.record("strict-probe", proc.returncode == 0, f"{level}: {detail}")


# ---------------------------------------------------------------------------
# traced session


def layer_hooks() -> List[spans.Hook]:
    from lsysbench import astgen, bench, codegen, grammar, oracle

    def max_bit(args, kwargs, program):
        return {"max_bit_raw": max(fn.max_bit_index for fn in program.functions)}

    def oracle_counts(args, kwargs, result):
        trace, stats = result
        return {"dyn_ops": sum(stats.op_counts.values()), "max_live": stats.max_live,
                "trace_events": len(trace)}

    def binary_size(args, kwargs, result):
        return {"binary_bytes": os.path.getsize(args[3]) if result[1].returncode == 0 else 0}

    H = spans.Hook
    return [
        H(grammar, "parse_spec", "grammar.parse_spec"),
        H(grammar, "derive", "grammar.derive",
          lambda a, k, r: {"items": grammar.total_items(r)}),
        H(astgen, "lower", "astgen.lower"),
        H(astgen, "prune_nonterminals", "astgen.prune_nonterminals",
          lambda a, k, r: {"dropped": grammar.total_items(a[0]) - grammar.total_items(r)}),
        H(astgen, "extract_functions", "astgen.extract_functions",
          lambda a, k, r: {"functions": len(r.functions)}),
        H(astgen, "assign_all_path_bits", "astgen.assign_all_path_bits", max_bit),
        H(astgen, "plan_operands", "astgen.plan_operands",
          lambda a, k, r: {"static_ops": bench.count_ops(r)}),
        H(oracle, "interpret", "oracle.interpret", oracle_counts),
        H(oracle, "run_to_text", "oracle.run_to_text"),
        H(codegen, "emit", "codegen.emit",
          lambda a, k, r: {"source_bytes": sum(len(f.contents.encode()) for f in r)}),
        H(bench, "cmd_gen", "bench.cmd_gen"),
        H(bench, "cmd_check", "bench.cmd_check"),
        H(bench, "cmd_measure", "bench.cmd_measure"),
        H(bench, "build_manifest", "bench.build_manifest"),
        H(bench, "compile_sources", "toolchain.compile", binary_size),
        H(bench, "timed_run", "toolchain.run",
          lambda a, k, r: {"trace_bytes": len(r[1].stdout)}, skip_inside="toolchain.compile"),
    ]


def traced_session(wl: Workload, ctx: Setup, ledger: Ledger) -> spans.Tracer:
    """Replay the session in this process with every layer hook installed."""
    from lsysbench import cli

    out_dir = os.path.join(ctx.ws, "traced")
    tracer = spans.Tracer(session=f"{wl.name}/seed={ctx.seed}/traced")
    sink = io.StringIO()
    codes = {}
    with spans.instrument(tracer, layer_hooks()), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cmd, args in cli_args(wl, ctx.spec, out_dir, ctx.seed).items():
            with tracer.span(f"cli.{cmd}"):
                codes[cmd] = cli.main(args)
    account_session(ledger, wl, out_dir, codes)
    with open(os.path.join(ctx.ws, "spans.jsonl"), "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp.to_json()) + "\n")
    return tracer


def layer_metrics(tracer: spans.Tracer, floor_ms: float, untraced_wall_s: float) -> Dict[str, float]:
    selfs = spans.self_times(tracer.spans)
    by_name: Dict[str, List[spans.Span]] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    m: Dict[str, float] = {}
    for metric, name in SELF_MS.items():
        m[metric] = 1000.0 * sum(selfs[sp.span_id] for sp in by_name.get(name, []))
    for metric, name in CALLS.items():
        m[metric] = len(by_name.get(name, []))
    for metric, (name, key, combine, _) in COUNTS.items():
        values = [sp.counts[key] for sp in by_name.get(name, [])]
        m[metric] = combine(values) if values else 0
    m["oracle.us_per_op"] = (1000.0 * m["oracle.interpret_ms"] / m["oracle.dyn_ops"]
                             if m["oracle.dyn_ops"] else 0.0)
    m["bench.spawn_floor_ms"] = floor_ms
    m["toolchain.runs_below_floor"] = sum(
        1 for sp in by_name.get("toolchain.run", [])
        if 1000.0 * (sp.end - sp.start) < BELOW_FLOOR_FACTOR * floor_ms)
    traced_wall = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    m["trace.overhead_ms"] = 1000.0 * (traced_wall - untraced_wall_s)
    return m


def gen_breakdown(tracer: spans.Tracer) -> List[Tuple[str, float]]:
    """Self time per span name inside the traced ``gen``, largest first."""
    root = next(sp for sp in tracer.spans if sp.name == "cli.gen")
    selfs = spans.self_times(tracer.spans)
    totals: Dict[str, float] = {}
    for sp in spans.descendants(tracer.spans, root.span_id):
        totals[sp.name] = totals.get(sp.name, 0.0) + 1000.0 * selfs[sp.span_id]
    return sorted(totals.items(), key=lambda kv: -kv[1])


# ---------------------------------------------------------------------------
# one workload


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    setups = [prepare(wl, seed) for _ in range(SETUP_REPEATS)]
    ctx = setups[-1]
    ledger = Ledger()

    sessions: List[Session] = []
    start = time.perf_counter()
    while True:
        sessions.append(run_session(wl, ctx, len(sessions)))
        elapsed = time.perf_counter() - start
        if len(sessions) >= MIN_SESSIONS and elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            break
    for s in sessions:
        account_session(ledger, wl, s.out_dir, {k: c.returncode for k, c in s.children.items()})

    first = sessions[0].out_dir
    if generated_files(first):
        binary = probe_determinism(ledger, first, sessions[1].out_dir, ctx)
        probe_checksums(ledger, wl, first, binary, ctx)
        probe_strict(ledger, first, ctx)
    else:
        ledger.record("gen-output", False, "first session wrote no manifest.json")

    samples = {"setup_s": [s.seconds for s in setups]}
    for s in sessions:
        for name, value in s.metrics().items():
            samples.setdefault(name, []).append(value)
    e2e = {name: statistics.median(values) for name, values in samples.items()}

    print(f"== {wl.name}: seed={seed} sessions={len(sessions)} "
          f"spawn_floor={ctx.floor_ms:.3f} ms")
    for name, unit in END_TO_END_UNITS.items():
        values = samples[name]
        print(f"  {name:<14} {e2e[name]:10.4f} {unit:<3} median of n={len(values)} "
              f"[min {min(values):.4f}, max {max(values):.4f}]")
    ratio = ledger.failed / ledger.attempted
    print(f"  {'fail_ratio':<14} {ratio:10.4f}     {ledger.failed} failed of "
          f"{ledger.attempted} attempted")
    for kind, detail in ledger.failures():
        print(f"    FAILED {kind}: {detail}")

    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        tracer = traced_session(wl, ctx, ledger)
        layer = layer_metrics(tracer, ctx.floor_ms,
                              statistics.median(s.wall_s for s in sessions))
        units = per_layer_units()
        print("  traced session, self time per stage of gen (ms):")
        for name, ms in gen_breakdown(tracer):
            print(f"    {name:<30} {ms:10.2f}")
        print("  per-layer metrics (whole traced session):")
        for name in sorted(layer):
            note = ""
            if name == "toolchain.run_ms" and layer["toolchain.runs_below_floor"]:
                note = (f"  ({layer['toolchain.runs_below_floor']} of {layer['toolchain.runs']}"
                        f" runs below-floor: under {BELOW_FLOOR_FACTOR}x the spawn floor)")
            print(f"    {name:<30} {layer[name]:14.4f} {units[name]}{note}")
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in sorted(layer)}

    return {"correct": ledger.correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="operand-planner seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="start no session that would end after this long (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced session and report per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lsysbench", "cli.py")):
        print(f"error: no lsysbench sources under {SRC}", file=sys.stderr)
        return 2
    if shutil.which("gcc") is None:
        print("error: gcc not found on PATH", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    workloads = load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads)}, all")

    sys.path.insert(0, SRC)
    # Temporary files of this process, its children and gcc stay in WORK.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    for name in names:
        result = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
