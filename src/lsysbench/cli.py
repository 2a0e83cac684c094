"""Command-line interface: gen, check, measure, sweep-pgo."""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from . import astgen, bench, codegen, grammar

CONTAINER_CHOICES = {kind.lower(): kind for kind in astgen.CONTAINER_KINDS}


def _int_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _checked_u64(what: str, value: int) -> int:
    # The emitted programs read PATH, and bake in the planner seed, as
    # unsigned 64-bit integers.
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"{what} must be in [0, 2^64), got {value}")
    return value


def _u64_value(what: str):
    def parse(text: str) -> int:
        try:
            return _checked_u64(what, int(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be in [0, 2^64), got {text!r}")
    return parse


def _u64_list(what: str):
    return lambda text: [_checked_u64(what, value) for value in _int_list(text)]


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", metavar="DIR",
                        help="directory for sources, manifest, and reports (default ./out)")
    return common


def _add_generation_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("generation parameters")
    group.add_argument("--seed", type=_u64_value("seed"), default=0,
                       help="operand planner seed (default 0)")
    group.add_argument("--generations", type=int, default=4,
                       help="rewrite iterations applied to the axiom (default 4)")
    group.add_argument("--container", choices=sorted(CONTAINER_CHOICES), default="array",
                       help="behavior of the generated containers (default array)")
    group.add_argument("--backend", choices=sorted(codegen.BACKENDS), default="c",
                       help="code emission backend (default c)")
    group.add_argument("--split-files", action="store_true",
                       help="emit one file per generated function")
    group.add_argument("--trip-count", type=int, default=2,
                       help="iterations per LOOP (default 2)")
    group.add_argument("--value-range", type=int, default=1000,
                       help="operand values are drawn from [0, N), N at most 2^31 "
                            "(default 1000)")


def _plan_from_args(args: argparse.Namespace) -> astgen.OperandPlan:
    return astgen.OperandPlan(
        seed=args.seed,
        value_range=args.value_range,
        trip_count=args.trip_count,
        container_kind=CONTAINER_CHOICES[args.container],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsysbench",
        description="Grow compiler benchmarks from L-system grammars, check them "
                    "against a reference interpreter, and measure toolchains on them.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="derive a spec and emit compilable sources + manifest")
    p_gen.add_argument("spec", help="L-system spec file")
    _add_generation_args(p_gen)

    p_check = sub.add_parser("check", parents=[common],
                             help="compile emitted sources and diff traces against the oracle")
    p_check.add_argument("spec", help="L-system spec file used for gen")
    p_check.add_argument("--cc", required=True, metavar="TEMPLATE",
                         help="compile command with {in} and {out} placeholders, "
                              "e.g. 'gcc -std=c99 -O0 {in} -o {out}'")
    p_check.add_argument("--paths", type=_u64_list("PATH"), default=[0, 1], metavar="P1,P2,...",
                         help="PATH values to run (default 0,1)")
    p_check.add_argument("--checksum-only", action="store_true",
                         help="compare only the CHECKSUM line instead of full traces")
    p_check.add_argument("--report", metavar="FILE",
                         help="also write the per-run results as JSON lines")

    p_measure = sub.add_parser("measure", parents=[common],
                               help="measure compile time, run time, and binary size")
    p_measure.add_argument("spec", help="L-system spec file used for gen")
    p_measure.add_argument("--cc", required=True, metavar="TEMPLATE",
                           help="compile command with {in}, {out}, and {flags} placeholders")
    p_measure.add_argument("--flags", action="append", default=None, metavar="FLAGS",
                           help="one flag set per occurrence; values starting with a "
                                "dash need the = form, e.g. --flags=-O2 "
                                "(default: one empty set)")
    p_measure.add_argument("--repetitions", type=int, default=10,
                           help="timed repetitions per flag set (default 10)")
    p_measure.add_argument("--warmups", type=int, default=3,
                           help="discarded warm-up runs (default 3)")
    p_measure.add_argument("--path", type=_u64_value("PATH"), default=1,
                           help="PATH value for the timed runs (default 1)")
    p_measure.add_argument("--size-cmd", metavar="TEMPLATE",
                           help="command with {bin} whose first output line is a byte "
                                "count, recorded as textBytes")
    p_measure.add_argument("--json", metavar="FILE", help="also write the rows as JSON lines")

    p_sweep = sub.add_parser("sweep-pgo", parents=[common],
                             help="compare baseline vs profile-trained binaries over a PATH sweep")
    p_sweep.add_argument("spec", help="L-system spec file used for gen")
    p_sweep.add_argument("--cc-base", required=True, metavar="TEMPLATE",
                         help="baseline compile command ({in}/{out})")
    p_sweep.add_argument("--cc-train", required=True, metavar="TEMPLATE",
                         help="instrumented compile command ({in}/{out})")
    p_sweep.add_argument("--cc-opt", required=True, metavar="TEMPLATE",
                         help="profile-consuming compile command ({in}/{out})")
    p_sweep.add_argument("--train-path", type=_u64_value("PATH"), default=1,
                         help="PATH value for the training run (default 1)")
    p_sweep.add_argument("--bits", type=_int_list, default=bench.SWEEP_BITS, metavar="I1,I2,...",
                         help="bit counts i; each runs PATH = 2^i - 1 "
                              f"(default {','.join(map(str, bench.SWEEP_BITS))})")
    p_sweep.add_argument("--repetitions", type=int, default=10,
                         help="timed repetitions per binary and path (default 10)")
    p_sweep.add_argument("--warmups", type=int, default=3,
                         help="discarded warm-up runs (default 3)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        if args.command == "gen":
            emit_cfg = codegen.EmitConfig(backend=args.backend, split_files=args.split_files)
            bench.cmd_gen(args.spec, args.out, args.generations, _plan_from_args(args), emit_cfg)
            return 0
        if args.command == "check":
            ok = bench.cmd_check(
                args.spec, args.out, args.cc,
                paths=args.paths,
                checksum_only=args.checksum_only,
                report_path=args.report,
            )
            return 0 if ok else 1
        if args.command == "measure":
            rows = bench.cmd_measure(
                args.spec, args.out, args.cc,
                flag_sets=args.flags if args.flags else [""],
                repetitions=args.repetitions,
                warmups=args.warmups,
                path=args.path,
                size_cmd=args.size_cmd,
                json_path=args.json,
            )
            return 1 if any(row["failed"] for row in rows) else 0
        bench.cmd_sweep_pgo(
            args.spec, args.out, args.cc_base, args.cc_train, args.cc_opt,
            bit_counts=args.bits,
            train_path=args.train_path,
            repetitions=args.repetitions,
            warmups=args.warmups,
        )
        return 0
    # OSError: an unreadable spec or an unwritable --out
    except (grammar.SpecError, bench.BenchError, codegen.BackendError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
