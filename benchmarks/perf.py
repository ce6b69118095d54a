"""Runnable performance harness — ``python benchmarks/perf.py``.

Thin wrapper over :mod:`repro.perf` (the importable harness behind the
``repro bench`` CLI subcommand) so the benchmarks directory has a direct
entry point next to the figure suites::

    PYTHONPATH=src python benchmarks/perf.py --output BENCH.json
    PYTHONPATH=src python benchmarks/perf.py --smoke        # CI perf-smoke

See ``docs/performance.md`` for how to read the emitted ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf import (
    DEFAULT_DATASET,
    DEFAULT_DIM,
    DEFAULT_ITERATIONS,
    DEFAULT_MODELS,
    DEFAULT_SCALE,
    format_bench_table,
    run_bench,
    write_bench,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS))
    parser.add_argument("--dataset", default=DEFAULT_DATASET)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dtype", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-regen-heavy", action="store_true")
    parser.add_argument("--no-sharded", action="store_true")
    parser.add_argument("--no-serving", action="store_true")
    parser.add_argument("--output", default=None, help="JSON output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    payload = run_bench(
        models=tuple(args.models),
        dataset=args.dataset,
        scale=args.scale,
        dim=args.dim,
        iterations=args.iterations,
        seed=args.seed,
        repeats=args.repeats,
        dtype=args.dtype,
        smoke=args.smoke,
        include_regen_heavy=not args.no_regen_heavy,
        include_sharded=not args.no_sharded,
        include_serving=not args.no_serving,
    )
    print(format_bench_table(payload))
    if args.output:
        path = write_bench(payload, args.output)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
