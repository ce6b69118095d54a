"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload {train,serve,fleet} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
``--seed`` generates the inputs, ``--seconds`` is how long the run
measures.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` measures untraced and traced and prints
the per-layer metrics (a layer the workload never enters reads 0).

The report lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every output check passed and the run left no child
process, new ``/dev/shm`` entry or thread behind.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: The run aborts (closing its servers) if it is still going after this.
HARD_LIMIT_S = 170


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {HARD_LIMIT_S} s")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "serve", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(args):
    if args.workload == "train":
        import train_workload

        return train_workload.run(args.seed, args.seconds, bool(args.trace))
    import serve_workload

    return serve_workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    sys.path.insert(0, SRC)
    from teardown import LeakGuard

    guard = LeakGuard()
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_LIMIT_S)
    try:
        outcome = _run_workload(args)
    except Exception:  # noqa: BLE001 - reported, then the run fails
        signal.alarm(0)
        traceback.print_exc()
        for problem in guard.leftovers():
            print(f"perfbench: left behind: {problem}", file=sys.stderr)
        return 1
    signal.alarm(0)
    leftovers = guard.leftovers()
    outcome.check(
        "teardown", not leftovers,
        "; ".join(leftovers) or "no child process, new /dev/shm entry "
        "or thread left",
    )

    specs = manifest["per_layer" if args.trace else "end_to_end"]
    names = [spec["name"] for spec in specs]
    unknown = sorted(set(outcome.metrics) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if name in outcome.metrics:
            value, measured_unit = outcome.metrics[name]
            if measured_unit != unit:
                raise RuntimeError(
                    f"{name}: measured in {measured_unit}, "
                    f"BENCHMARK.json says {unit}"
                )
        elif args.trace:
            value = 0.0  # this workload never enters the layer
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
        f"  trace {args.trace}"
    )
    for line in outcome.lines:
        print(line)
    for name, passed, detail in outcome.checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
