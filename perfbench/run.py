"""The repo benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run first gates correctness
(served streams against serial greedy decoding, fast-path campaign
trials against the exact reference knobs), then measures for about
``--seconds`` seconds.  ``--trace 0`` reports the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics from a separate traced pass that wraps the program's public
functions from outside.  The last line of standard output is the JSON
result; any wrong output exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXIT_MISMATCH = 1
EXIT_NO_PROGRAM = 2
EXIT_TOO_SHORT = 3


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    declared = _declared()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=declared["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(src))

    import campaigns
    import fixtures
    import provenance
    import serving
    import spans
    import stats
    from common import Context, Mismatch

    cache = ROOT / ".bench_build" / "perfbench"
    # Campaign pools export their weight arenas to temporary
    # directories; keep them inside the checkout.
    (cache / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(cache / "tmp")
    ctx = Context(
        cache=cache, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), source_digest=fixtures.source_digest(src),
    )
    t0 = time.perf_counter()
    try:
        if args.workload in serving.WORKLOADS:
            result = serving.run(ctx, serving.WORKLOADS[args.workload])
        else:
            result = campaigns.run(ctx, campaigns.WORKLOADS[args.workload])
    except Mismatch as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except stats.RunTooShort as exc:
        print(f"run too short: {exc}", file=sys.stderr)
        return EXIT_TOO_SHORT

    units = declared["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(result.metrics))
    if missing and not args.trace:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    # A layer a workload never calls reports zero work.
    result.metrics.update(dict.fromkeys(missing, 0.0))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_s": time.perf_counter() - t0,
        **provenance.host(ROOT, ctx.source_digest), **result.info,
    }
    if missing:
        info["not_exercised"] = missing
    if result.spans:
        out = cache / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(spans.to_records(result.spans)))
        info["spans_file"] = str(out.relative_to(ROOT))
    failed_frac = stats.failed_frac(result.failed, result.attempted)
    for name, unit in units.items():
        print(f"{name:44s} {result.metrics[name]:14.6g} {unit}")
    print(f"{'failed_frac':44s} {failed_frac:14.6g} ratio"
          f" ({result.failed} of {result.attempted})")
    print("provenance " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
