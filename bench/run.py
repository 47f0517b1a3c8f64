"""Run one hkc benchmark workload and print its metrics.

    python3 bench/run.py --workload dense --seed 7 --seconds 60 --trace 0

Run from the root of a checkout: the program is imported from `src/` there.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, measured untraced; with `--trace 1` they are the per-layer
ones from a traced run. The environment, per-repetition digests, check
failures and (traced) the span summary go to stderr and to a JSON file in
`.bench_out/`; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hkc" / "__init__.py").is_file():
        print(f"bench: no hkc sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports hkc from SRC

    known = harness.workloads()
    wl = known.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(known)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"bench: --seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = harness.measure_traced(wl, args.seed, OUT)
    else:
        result = harness.measure(wl, args.seed, args.seconds, OUT)
    detail = result.pop("detail")
    side = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps({"workload": wl.name, "seed": args.seed, **result, **detail}, indent=1),
                    encoding="utf-8")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "detail": str(side.relative_to(ROOT)),
                      **{k: detail[k] for k in ("env", "errors", "dominant_layer") if k in detail}}),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
