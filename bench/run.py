"""dualcut benchmark: certified solve and verify cost per workload.

Run from the repository root:

    python3 bench/run.py --workload {large,small-batch} --seed N \\
        --seconds S --trace {0,1}

It imports dualcut from `src/` next to this directory (never an installed
copy) and exits with status 2, printing no result, when that source is
missing. Output: one `digest <case> <sha256>` line per report (for diffing
runs), one `{"info": ...}` line (machine, seed, operation counts, tracing
overhead, span table), and as the last line the result object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are BENCHMARK.json's `end_to_end` list, with `--trace 1` its
`per_layer` list, each with the unit given there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_dualcut() -> str | None:
    """Put `src/` first on the path and import dualcut; returns an error."""
    if not (SRC / "dualcut" / "__init__.py").is_file():
        return f"dualcut sources not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import dualcut

    if Path(dualcut.__file__).resolve().parent != SRC / "dualcut":
        return f"imported dualcut from {dualcut.__file__}, not from {SRC}"
    return None


def _with_units(metrics: dict[str, float], declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise ValueError(f"computed metrics {sorted(metrics)} differ from declared {names}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = _load_dualcut()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import harness

    result, info, digests = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name in sorted(digests):
        print(f"digest {name} {digests[name]}")
    print(json.dumps({"info": info}))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = _with_units(result["metrics"], declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
