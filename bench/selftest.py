"""Self-test of the benchmark: every workload at a tiny size, honest and corrupted.

For each workload it runs one round untraced and two rounds traced, and
requires correct outputs, the expected failed-op count and every metric.
It then runs one round with the program's hidden ``--corrupt-oracle`` flag
on every op and requires the checks to count every op as failed.

Usage (from the root of a checkout): python3 bench/selftest.py
Exit code 0 when every assertion holds. Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in workloads.NAMES:
        faults = len(workloads.KNOWN_FAULTS) if name == "verify" else 0

        result, info = run.run(name, SEED, 0, False, workloads.TINY)
        expect(result["correct"], f"{name}: honest run reported wrong outputs: {info['errors']}")
        expect(result["failed"] == faults, f"{name}: {result['failed']} failed, expected {faults}")
        expect(units(result) == end_to_end, f"{name}: end-to-end metrics or units differ")
        expect(
            all(m["value"] > 0 for m in result["metrics"].values()),
            f"{name}: an end-to-end metric reads 0",
        )

        result, info = run.run(name, SEED, 0, True, workloads.TINY)
        expect(result["correct"], f"{name}: traced run reported wrong outputs: {info['errors']}")
        expect(units(result) == per_layer, f"{name}: per-layer metrics or units differ")
        expect("tracing" in info, f"{name}: traced run did not report its overhead")

        result, info = run.run(name, SEED, 0, False, workloads.TINY, corrupt=True)
        expect(not result["correct"], f"{name}: corrupted oracle passed every check")
        expect(
            result["failed"] == result["attempted"],
            f"{name}: only {result['failed']} of {result['attempted']} corrupted ops counted failed",
        )
        print(f"selftest {name}: ok ({result['attempted']} corrupted ops all failed)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
