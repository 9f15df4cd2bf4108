"""groverwild benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):
  python3 bench/run.py --workload {search,experiment,compile,verify}
                       --seed N --seconds S --trace {0,1}

The run writes its seeded inputs under .bench_runs/ (removed at exit), times
set-up in fresh interpreters, then drives one worker process in a closed
loop: one op at a time through ``groverwild.cli.main``, each op's outputs
checked against the benchmark's own reference before the next is issued.
It stops at the first round boundary after S seconds of op time.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, reports the per-layer metrics from the traced ones and the
tracing overhead from the pair. The last line of stdout is the result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {value, unit}}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Set-up samples per run: the worker's own start-up, then probe interpreters
# started between rounds, spread over the run's op time so that they sample
# the same stretch of host speed as the ops.
SETUP_SAMPLES = 12

# Per-layer time metrics: the spans whose durations each one sums.
LAYER_SPANS = {
    "encoding.compile_oracle_ms": ("compile_oracle",),
    "encoding.classical_match_ms": ("classical_match",),
    "boolexpr.truth_table_ms": ("truth_table",),
    "boolexpr.anf_ms": ("anf",),
    "synthesis.assemble_ms": ("build_grover_circuit",),
    "synthesis.emit_ms": ("gate_stats", "circuit_to_json_dict", "circuit_to_qasm"),
    "simulator.simulate_ms": ("simulate",),
    "simulator.measure_ms": ("measure",),
    "simulator.run_noisy_ms": ("run_noisy",),
    "analysis.verdict_ms": ("consistency", "verify_against_classical", "decode_results"),
}
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "synthesis.phase_oracle_ms": "ms",
    "cli.self_ms": "ms",
    "synthesis.monomials": "count",
    "synthesis.gates": "count",
    "synthesis.depth": "count",
    "simulator.amp_updates": "count",
    "simulator.amp_updates_per_s": "1/s",
    **{name: "ms" for name in LAYER_SPANS},
}


class Worker:
    """One fresh interpreter running ``worker.py`` over a manifest."""

    def __init__(self, manifest: Path, probe: bool = False):
        args = [sys.executable, str(BENCH / "worker.py"), str(manifest)]
        if probe:
            args.append("--probe")
        env = {k: v for k, v in os.environ.items() if k != "GW_SEED"}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        self.ready = self.receive()
        self.setup_s = time.perf_counter() - start

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, op: int, trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def stop(self) -> dict:
        self.proc.stdin.write('{"stop": true}\n')
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer values of one traced op; spans are [name, start, end, parent, count]."""
    def ms(span: list) -> float:
        return (span[2] - span[1]) / 1e6

    child_ms = [0.0] * len(spans)
    for span in spans[1:]:
        child_ms[span[3]] += ms(span)
    out = {metric: 0.0 for metric in LAYER_SPANS}
    counts = {"anf": 0, "build_grover_circuit": 0, "gate_stats": 0, "amp": 0}
    phase_oracle = 0.0
    for i, span in enumerate(spans[1:], start=1):
        name = span[0]
        for metric, names in LAYER_SPANS.items():
            if name in names:
                out[metric] += ms(span)
        if name == "synthesize_phase_oracle":
            phase_oracle += ms(span) - child_ms[i]
        if name in ("simulate", "run_noisy"):
            counts["amp"] += span[4]
        elif span[4] is not None:
            counts[name] += span[4]
    sim_s = (out["simulator.simulate_ms"] + out["simulator.run_noisy_ms"]) / 1e3
    out.update({
        "synthesis.phase_oracle_ms": phase_oracle,
        "cli.self_ms": ms(spans[0]) - child_ms[0],
        "synthesis.monomials": counts["anf"],
        "synthesis.gates": counts["build_grover_circuit"],
        "synthesis.depth": counts["gate_stats"],
        "simulator.amp_updates": counts["amp"],
        "simulator.amp_updates_per_s": counts["amp"] / sim_s if sim_s else 0.0,
    })
    return out


def _probe_setup_s(manifest: Path) -> float:
    """One set-up sample: a fresh interpreter that sets up and exits."""
    probe = Worker(manifest, probe=True)
    probe.close()
    return probe.setup_s


def _out_bytes(out: Path) -> int:
    return sum(e.stat().st_size for e in os.scandir(out)) if out.is_dir() else 0


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    profile: workloads.Profile = workloads.FULL,
    corrupt: bool = False,
) -> tuple[dict, dict]:
    """Run one workload; return (result, info). The result is the printed last line."""
    workdir = ROOT / ".bench_runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    worker = None
    try:
        plan = workloads.plan(name, seed, workdir, profile, corrupt)
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps({
            "ops": [op.argv for op in plan.ops], "inputs": plan.inputs,
        }))
        worker = Worker(manifest)
        setup = [worker.setup_s]

        out = workdir / "out"
        latencies = {False: [], True: []}
        layers, errors, artifact_bytes = [], [], []
        attempted = failed = rounds = 0
        busy_ns = 0
        while rounds < 1 + trace or busy_ns < seconds * 1e9:
            traced = trace and rounds % 2 == 1
            for _ in range(plan.round_size):
                index = attempted % len(plan.ops)
                op = plan.ops[index]
                reply = worker.request(index, traced)
                attempted += 1
                busy_ns += reply["ns"]
                latencies[traced].append(reply["ns"] / 1e6)
                if traced:
                    layers.append(layer_metrics(reply["spans"]))
                try:
                    status = workloads.check(name, op, reply["rc"], reply["stdout"], out)
                except workloads.CheckFailed as exc:
                    status = "wrong"
                    errors.append(f"{op.argv}: {exc}; stderr: {reply['stderr'].strip()}")
                failed += status != "ok"
                artifact_bytes.append(_out_bytes(out))
                shutil.rmtree(out, ignore_errors=True)
            rounds += 1
            done = 1.0 if busy_ns >= seconds * 1e9 else busy_ns / (seconds * 1e9)
            while len(setup) < 1 + math.ceil((SETUP_SAMPLES - 1) * done):
                setup.append(_probe_setup_s(manifest))
        peak_kb = worker.stop()["maxrss_kb"]
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    plain = latencies[False]
    if trace:
        metrics = {
            metric: statistics.median(op[metric] for op in layers)
            for metric in layers[0]
        }
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(plain) / (sum(plain) / 1e3),
            "op_p50_ms": statistics.median(plain),
            "op_p90_ms": percentile(plain, 0.9),
            "peak_rss_mb": peak_kb / 1024,
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "round_size": plan.round_size,
        "timed_ops": len(plain),
        "sizes": plan.sizes,
        "artifact_bytes_per_op": statistics.median(artifact_bytes),
        "setup_samples_s": setup,
        "machine": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": worker.ready["numpy"],
        },
        "errors": errors[:5],
    }
    if trace:
        traced_p50 = statistics.median(latencies[True])
        info["tracing"] = {
            "untraced_op_p50_ms": statistics.median(plain),
            "traced_op_p50_ms": traced_p50,
            "overhead": traced_p50 / statistics.median(plain) - 1.0,
        }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groverwild" / "__init__.py").is_file():
        print(f"error: no groverwild sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']},"
        f" correct = {result['correct']}"
    )
    for error in info["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
