"""The measured process: imports groverwild from the checkout and runs ops on request.

It is started fresh for every run, so its start-up is the set-up a user pays,
and its high-water RSS belongs to this one workload. It reads one JSON
request per line on stdin, ``{"op": i, "trace": bool}``, calls
``groverwild.cli.main`` with op i's arguments in-process, and answers with
one JSON line: exit code, wall time, captured stdout and, when traced, the
spans. ``{"stop": true}`` ends it with its peak RSS.

Usage: python3 bench/worker.py MANIFEST [--probe]
  --probe  set up, report ready and exit (a set-up time sample)
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span name): each public function is wrapped where the
# caller looks it up, so its calls are timed without touching the program.
TRACED = (
    ("cli", "compile_oracle", "compile_oracle"),
    ("cli", "classical_match", "classical_match"),
    ("cli", "truth_table", "truth_table"),
    ("synthesis", "anf", "anf"),
    ("cli", "synthesize_phase_oracle", "synthesize_phase_oracle"),
    ("cli", "build_grover_circuit", "build_grover_circuit"),
    ("cli", "gate_stats", "gate_stats"),
    ("cli", "circuit_to_json_dict", "circuit_to_json_dict"),
    ("cli", "circuit_to_qasm", "circuit_to_qasm"),
    ("cli", "simulate", "simulate"),
    ("cli", "measure", "measure"),
    ("cli", "run_noisy", "run_noisy"),
    ("cli", "consistency", "consistency"),
    ("cli", "verify_against_classical", "verify_against_classical"),
    ("cli", "decode_results", "decode_results"),
)


def _count(name: str, args: tuple, result) -> int | None:
    """The size a span reports: monomials, gates, depth or amplitude updates."""
    if name == "anf":
        return len(result.monomials)
    if name == "build_grover_circuit":
        return len(result.gates)
    if name == "gate_stats":
        return result.depth
    if name == "simulate":
        return len(args[0].gates) << args[0].qubit_count
    if name == "run_noisy":
        circuit, shots = args[0], args[2]
        return shots * (len(circuit.gates) << circuit.qubit_count)
    return None


class Recorder:
    """Spans of one op: [name, start_ns, end_ns, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        span[4] = _count(name, args, result)
        return result


@contextlib.contextmanager
def traced(modules: dict, recorder: Recorder):
    """Swap in timing wrappers for the duration of one op."""
    saved = []
    for mod_name, attr, name in TRACED:
        mod = modules[mod_name]
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            return recorder.call(_name, _fn, args, kwargs)

        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _emit(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main(argv: list[str]) -> int:
    manifest_path = Path(argv[0])
    if not (SRC / "groverwild" / "__init__.py").is_file():
        print(f"worker: no groverwild package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from groverwild import cli, synthesis

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"worker: groverwild imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for path in manifest["inputs"]:
        Path(path).read_bytes()
    ops = manifest["ops"]
    _emit({"ready": True, "numpy": sys.modules["numpy"].__version__})
    if "--probe" in argv:
        return 0
    modules = {"cli": cli, "synthesis": synthesis}
    while True:
        request = json.loads(sys.stdin.readline() or '{"stop": true}')
        if request.get("stop"):
            break
        op_argv = ops[request["op"]]
        recorder = Recorder()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            if request["trace"]:
                stack.enter_context(traced(modules, recorder))
            start = time.perf_counter_ns()
            try:
                rc = cli.main(op_argv)
            except Exception:  # a crash is a failed op, reported with its traceback
                rc = None
                traceback.print_exc()
            end = time.perf_counter_ns()
        _emit({
            "rc": rc,
            "ns": end - start,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "spans": [["cli.main", start, end, -1, None]]
            + [[n, s, e, p + 1, c] for n, s, e, p, c in recorder.spans],
        })
    _emit({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
