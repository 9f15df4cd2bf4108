"""Histogram ranking, multi-trial consistency, decoding, classical verification.

The consistency rule: a run of trials is accepted when every trial has the
same top-K state set AND the mean probability mass on that set exceeds twice
the uniform baseline (2*K/2^n). Control runs fail the mass bar even when the
winners happen to coincide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .encoding import AlphabetCodec, decode_bits
from .errors import InputError
from .simulator import Histogram

__all__ = [
    "Verdict",
    "TrialReport",
    "top_k",
    "consistency",
    "decode_results",
    "verify_against_classical",
    "reverse_histogram",
    "report_to_json_dict",
    "experiment_csv_rows",
    "EXPERIMENT_CSV_HEADER",
]


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    CONTROL_PASS = "CONTROL_PASS"


@dataclass(frozen=True)
class TrialReport:
    """Ranked top-K states per trial plus the consistency outcome."""

    k: int
    trials: tuple[tuple[tuple[str, float], ...], ...]
    consistent: bool
    states: tuple[str, ...] | None
    trial_sets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        for ranked in self.trials:
            mass = sum(p for _, p in ranked)
            if mass > 1.0 + 1e-9:
                raise InputError(f"trial probabilities sum to {mass} > 1")
        if self.consistent and self.states is None:
            raise InputError("a consistent report must carry its agreed state set")


def top_k(histogram: Histogram, k: int) -> list[tuple[str, float]]:
    """The k most frequent states, by descending count then ascending bits.

    Ties (including zero-count states when fewer than k appear) resolve in
    ascending bit-string order, so the ranking is deterministic.
    """
    n = histogram.bit_length
    if not 1 <= k <= (1 << n):
        raise InputError(f"k must be in 1..{1 << n}, got {k}")
    ranked = sorted(histogram.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    if len(ranked) < k:
        present = set(histogram.counts)
        for x in range(1 << n):
            bits = format(x, f"0{n}b")
            if bits not in present:
                ranked.append((bits, 0))
                if len(ranked) == k:
                    break
    return [(bits, count / histogram.shots) for bits, count in ranked]


def consistency(trials: Sequence[Histogram], k: int) -> TrialReport:
    """Accept iff all trials agree on one top-k set with mass above 2x uniform."""
    if len(trials) < 2:
        raise InputError(f"consistency needs at least 2 trials, got {len(trials)}")
    n = trials[0].bit_length
    if any(h.bit_length != n for h in trials):
        raise InputError("all trials must measure the same qubit count")
    ranked = tuple(tuple(top_k(h, k)) for h in trials)
    sets = tuple(tuple(sorted(bits for bits, _ in r)) for r in ranked)
    same = all(s == sets[0] for s in sets)
    mean_mass = sum(sum(p for _, p in r) for r in ranked) / len(ranked)
    consistent = same and mean_mass > 2.0 * k / (1 << n)
    return TrialReport(
        k=k,
        trials=ranked,
        consistent=consistent,
        states=sets[0] if consistent else None,
        trial_sets=sets,
    )


def decode_results(
    states: Sequence[str], codec: AlphabetCodec, reverse: bool = False
) -> list[str]:
    """Decode bit strings to dataset strings.

    ``reverse`` marks the inputs as hardware-order (last qubit first); they
    are flipped back to encoding order before segment-wise decoding.
    """
    out = []
    for bits in states:
        out.append(decode_bits(codec, bits[::-1] if reverse else bits))
    return out


def verify_against_classical(
    report: TrialReport,
    expected: set[str] | frozenset[str],
    codec: AlphabetCodec,
    reverse: bool = False,
    decoded: Sequence[str] | None = None,
) -> Verdict:
    """Close the loop against the classical matcher.

    PASS: consistent and the decoded state set equals ``expected``.
    CONTROL_PASS: ``expected`` is empty and the report is not consistent
    (winner churn or mass below the 2x-uniform bar).
    FAIL: anything else, including undecodable winner states.

    ``decoded`` passes the agreed states already decoded by the caller, so
    they are not decoded a second time.
    """
    if report.consistent:
        assert report.states is not None
        if decoded is None:
            try:
                decoded = decode_results(report.states, codec, reverse)
            except InputError:
                return Verdict.FAIL
        return Verdict.PASS if set(decoded) == set(expected) else Verdict.FAIL
    return Verdict.CONTROL_PASS if not expected else Verdict.FAIL


def reverse_histogram(histogram: Histogram) -> Histogram:
    """Flip every bit string, modeling hardware that reports qubits reversed."""
    counts = {bits[::-1]: c for bits, c in histogram.counts.items()}
    return Histogram(histogram.shots, dict(sorted(counts.items())))


def report_to_json_dict(
    report: TrialReport,
    codec: AlphabetCodec | None = None,
    reverse: bool = False,
) -> dict:
    """Report JSON: k, per-trial rankings, verdict, agreed states, decodes."""
    decoded: list[str] = []
    if report.consistent and codec is not None:
        assert report.states is not None
        decoded = decode_results(report.states, codec, reverse)
    return {
        "k": report.k,
        "trials": [[[bits, p] for bits, p in ranked] for ranked in report.trials],
        "verdict": "consistent" if report.consistent else "inconsistent",
        "states": list(report.states) if report.states is not None else [],
        "decoded": decoded,
    }


EXPERIMENT_CSV_HEADER = ["trial", "scenario", "top_states"]


def experiment_csv_rows(scenario: str, report: TrialReport) -> list[list[str]]:
    """One row per trial: trial number, scenario, 'bits (prob)' list."""
    rows = []
    for i, ranked in enumerate(report.trials, start=1):
        tops = ", ".join(f"{bits} ({p:.3f})" for bits, p in ranked)
        rows.append([str(i), scenario, tops])
    return rows
