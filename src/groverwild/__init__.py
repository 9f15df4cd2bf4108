"""Wildcard string search compiled to Grover phase-oracle circuits.

The pipeline: encode a string dataset and prefix/suffix/substring search
terms into a boolean oracle expression, synthesize a phase-oracle circuit
from its truth table, run Grover amplification on a dense statevector engine
(optionally with depolarizing plus readout noise), and verify every outcome
against a plain classical string matcher.
"""

from .analysis import (
    TrialReport,
    Verdict,
    consistency,
    decode_results,
    reverse_histogram,
    top_k,
    verify_against_classical,
)
from .boolexpr import (
    AnfForm,
    BoolExpr,
    TruthTable,
    anf,
    evaluate,
    expand,
    parse,
    parse_dimacs_cnf,
    render,
    truth_table,
)
from .encoding import (
    AlphabetCodec,
    BinaryEntity,
    BinaryEntitySet,
    TermKind,
    WildcardTerm,
    build_codec,
    build_oracle_expression,
    classical_match,
    compile_oracle,
    decode_entity,
    encode_dataset,
    encode_prefix,
    encode_string,
    encode_substring,
    encode_suffix,
    parse_term,
)
from .errors import GroverWildError, InputError, ParseError
from .scenarios import DEMO_DATASET, Scenario, bundled_scenarios
from .simulator import (
    Histogram,
    NoiseModel,
    Statevector,
    apply_diagonal_oracle,
    apply_gate,
    circuit_unitary,
    grover_state,
    init_state,
    measure,
    probabilities,
    run_noisy,
    simulate,
)
from .synthesis import (
    Circuit,
    Gate,
    build_diffusion,
    build_grover_circuit,
    gate_stats,
    iteration_count,
    synthesize_phase_oracle,
)

__version__ = "0.1.0"
