"""Exact counting of squares and cubes in prefixes of the Tribonacci word.

Closed forms for the distinct counts, logarithmic-time evaluation of the
repeated counts at arbitrary positions, and a brute-force oracle that
cross-checks all of it at desk scale.

The oracle names are resolved on first use (PEP 562), so that importing the
package for counting never loads numpy.
"""

from .closed_forms import (
    a_indicator,
    c_indicator,
    cube_boundaries,
    distinct_cubes,
    distinct_cubes_at_t,
    distinct_squares,
    distinct_squares_at_t,
    glen_distinct_squares_at_t,
    repeated_cubes_at_t,
    repeated_squares_at_t,
    square_boundaries,
)
from .core_word import (
    ALPHABET,
    MATERIALIZE_CAP,
    N_CAP,
    ExactDivisionError,
    exact_div,
    kernel_number,
    kernel_word,
    last_letter,
    letter_at,
    letter_counts,
    position_kernel,
    position_letter,
    prefix,
    trib_number,
)
from .fast_count import (
    algorithm_B,
    algorithm_D,
    b_at,
    b_cum_at_gamma_max,
    cube_gamma,
    d_at,
    d_cum_at_gamma_max,
    phi,
    square_case_block,
    square_gamma,
    sum_b_gamma,
    sum_d_gamma,
)

_ORACLE_NAMES = frozenset({
    "oracle",
    "OccurrenceRecord",
    "RepetitionSummary",
    "assert_no_fourth_powers",
    "gap_coding",
    "gap_pattern",
    "kernel_of",
    "occurrences",
    "scan_repetitions",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        # not ``from . import oracle``: that would look the name up here first
        import importlib
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)


__version__ = "0.1.0"

__all__ = [
    "ALPHABET", "MATERIALIZE_CAP", "N_CAP", "ExactDivisionError",
    "OccurrenceRecord", "RepetitionSummary",
    "a_indicator", "algorithm_B", "algorithm_D", "assert_no_fourth_powers",
    "b_at", "b_cum_at_gamma_max", "c_indicator", "cube_boundaries",
    "cube_gamma", "d_at", "d_cum_at_gamma_max", "distinct_cubes",
    "distinct_cubes_at_t", "distinct_squares", "distinct_squares_at_t",
    "exact_div", "gap_coding", "gap_pattern", "glen_distinct_squares_at_t",
    "kernel_number", "kernel_of", "kernel_word", "last_letter", "letter_at",
    "letter_counts", "occurrences", "phi", "position_kernel",
    "position_letter", "prefix", "repeated_cubes_at_t",
    "repeated_squares_at_t", "scan_repetitions", "square_boundaries",
    "square_case_block", "square_gamma", "sum_b_gamma", "sum_d_gamma",
    "trib_number",
]
