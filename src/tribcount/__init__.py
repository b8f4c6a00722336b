"""Exact counting of squares and cubes in prefixes of the Tribonacci word.

Closed forms for the distinct counts, logarithmic-time evaluation of the
repeated counts at arbitrary positions, and a brute-force oracle that
cross-checks all of it at desk scale.

Every public name is resolved on first use (PEP 562): importing the package
loads no counting module, and a CLI process compiles only the module its
command counts with.
"""

# public name -> defining module.  ``__getattr__`` (PEP 562) imports the
# module on first access and caches the name here, so importing the package
# compiles no counting module; a module's own name resolves to the module.
_HOMES = {name: module for module, names in (
    ("closed_forms", """closed_forms a_indicator c_indicator distinct_cubes
        distinct_cubes_at_t distinct_squares distinct_squares_at_t
        repeated_cubes_at_t repeated_squares_at_t"""),
    ("core_word", """core_word MATERIALIZE_CAP N_CAP ExactDivisionError
        kernel_number kernel_word letter_at letter_counts position_kernel
        position_letter prefix trib_number"""),
    ("fast_count", "fast_count algorithm_B algorithm_D b_at d_at"),
    ("oracle", "oracle RepetitionSummary scan_repetitions"),
) for name in names.split()}


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import x``: that would look the name up here first
    import importlib
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))


__version__ = "0.1.0"

# every public name, the module names aside
__all__ = sorted(name for name, module in _HOMES.items() if name != module)
