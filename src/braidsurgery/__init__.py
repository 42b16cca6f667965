"""Exact-arithmetic toolkit for braid closures and surgery presentations.

The pipeline: parse a braid word, check the crossing hypotheses,
rewrite rational surgeries on the closure into integral diagrams,
decorate the diagrams with Legendrian data, enumerate the decorations,
and compute the distinguishing invariants (counts, |H1|, signature,
c1^2, theta) plus the block model of the limiting end.

Importing the package loads none of its modules: each public name, and
each module of ``__all__``, is imported on first access (PEP 562) and
then kept in the package's namespace.  So ``python -m braidsurgery.cli``
compiles only what the CLI imports.
"""

from importlib import import_module

# Each public name, by the module that defines it.
_EXPORTS = {
    "braid": """BraidWord ComponentPartition CrossingStats HypothesisReport
        check_hypothesis compose crossing_stats dehornoy_floor_at_least
        dehornoy_floors format_braid garside handle_reduce inverse
        is_sigma_negative is_sigma_positive is_trivial parse_braid
        permutation power""",
    "cfrac": """NegContFrac SlopeVector convergents eval_cfrac neg_cfrac
        neg_cfrac_length phi phi_vector""",
    "errors": """BraidError BraidsurgeryError CFracError
        ComponentBudgetExceeded DigitLimitExceeded HypothesisError
        LegendrianError LimitsError MenuBudgetExceeded
        ReductionBudgetExceeded SingularityError SurgeryError
        TupleBudgetExceeded UsageError""",
    "families": """axis_surgery delta_squared_times example_braid
        lspace_family_diagram rolfsen_twist slam_dunk_meridian
        square_knot_recipe""",
    "legendrian": """LegendrianComponent ThetaReport WeinsteinDiagram
        c1_pairing contactomorphism_lower_bound enumerate_weinstein
        isotopy_class_count legendrian_unknot link_front_stats stabilize_to
        theta unknot_menu validate_weinstein""",
    "limits": """BlockDecomposition CoeffStream SignTuple block_decomposition
        gluing_matrix properly_isotopic shuffle_class_count
        shuffle_normal_form sign_of sign_tuple_from_dict sign_tuple_to_dict
        stabilization_to_slices truncation_consistency""",
    "record": "replace",
    "surgery": """INF MAX_COMPONENTS HomologyReport SurgeryComponent
        SurgeryDiagram expand_general h1_invariants h1_presentation_matrix
        homology linking_matrix rational_surgery slam_dunk_expand""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# The modules exported by name, each its own home (``argv``, ``cli`` and
# ``families`` are imported as modules only).
_MODULES = "braid cfrac errors legendrian limits linalg record surgery"
_HOME.update((module, module) for module in _MODULES.split())

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{home}")
    if home != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
