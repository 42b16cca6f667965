"""The package's public names and what each process loads.

``import braidsurgery`` loads none of its modules; a name of ``__all__``
loads its module on first access.  The pipeline's subcommands never load
``limits`` or ``families``: each serves one other subcommand.
"""

import subprocess
import sys
from pathlib import Path

import braidsurgery
from braidsurgery import families
from test_cli import CASES, GOLDEN_DIR

SRC = str(Path(__file__).parents[1] / "src")

# The public names before they loaded lazily, submodules included.
PUBLIC = [
    "BlockDecomposition", "BraidError", "BraidWord", "BraidsurgeryError",
    "CFracError", "CoeffStream", "ComponentBudgetExceeded",
    "ComponentPartition", "CrossingStats", "DigitLimitExceeded",
    "HomologyReport", "HypothesisError", "HypothesisReport", "INF",
    "LegendrianComponent", "LegendrianError", "LimitsError", "MAX_COMPONENTS",
    "MenuBudgetExceeded", "NegContFrac", "ReductionBudgetExceeded",
    "SignTuple", "SingularityError", "SlopeVector", "SurgeryComponent",
    "SurgeryDiagram", "SurgeryError", "ThetaReport", "TupleBudgetExceeded",
    "UsageError", "WeinsteinDiagram", "axis_surgery", "block_decomposition",
    "braid", "c1_pairing", "cfrac", "check_hypothesis", "compose",
    "contactomorphism_lower_bound", "convergents", "crossing_stats",
    "dehornoy_floor_at_least", "dehornoy_floors", "delta_squared_times",
    "enumerate_weinstein", "errors", "eval_cfrac", "example_braid",
    "expand_general", "format_braid", "garside", "gluing_matrix",
    "h1_invariants", "h1_presentation_matrix", "handle_reduce", "homology",
    "inverse", "is_sigma_negative", "is_sigma_positive", "is_trivial",
    "isotopy_class_count", "legendrian", "legendrian_unknot", "limits",
    "linalg", "link_front_stats", "linking_matrix", "lspace_family_diagram",
    "neg_cfrac", "neg_cfrac_length", "parse_braid", "permutation", "phi",
    "phi_vector", "power", "properly_isotopic", "rational_surgery", "record",
    "replace", "rolfsen_twist", "shuffle_class_count", "shuffle_normal_form",
    "sign_of", "sign_tuple_from_dict", "sign_tuple_to_dict",
    "slam_dunk_expand", "slam_dunk_meridian", "square_knot_recipe",
    "stabilization_to_slices", "stabilize_to", "surgery", "theta",
    "truncation_consistency", "unknot_menu", "validate_weinstein",
]

PIPELINE = ("analyze", "cfrac", "surgery", "enumerate", "theta")


def python(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter without site hooks."""
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_all_keeps_every_public_name_and_each_resolves():
    assert braidsurgery.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(braidsurgery, name)
        # A submodule, or a name bound in one.
        modules = [m for key, m in sys.modules.items() if key.startswith("braidsurgery.")]
        assert value in modules or any(vars(m).get(name) is value for m in modules), name
    assert set(PUBLIC) <= set(dir(braidsurgery))
    assert braidsurgery.rolfsen_twist is families.rolfsen_twist
    assert braidsurgery.example_braid is families.example_braid


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(braidsurgery, "no_such_name")


def test_the_package_loads_each_module_on_first_use():
    code = f"""if True:
        import sys
        sys.path.insert(0, {SRC!r})
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("braidsurgery."))
        import braidsurgery
        print(loaded())
        braidsurgery.parse_braid
        print(loaded())
        from braidsurgery import *
        print([name for name in braidsurgery.__all__ if name not in globals()])
        print(rolfsen_twist.__module__, limits.__name__)
    """
    lines = python(code).splitlines()
    assert lines[:2] == [
        "[]",
        "['braidsurgery.braid', 'braidsurgery.errors', 'braidsurgery.record']",
    ]
    assert lines[2:] == ["[]", "braidsurgery.families braidsurgery.limits"]


def test_the_pipeline_loads_neither_limits_nor_families():
    argvs = [argv for argv in CASES.values() if argv[0] in PIPELINE]
    assert {argv[0] for argv in argvs} == set(PIPELINE)
    code = f"""if True:
        import io, sys
        sys.path.insert(0, {SRC!r})
        lazy = {{"braidsurgery.limits", "braidsurgery.families"}}
        import braidsurgery.cli
        print("import", sorted(lazy & set(sys.modules)))
        for argv in {argvs!r}:
            sys.stdout = io.StringIO()
            braidsurgery.cli.main(argv)
            sys.stdout = sys.__stdout__
            print(argv[0], sorted(lazy & set(sys.modules)))
    """
    lines = python(code).splitlines()
    assert lines == ["import []"] + [f"{argv[0]} []" for argv in argvs]


def test_limits_and_family_load_their_modules_and_give_their_golden_output():
    for name in ("limits_blocks", "family_lspace", "family_example420"):
        code = f"""if True:
            import sys
            sys.path.insert(0, {SRC!r})
            from braidsurgery import cli
            code = cli.main({CASES[name]!r})
            lazy = ("limits", "families")
            print(code, *(m for m in lazy if "braidsurgery." + m in sys.modules))
        """
        golden = (GOLDEN_DIR / f"{name}.txt").read_text()
        module = name.split("_")[0].replace("family", "families")
        assert python(code) == f"{golden}0 {module}\n", name
