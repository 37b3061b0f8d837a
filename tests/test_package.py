"""Package-level checks: every exported name exists, and the integer rule
is written once."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import cskit

MODULES = ["cskit"] + [f"cskit.{info.name}" for info in pkgutil.iter_modules(cskit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


def test_one_integer_rule():
    """``cskit.gbf._index`` is the one reader of an integer argument: no other
    module imports ``operator``, and no ``int(n)`` truncation is left."""
    sources = {path.name: path.read_text() for path in pathlib.Path(cskit.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "import operator" in text] == ["gbf.py"]
    assert [name for name, text in sources.items() if "int(n) for n" in text] == []


def test_no_ring_algebra_beyond_what_a_stage_uses():
    """Correlation values are summed as integer arrays and polynomials built
    from sums and integer multiples, so no other algebra is exported."""
    assert not hasattr(cskit, "cyclo_sum")
    retired = {
        cskit.CycloValue: ["__add__", "__sub__", "__neg__", "scale", "_mapped", "times_power", "from_power"],
        cskit.GbfPoly: ["__sub__", "__neg__", "restrict"],
    }
    assert [(cls.__name__, n) for cls, names in retired.items() for n in names if hasattr(cls, n)] == []
    x0 = cskit.GbfPoly.variable(4, 2, 0)
    with pytest.raises(TypeError):
        x0 * x0


def test_codebook_weighs_no_codeword():
    """Minimum distances come from the closed-form stratum proof alone: the
    exhaustive kernel lives with the tests, the Reed–Muller weights come from
    Plotkin's recursion with no word weighed, and ``codebook`` reads no
    symbol table from ``correlation``."""
    codebook = cskit.codebook
    retired = ["rm_min_weight", "_min_weights_direct", "_span_weights", "_bit_planes"]
    retired += ["_rm_distance", "_rm_leaf_weight", "_is_rm_leaf", "_LEAF_M", "_LEAF_DIM"]
    assert [n for n in retired if hasattr(codebook, n)] == []
    source = pathlib.Path(codebook.__file__).read_text()
    assert "bitwise_count" not in source
    imported = []  # every module and name imported, as a dotted path
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cskit" if node.level else None, node.module]))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert "cskit.gbf" in imported
    assert [name for name in imported if name.startswith("cskit.correlation")] == []


def test_analyze_is_the_one_reader_of_restriction_graphs():
    """The per-word graph API and the pairwise distance helpers are gone:
    ``analyze`` decides every restriction graph, the per-word graphs and
    shapes live in ``tests/graphs_reference.py``, and minimum distances come
    from ``codebook.erm_min_distances`` alone."""
    retired = {
        cskit: ["graph_of", "l_value", "RestrictionGraph", "ShapeClass", "MixedCouplingError", "lee_dist", "euclid_sq_dist", "min_distances"],
        cskit.graphs: ["graph_of", "classify", "l_value", "RestrictionGraph", "ShapeClass", "_shape_class", "_refuse_cubic"],
        cskit.errors: ["MixedCouplingError"],
        cskit.correlation: ["lee_dist", "euclid_sq_dist", "min_distances", "_symbols", "_weight_tables"],
    }
    assert [(m.__name__, n) for m, names in retired.items() for n in names if hasattr(m, n)] == []
    errors = cskit.errors
    assert importlib.import_module("cskit.cli").HYPOTHESIS_ERRORS == (errors.DegreeError, errors.GraphShapeError, errors.BalanceError)


def test_one_name_for_a_restriction():
    """A restriction is named one way, as its restricted indices and a word
    (``analyze``'s profiles, ``psi_restricted``), and ``envelope_power``,
    ``pmepr_family_sizes`` and ``codeword_matrix``, which only their own
    tests called, are gone."""
    retired = {
        cskit: ["Restriction", "envelope_power", "pmepr_family_sizes", "codeword_matrix"],
        cskit.gbf: ["Restriction"],
        cskit.correlation: ["envelope_power"],
        cskit.codebook: ["codeword_matrix", "pmepr_family_sizes"],
    }
    assert [(m.__name__, n) for m, names in retired.items() for n in names if hasattr(m, n)] == []
    assert list(inspect.signature(cskit.psi_restricted).parameters) == ["f", "restricted", "word"]


def test_one_public_path_per_job():
    """``enumerate_codebook("ERM", ...)`` is the one enumerator of F(r, m, h),
    ``read_sequences`` the one reader of a set file, header included,
    ``path-restriction`` the one CLI name of the Golay pair, and no alias or
    knob is left that only tests used."""
    cli = importlib.import_module("cskit.cli")
    retired = {
        cskit: ["enumerate_f_polys", "cs_meta_from_text"],
        cskit.codebook: ["enumerate_f_polys"],
        cskit.construct: ["cs_meta_from_text"],
        cli: ["_golay", "_read_set"],
        cskit.GbfPoly: ["zero", "const", "constant", "is_zero", "parse"],
        cskit.CycloValue: ["zero"],
    }
    assert [(getattr(m, "__name__", m), n) for m, names in retired.items() for n in names if hasattr(m, n)] == []
    assert list(cli.BUILDERS) == ["offset", "balanced", "doubled", "path-restriction"]
    assert list(inspect.signature(cskit.golay_pair).parameters) == ["f"]
    assert list(inspect.signature(cskit.GbfPoly.monomial).parameters) == ["q", "m", "variables"]
    params = inspect.signature(cskit.read_sequences).parameters
    assert list(params) == ["text", "q"] and params["q"].default is None


def test_import_starts_no_thread_and_no_logging():
    """``import cskit`` starts no thread (the PMEPR grid's workers start on
    the first grid that needs them) and imports neither ``logging`` nor
    ``concurrent.futures``, whose start-up every CLI child would pay."""
    probe = (
        "import sys, threading; before = threading.active_count(); import cskit; "
        "print(threading.active_count() - before, 'logging' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    src = str(pathlib.Path(cskit.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split() == ["0", "False", "False"]
