"""The rank layer has one home, :mod:`rqamaps.ranks`: no module reads its
private names, the scans of :mod:`rqamaps.rqa` are read by their public
names only, and nothing else defines a rank table, a cut or the guard.
The interval tests have one home, :mod:`rqamaps.intervals`: the pair set
reads them from rank cuts, the word counts on integers
(``int_interval_test``).
No module of the package reads a private name of another, and every
module imports only from the modules before it in one order."""
import ast
import dataclasses
import re
from pathlib import Path

import rqamaps
from rqamaps.solenoidal import AdmissibleSystem, Word

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rqamaps"

# what rqamaps.ranks alone defines
RANK_LAYER = {"RankTable", "int_array", "int_table", "_rank_table", "table", "threshold",
              "int_threshold", "cuts", "_exact_cuts",
              "_float_cuts", "unsigned", "in_ranges", "BLOCK_ELEMS", "check_pairs",
              "ResourceGuardError"}
# the package's modules in import order: each imports only from earlier ones
IMPORT_ORDER = ["rational", "dynamics", "ranks", "intervals", "rqa", "solenoidal",
                "finite_omega", "constructions", "cli"]
# the names it had in rqamaps.rqa: an alias left under one would let a stale
# mock.patch target pass without testing anything
RETIRED = {"_RankTable", "_int_table", "_table", "_cuts", "_unsigned", "_in_ranges",
           "_BLOCK_ELEMS", "_DEFAULT_MAX_PAIRS", "_check_pairs", "max_pairs_limit", "_ranks"}
# helpers no subcommand, script or benchmark calls, and readers that
# duplicate node_bounds or counts_by_window: deleted, or moved into
# tests/package_oracles.py where the tests check counts against them
REMOVED = {"system_to_json", "system_from_json", "write_trajectory_csv", "report_json",
           "recurrent_orbit_pairs", "min_spatial_gap", "dist_m_words", "diam_m_words",
           "_shifted_pair", "prop42_recurrence_rule", "bowen_orbit_distance", "word_midpoint",
           "interval_tests", "word_add", "symbolic_trajectory", "_level",
           "interval_of_word", "count_pairs"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """(module, name) for every private name that ``source`` reads from a
    module of the package, by import or as a module attribute."""
    tree = ast.parse(source)
    modules, reads = {}, set()   # local name -> module of the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from . import m", "from .m import x" and their absolute forms
            package = node.level == 1 or (node.module or "").partition(".")[0] == "rqamaps"
            module = (node.module or "").removeprefix("rqamaps").lstrip(".")
            if package and not module:
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif package:
                reads.update((module, a.name) for a in node.names if _private(a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _private(node.attr):
            reads.add((modules[node.value.id], node.attr))
    return reads


def package_imports(source):
    """The modules of the package that ``source`` imports, at any depth."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 or (node.module or "").partition(".")[0] == "rqamaps"
            module = (node.module or "").removeprefix("rqamaps").lstrip(".")
            if package and not module:
                modules.update(a.name for a in node.names)
            elif package:
                modules.add(module)
        elif isinstance(node, ast.Import):
            modules.update(a.name.removeprefix("rqamaps.") for a in node.names
                           if a.name.startswith("rqamaps."))
    return modules


def top_level_names(source):
    """The names a module defines at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_private_reads_sees_every_form():
    source = "\n".join([
        "from . import rqa, ranks as r",
        "from .rqa import _a, b",
        "from rqamaps.ranks import _c",
        "from rqamaps import solenoidal as sol",
        "x = rqa._d(r._e, sol._f, rqa.g, t._h, rqa.__doc__)",
    ])
    assert private_reads(source) == {("rqa", "_a"), ("ranks", "_c"), ("rqa", "_d"),
                                     ("ranks", "_e"), ("solenoidal", "_f")}


def test_rank_layer_has_one_home():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    reads = {stem: private_reads(source) for stem, source in sources.items()}
    assert {(stem, name) for stem, r in reads.items() for module, name in r
            if module == "ranks"} == set()
    for stem in ("solenoidal", "finite_omega"):
        assert {name for module, name in reads[stem] if module == "rqa"} == set()
        assert "rqa._" not in sources[stem] and "from .rqa import _" not in sources[stem]
    assert RANK_LAYER <= top_level_names(sources["ranks"])
    for stem, source in sources.items():
        defined = top_level_names(source)
        assert defined & RETIRED == set(), stem
        assert stem == "ranks" or defined & RANK_LAYER == set(), stem


def test_one_private_name_crosses_modules():
    # none does: constructions reads the node intervals of a system through
    # the public solenoidal.node_bounds
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        reads |= {(path.stem, module, name) for module, name in private_reads(path.read_text())}
    assert reads == set()


def test_package_imports_sees_every_form():
    source = "\n".join([
        "import json, rqamaps.rqa",
        "from . import rational, ranks as r",
        "from .intervals import x",
        "from rqamaps.dynamics import y",
        "from rqamaps import solenoidal as sol",
        "def f():",
        "    from .cli import main",
    ])
    assert package_imports(source) == {"rqa", "rational", "ranks", "intervals", "dynamics",
                                       "solenoidal", "cli"}


def test_imports_follow_one_order():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert set(sources) == set(IMPORT_ORDER) | {"__init__"}
    for i, stem in enumerate(IMPORT_ORDER):
        assert package_imports(sources[stem]) <= set(IMPORT_ORDER[:i]), stem


def test_interval_tests_have_one_home():
    # one integer gap/hull test, and no metric seam beside it
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        defined, tree = top_level_names(source), ast.parse(source)
        assert ("int_interval_test" in defined) == (path.stem == "intervals"), path.stem
        assert defined & {"_leaf_tests", "Metric", "euclidean"} == set(), path.stem
        assert not [a.arg for node in ast.walk(tree) if isinstance(node, ast.arguments)
                    for a in node.args + node.kwonlyargs if a.arg == "metric"], path.stem


def test_removed_helpers_stay_out_of_the_package():
    for path in sorted(SRC.glob("*.py")):
        assert top_level_names(path.read_text()) & REMOVED == set(), path.stem
    assert set(rqamaps.__all__) & REMOVED == set()
    # nor does the README name one, as `name` or as a call name(
    readme = (ROOT / "README.md").read_text()
    assert {name for name in REMOVED
            if f"`{name}`" in readme or re.search(rf"(?<!\w){name}\(", readme)} == set()
    fields = {f.name for f in dataclasses.fields(AdmissibleSystem)}
    # every system reads its bounds from its node tables, with no store of levels beside them
    assert fields & {"descriptor", "_levels"} == set()
    assert not hasattr(Word, "group_order")
