"""Package structure: modules use each other only through public names,
``search`` and ``ensembles`` import nothing from each other, every vector
norm goes through ``linalg.norm``, only ``entropy`` takes a logarithm, no
module names numpy's random module, every exported name has a user outside
the tests, every tolerance is read, the console script names a callable,
and pyproject.toml's version is the package's."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import coherence_lab
from coherence_lab import Tolerances

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coherence_lab"


def private_imports(path):
    """``from <sibling> import _name`` statements in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("coherence_lab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} imports {name}"


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in private_imports(path)] == []


def sibling_imports(path):
    """The sibling modules one module imports from (``from .x import ...``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.module.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and (node.level == 1 or node.module.startswith("coherence_lab."))
    }


def test_search_and_ensembles_import_nothing_from_each_other():
    # Both draw and project pairs; what they share (``default_split``,
    # ``PairKind``) lives in ``superpose``, below both.
    assert "superpose" in sibling_imports(PACKAGE / "search.py")
    assert "ensembles" not in sibling_imports(PACKAGE / "search.py")
    assert "search" not in sibling_imports(PACKAGE / "ensembles.py")


def numpy_norm_lines(source):
    """Lines that use ``<x>.linalg.norm`` or import ``norm`` from ``numpy.linalg``."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "norm"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name == "norm" for alias in node.names):
                yield node.lineno


def test_numpy_norm_scan_finds_each_spelling():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "a = float(np.linalg.norm(v))\n"
        "b = numpy.linalg.norm\n"
        "c = linalg.norm(v)\n"  # the package's own helper
    )
    assert sorted(numpy_norm_lines(source)) == [2, 3, 4]


def test_every_vector_norm_goes_through_linalg_norm():
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in numpy_norm_lines(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def log2_lines(source):
    """Lines that use ``<x>.log2`` or import ``log2`` (from ``math`` or ``numpy``)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "log2":
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and any(a.name == "log2" for a in node.names):
            yield node.lineno


def test_log2_scan_finds_each_spelling():
    source = (
        "import math\n"
        "from math import log2\n"
        "from numpy import log2 as lg\n"
        "a = math.log2(x)\n"
        "b = np.log2(p)\n"
        "c = log2\n"  # a bare name is only ever one of the imports above
    )
    assert sorted(log2_lines(source)) == [2, 3, 4, 5]


def test_only_entropy_takes_logarithms():
    # One module computes every log2, so the scalar and batched paths share it.
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "entropy.py"
        for line in log2_lines(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def numpy_random_lines(source):
    """Lines that name numpy's random module: ``np.random`` or ``numpy.random``,
    or an import of it or from it."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield node.lineno
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names
        ):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").split(".")[:2] == ["numpy", "random"]
            or (node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        ):
            yield node.lineno


def test_numpy_random_scan_finds_each_spelling():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy.random import Philox\n"
        "from numpy import random\n"
        "g = np.random.Generator(p)\n"
        "u = numpy.random.default_rng()\n"
        "v = gen.random(3)\n"  # a reader of uniforms, not the module
        "from numpy.random._philox import Philox as P\n"
    )
    assert sorted(numpy_random_lines(source)) == [2, 3, 4, 5, 6, 8]


def test_no_module_names_numpy_random():
    # Any numpy.random import loads secrets and hashlib (OpenSSL), about 6 MB;
    # every draw reads the package's own Philox instead.
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in numpy_random_lines(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


# Exported names with no user outside the tests, each kept on purpose.
UNUSED_EXPORTS = {
    "run_ensemble": "the scalar reference every batched summary is checked against",
    "mixing_identity_residual": "the mixing identity, which verify is to check (ROADMAP item 5)",
    "norm_identity_residual": "the norm identity, which verify is to check (ROADMAP item 5)",
}


def used_names(paths):
    """Every name that ``paths`` read, read as an attribute, or import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_used_outside_tests():
    users = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    users += sorted((PACKAGE.parents[1] / "benchmarks").glob("*.py"))
    unused = set(coherence_lab.__all__) - used_names(users)
    assert sorted(unused) == sorted(UNUSED_EXPORTS)


# Tolerances fields no src module reads, each kept on purpose.
UNREAD_TOLERANCES = {
    "identity_residual": "the identity residuals' threshold, for verify (ROADMAP item 5)",
}


def tolerance_reads(text):
    """The ``TOLERANCES`` fields that a module's source reads."""
    return {node.attr for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "TOLERANCES"}


def test_every_tolerance_is_read_by_a_src_module():
    assert tolerance_reads("TOLERANCES.norm + other.overlap\nTOLERANCES.psd = 1") == {"norm"}
    read = set().union(*(tolerance_reads(path.read_text(encoding="utf-8"))
                         for path in PACKAGE.glob("*.py")))
    unread = {field.name for field in dataclasses.fields(Tolerances)} - read
    assert sorted(unread) == sorted(UNREAD_TOLERANCES)


def test_the_console_script_names_an_importable_callable():
    # README spells every command ``coherence-lab ...``, and CI runs them as
    # ``python -m coherence_lab``, so only this reads the installed entry
    # point.  pyproject.toml is read with a regex: Python 3.10 has no tomllib.
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]*)"', section.group(1), re.M))
    assert scripts == {"coherence-lab": "coherence_lab.cli:main"}
    module, _, name = scripts["coherence-lab"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_pyproject_version_is_the_package_version():
    # Every report echoes coherence_lab.__version__; pyproject.toml is read
    # with a regex, as above.
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    versions = re.findall(r'^version\s*=\s*"([^"]*)"', section.group(1), re.M)
    assert versions == [coherence_lab.__version__]
