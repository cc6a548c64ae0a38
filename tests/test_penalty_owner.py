"""Guard the one owner of the penalty, by a scan of the package's syntax
trees.  ``mtgl.regularization.RegularizationPlan`` is the only code that
turns (regime, sigma, n, T, M, A or delta) into the rate, lam, q and tau,
and a comparison's (sigma, n, T, M, c) into its baseline's level: no
other module calls or reaches the rate functions or takes a logarithm of
a size, and no module defines an entry point a plan replaced."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mtgl").glob("*.py"))

OWNED = ("gaussian_rate", "finite_variance_rate")
# Entry points a plan replaced: the threshold recipes (its ``threshold``)
# and the penalty wrappers (its ``lam``, ``q`` and ``confidence``).
REMOVED = (
    "selection_threshold", "coherence_threshold", "lambda_gaussian", "lambda_finite_variance",
)
# Where math.log may be taken outside ``regularization``: the exact
# binomial tail of the frequency verdict, a log of probabilities.
LOG_SITES = (("probability", "binomial_lower_tail"),)


def _trees():
    for path in PACKAGE:
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _uses(tree):
    """(name, line) of every name and attribute in ``tree``, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree):
    """(name, line) of every function, class or assigned name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno


def _logs(tree):
    """(top-level definition holding it or None, line) of every ``math.log``."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "log"
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                yield getattr(top, "name", None), node.lineno


def test_only_regularization_reaches_the_rate_and_penalty_functions():
    stray = [
        (module, name, line)
        for module, tree in _trees() if module != "regularization"
        for name, line in _uses(tree) if name in OWNED
    ]
    assert not stray, f"rate or penalty computed outside a plan: {stray}"


def test_only_regularization_and_the_public_api_import_them():
    stray = [
        (module, alias.name, node.lineno)
        for module, tree in _trees() if module not in ("regularization", "__init__")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in OWNED
    ]
    assert not stray, f"imports of the plan's formulas: {stray}"


def test_no_second_threshold_recipe_is_defined():
    found = [
        (module, name, line)
        for module, tree in _trees()
        for name, line in _definitions(tree) if name in REMOVED
    ]
    assert not found, f"tau, lam, q and confidence are read from a plan: {found}"


def test_only_regularization_takes_a_logarithm_of_a_size():
    stray = [
        (module, owner, line)
        for module, tree in _trees() if module != "regularization"
        for owner, line in _logs(tree) if (module, owner) not in LOG_SITES
    ]
    assert not stray, f"a log outside RegularizationPlan: {stray}"
