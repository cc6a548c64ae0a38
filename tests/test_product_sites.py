"""Guard the one owner of the products with the task designs, by a scan
of the package's syntax trees.  ``mtgl.model``'s kernels ``task_fits``
(X_t b_t) and ``task_correlations`` (X_t^T r_t) are the only places that
multiply a design by coefficients or residuals; every other spelling of
a product (``einsum``, ``matmul``, ``vecdot``, ``dot``, ``@``) appears
only at the sites named here, each for a reason that is not such a
product."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mtgl").glob("*.py"))

SPELLINGS = ("einsum", "matmul", "vecdot", "dot", "@")

# (module, innermost enclosing function, spelling) -> why it is no kernel call
SITES = {
    ("model", "task_fits", "matmul"): "the fit kernel",
    ("model", "task_correlations", "matmul"): "the correlation kernel",
    ("solver", "_coordinate_sweep", "einsum"):
        "the sweep's Gram diagonals, column norms of the design store",
    ("solver", "sweep", "vecdot"):
        "the sweep's inner loop on one row's (T, n) slab of the design store",
    ("solver", "sweep", "dot"): "a group's squared norm",
    ("assumptions", "_top_eigenvalue", "@"): "a task's Gram",
    ("assumptions", "gram_diagnostics", "matmul"): "the per-task Grams",
    ("assumptions", "_row_gram_inverse", "matmul"): "the row Grams X_t X_t^T",
    ("assumptions", "_least_squares_completion", "matmul"):
        "the completion's normal equations and Woodbury update",
    ("probability", "sample", "matmul"):
        "the noise event over a block of draws, which verify-lemmas pins byte for byte",
}


def _product_sites():
    """(module, innermost enclosing function, spelling) of every product
    in the package, with its line."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            spelling = None
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                spelling = "@"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in SPELLINGS):
                spelling = child.func.attr
            if spelling is not None:
                found.append(((module, function, spelling), child.lineno))
            visit(child, module, function)

    for path in PACKAGE:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_products_with_the_designs_go_through_the_model_kernels():
    stray = [(site, line) for site, line in _product_sites() if site not in SITES]
    assert not stray, f"products outside the named sites: {stray}"


def test_every_named_product_site_still_exists():
    # a site that is gone must leave the table, so the table stays exact
    found = {site for site, _ in _product_sites()}
    assert not set(SITES) - found, sorted(set(SITES) - found)
