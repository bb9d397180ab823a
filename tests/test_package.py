"""The package's export list, its one use of scipy, its one Euclidean norm
and its one home of |grad W|^{p-2}."""

import ast
import pathlib

import plap


def test_every_exported_name_resolves_and_star_import_succeeds():
    assert [name for name in plap.__all__ if not hasattr(plap, name)] == []
    namespace = {}
    exec("from plap import *", namespace)
    assert set(plap.__all__) <= set(namespace)


def _scipy_imports(node, where):
    """(module, function, imported names) of every scipy import under
    ``node``, ``where`` naming the function that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = [a.name for a in child.names] if isinstance(child, ast.Import) else []
        if any(m.split(".")[0] == "scipy" for m in modules):
            yield ", ".join(modules), where, [a.name for a in child.names]
        inner = child.name if isinstance(child, ast.FunctionDef | ast.ClassDef) else where
        yield from _scipy_imports(child, inner)


def test_scipy_is_imported_only_for_the_banded_cholesky():
    found = [(path.name, *imp)
             for path in sorted(pathlib.Path(plap.__file__).parent.glob("*.py"))
             for imp in _scipy_imports(ast.parse(path.read_text()), None)]
    assert found == [("comparison.py", "scipy.linalg", "_band_solve", ["solveh_banded"])]


def _other_norms(tree):
    """Every ``np.linalg.norm`` call (or any call of a ``norm``) and every
    ``np.vecdot`` of an array with itself under ``tree``, as source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")[-1]
            args = [ast.dump(a) for a in node.args]
            if name == "norm" or (name == "vecdot" and len(args) == 2 and args[0] == args[1]):
                yield ast.unparse(node)


def test_axis_norm_is_the_only_euclidean_norm():
    found = [(path.name, call)
             for path in sorted(pathlib.Path(plap.__file__).parent.glob("*.py"))
             for call in _other_norms(ast.parse(path.read_text()))]
    assert found == []


def _grad_powers(node, where):
    """The function that holds each ``_power(..., p - 2)`` call under
    ``node``, ``where`` naming the function that holds ``node``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "_power"
                and len(child.args) == 2 and ast.unparse(child.args[1]) == "p - 2"):
            yield where
        yield from _grad_powers(child, child.name if isinstance(child, ast.FunctionDef) else where)


def test_grad_power_is_the_one_home_of_the_gradient_factor():
    """Every Delta_p route of the superposition, the FD oracle included,
    takes |grad W|^{p-2} from ``superpose._grad_power``.  The one other
    factor is the flux of the evolution FD defects (``flux`` in
    ``evolution._flux_divergence``): B is not C^2 at the origin, so they
    difference the flux |grad(a B)|^{p-2} grad(a B), not the gradient."""
    found = [(path.name, where)
             for path in sorted(pathlib.Path(plap.__file__).parent.glob("*.py"))
             for where in _grad_powers(ast.parse(path.read_text()), None)]
    assert found == [("evolution.py", "flux"), ("superpose.py", "_grad_power")]
