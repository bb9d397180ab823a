"""The package's export list, its one use of scipy, its one Euclidean norm,
its one home of |grad W|^{p-2}, its one np.power and its one home of the
bracket."""

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
    assert found == [("comparison.py", "scipy.linalg", "_band_solver",
                      ["cho_solve_banded", "cholesky_banded"])]


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


def _holders(node, match, where=None):
    """The function that holds each node under ``node`` that ``match``
    accepts, ``where`` naming the function that holds ``node``."""
    for child in ast.iter_child_nodes(node):
        if match(child):
            yield where
        yield from _holders(child, match, child.name if isinstance(child, ast.FunctionDef) else where)


def _package_holders(match):
    """(file, function) of every node of the package that ``match`` accepts."""
    return [(path.name, where)
            for path in sorted(pathlib.Path(plap.__file__).parent.glob("*.py"))
            for where in _holders(ast.parse(path.read_text()), match)]


def _is_grad_power(node):
    """A ``_power(..., p - 2)`` call."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_power"
            and len(node.args) == 2 and ast.unparse(node.args[1]) == "p - 2")


def test_grad_power_is_the_one_home_of_the_gradient_factor():
    """Every Delta_p route of the superposition, the FD oracle included,
    takes |grad W|^{p-2} from ``superpose._grad_power``.  The one other
    factor is the flux of the evolution FD defects (``flux`` in
    ``evolution._flux_divergence``): B is not C^2 at the origin, so they
    difference the flux |grad(a B)|^{p-2} grad(a B), not the gradient.
    ``evolution.two_bump_defect`` and the ``signed_power`` of
    ``two_bump_defect_fd`` form no gradient factor: their powers of V make
    the time term (|V|^{p-2} V)_t of the homogeneous equation."""
    assert _package_holders(_is_grad_power) == [
        ("evolution.py", "flux"), ("evolution.py", "two_bump_defect"),
        ("evolution.py", "signed_power"), ("superpose.py", "_grad_power"),
    ]


def test_power_is_the_one_home_of_np_power():
    """``np.power`` appears only in ``core._power``, the package's one rule
    for how numpy rounds a power: a kernel that needs a single value to
    round as a batch row does takes ``_power``, not an ``np.power`` of its
    own."""
    found = _package_holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "power")
    assert found == [("core.py", "_power")]


def _is_bracket_half(node):
    """A trace, or a product of three factors such as x^T H x: the two
    halves of the bracket (p-2) e^T H e + tr H."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).split(".")[-1] == "trace"
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.MatMult))


def test_operator_term_is_the_one_home_of_the_bracket():
    """``delta_p_direct``, the FD oracle and the criterion checks take the
    bracket (p-2) e^T H e + tr H from ``concave.operator_term``, whose unit
    direction cannot overflow.  The one other trace is the divergence of the
    evolution FD defects (``evolution._flux_divergence``): the trace of the
    Jacobian of their flux, which has no factor and so no bracket."""
    found = sorted(set(_package_holders(_is_bracket_half)))
    assert found == [("concave.py", "operator_term"), ("evolution.py", "_flux_divergence")]
