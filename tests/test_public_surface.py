"""The package's public surface: ``simplexcast.__all__`` is pinned, every public top-level
def or class of the package is either in it or used by the package itself, so that what only
tests call lives in the tests, and every defaulted parameter of a top-level function is set
by some call in the package, so that a setting only tests change is a constant."""

import ast
from pathlib import Path

import simplexcast

PUBLIC = (
    "BoundReport", "CaarForecaster", "DimensionMismatch", "InvariantViolation", "KaarForecaster",
    "Kernel", "KernelExpert", "LinearExpert", "MaarForecaster", "ProbabilityVector",
    "best_kernel_expert", "best_linear_expert", "expert_loss", "project_to_simplex",
    "solve_substitution", "substitute_rows", "verify_run",
)


def test_the_public_names_are_pinned_and_each_resolves():
    assert sorted(simplexcast.__all__) == sorted(PUBLIC) and len(PUBLIC) == 17
    for name in PUBLIC:   # KaarForecaster and Kernel load on first use
        assert getattr(simplexcast, name).__name__ == name


def _registered(node) -> bool:
    """A def under a ``@group.command(...)`` decorator, which registers it (the CLI's verbs)."""
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr == "command"
               for dec in node.decorator_list)


def _trees():
    return [ast.parse(path.read_text(), path.name) for path in sorted(Path(simplexcast.__file__).parent.glob("*.py"))]


def test_every_public_definition_is_exported_or_used_by_the_package():
    trees = _trees()
    unused = []
    for tree in trees:
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_")
                    or node.name in PUBLIC or _registered(node)):
                continue
            own = {id(n) for n in ast.walk(node)}   # a use inside its own definition does not count
            used = any(id(n) not in own and (isinstance(n, ast.Name) and n.id == node.name
                                             or isinstance(n, ast.Attribute) and n.attr == node.name)
                       for other in trees for n in ast.walk(other))
            if not used:
                unused.append(node.name)
    assert unused == []


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at positional ``index`` (None when it is
    keyword-only): by keyword, by position, or through ``*args`` or ``**kwargs``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_of_a_top_level_function_is_passed_by_the_package():
    trees = _trees()
    calls = {}   # name called (a bare name or an attribute's) -> its calls
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(n.func.id if isinstance(n.func, ast.Name) else n.func.attr, []).append(n)
    unset = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            spec = node.args
            positional = spec.posonlyargs + spec.args
            first = len(positional) - len(spec.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(None, arg.arg) for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                          if default is not None]
            unset += [f"{node.name}({name})" for index, name in defaulted
                      if not any(_passes(call, index, name) for call in calls.get(node.name, ()))]
    assert unset == []
