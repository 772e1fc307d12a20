"""The package's public surface: ``simplexcast.__all__`` is pinned, every public top-level
def or class of the package is either in it or used by the package itself, so that what only
tests call lives in the tests, and every defaulted parameter of a top-level function is set
by some call in the package, so that a setting only tests change is a constant.  A method of a
package base class that every concrete subclass overrides must be reached through ``super()``,
or it is dead code."""

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


def _super_calls(node, name: str) -> bool:
    """Whether ``node`` calls ``super().name(...)``."""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == name
               and isinstance(n.func.value, ast.Call) and isinstance(n.func.value.func, ast.Name)
               and n.func.value.func.id == "super" for n in ast.walk(node))


def test_a_method_that_every_concrete_subclass_overrides_is_reached_through_super():
    # classes by name, each with its bases among them; a class no other derives from is concrete
    classes = {node.name: node for tree in _trees() for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {name: [b.id for b in node.bases if isinstance(b, ast.Name) and b.id in classes]
             for name, node in classes.items()}
    methods = {name: {n.name for n in node.body if isinstance(n, ast.FunctionDef)} for name, node in classes.items()}

    def ancestry(name):   # the class, then its bases depth first: the MRO of single inheritance
        return [name] + [a for b in bases[name] for a in ancestry(b)]

    dead = []
    for base in classes:
        below = [c for c in classes if base in ancestry(c)[1:]]
        concrete = [c for c in below if not any(c in bases[o] for o in classes)]
        dead += [f"{base}.{m}" for m in sorted(methods[base]) if concrete
                 and all(next(a for a in ancestry(c) if m in methods[a]) != base for c in concrete)
                 and not any(_super_calls(classes[c], m) for c in below)]
    assert dead == []
