"""Every module-level function and class of ``hfe`` has a caller.

The package is parsed, not imported.  A definition counts as used when
some code of the package outside the definition itself refers to it:
by name in its own module, through ``from .module import name``, as
``module.name`` after ``from . import module``, or in an ``__all__``
list.  A decorated function counts as used, since its decorator
registers it (the pipeline stages).  A class named only as the class
argument of isinstance does not count as used: no instance of it can
reach the check unless some code makes one.  The exceptions below have
no caller in the package on purpose, and the test fails once one gains
a caller.  The benchmark's trace targets get
no exception: a traced run must measure code the engine runs.

Every name a module imports must be used by that module: by name, as
the root of an attribute, in a string (a quoted annotation) or in an
``__all__`` list.  Every name a module imports from another module of
the package must be defined there, not imported there.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfe"

EXCEPTIONS = {
    # the BKS pairing of the open ROADMAP item 1; its stage will call it
    ("frames", "pairing_density"): "BKS pairing, ROADMAP item 1",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules) -> dict[tuple[str, str], ast.AST]:
    return {(name, node.name): node
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def _aliases(tree: ast.Module) -> tuple[dict, dict]:
    """The names a module imports from the package: local name ->
    (module, name), and local name -> module for imported modules."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _isinstance_classes(stmt: ast.AST) -> set[int]:
    """The ids of the nodes that name a class argument of an isinstance
    call in a statement."""
    out = set()
    for node in ast.walk(stmt):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            cls = node.args[1]
            out.update(map(id, cls.elts if isinstance(cls, ast.Tuple) else [cls]))
    return out


def _references(name: str, tree: ast.Module):
    """(target, enclosing top-level statement) of every reference the
    module makes to a definition of the package."""
    names, modules = _aliases(tree)

    def target(node):
        if isinstance(node, ast.Name):
            return names.get(node.id, (name, node.id))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return modules[node.value.id], node.attr
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return names.get(node.value, (name, node.value))
        return None

    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)):
            for elt in stmt.value.elts:
                yield target(elt), stmt
            continue
        skip = _isinstance_classes(stmt)
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Constant) and id(node) not in skip:
                yield target(node), stmt


def _used(modules, defs) -> set[tuple[str, str]]:
    """The definitions that some code outside themselves refers to."""
    used = set()
    for name, tree in modules.items():
        for ref, stmt in _references(name, tree):
            if ref in defs and defs[ref] is not stmt:
                used.add(ref)
    return used


def _unused() -> list[str]:
    modules = _modules()
    defs = _definitions(modules)
    used = _used(modules, defs)
    return sorted(f"{m}.{n}" for (m, n), node in defs.items()
                  if (m, n) not in used and (m, n) not in EXCEPTIONS
                  and not (isinstance(node, ast.FunctionDef)
                           and node.decorator_list))


def test_every_definition_has_a_caller():
    assert _unused() == []


def _unused_imports() -> list[str]:
    out = []
    for name, tree in _modules().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(local, alias.name)
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        out += [f"{name}: {imported[local]}" for local in imported if local not in used]
    return sorted(out)


def test_every_import_is_used():
    assert _unused_imports() == []


def _defined(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements define: its functions,
    classes and assigned names; not the names it imports."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out.update(node.id for t in targets for node in ast.walk(t)
                       if isinstance(node, ast.Name))
    return out


def test_every_relative_import_names_a_definition_of_its_module():
    # a name imported through a module that only imports it breaks when
    # that module stops needing it
    modules = _modules()
    defined = {name: _defined(tree) for name, tree in modules.items()}
    misses = [f"{name}: from .{node.module} import {alias.name}"
              for name, tree in modules.items() for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
              for alias in node.names if alias.name not in defined[node.module]]
    assert misses == []


def test_exceptions_exist():
    defs = _definitions(_modules())
    assert [key for key in EXCEPTIONS if key not in defs] == []


def test_exceptions_have_no_caller():
    # an exception outlives its reason once the definition gains a caller
    modules = _modules()
    used = _used(modules, _definitions(modules))
    assert [key for key in EXCEPTIONS if key in used] == []
