"""The public surface is what the README documents plus what the package
itself uses: the "Library use" example runs, no public top-level
function or class, nor a public method or property of such a class, nor
a public module-level constant, sits in ``src/`` unused, no private
function or method is left unreferenced in ``src/``, and no module
imports a name it does not use, nor a private name of another module.
A name counts as documented when it appears in an inline code span of
the README or in its "Library use" block."""

import ast
import os
import re

import kahlersym

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kahlersym")
README = os.path.join(ROOT, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _library_use_block() -> str:
    section = _readme().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _documented_names() -> set[str]:
    spans = re.findall(r"(?<!`)`([^`\n]+)`(?!`)", _readme())
    return set(re.findall(r"\w+", " ".join(spans) + _library_use_block()))


def _modules() -> dict[str, ast.Module]:
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                out[name[:-3]] = ast.parse(fh.read())
    return out


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or attributes read in ``tree``, outside ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_readme_library_use_runs(capsys):
    exec(compile(_library_use_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("einstein ")


def test_package_defines_only_version():
    """``kahlersym/__init__.py`` is its docstring and ``__version__``."""
    body = _modules()["__init__"].body
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert [ast.unparse(node) for node in body[1:]] == [
        f"__version__ = {kahlersym.__version__!r}"
    ]


def _public_definitions(modules: dict[str, ast.Module]):
    """(key, node) of every public top-level def or class, and of every
    public method or property of a public class."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        yield f"{module}.{node.name}.{member.name}", member


def test_every_public_definition_is_used_or_documented():
    modules = _modules()
    documented = _documented_names()
    unused = []
    for key, node in _public_definitions(modules):
        used = any(node.name in _references(other, skip=node)
                   for other in modules.values())
        if not (used or node.name in documented):
            unused.append(key)
    assert unused == []


def _private_definitions(modules: dict[str, ast.Module]):
    """(key, node) of every private top-level def, and of every private
    method of any class (dunder methods excepted)."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                yield f"{module}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and member.name.startswith("_")
                            and not member.name.endswith("__")):
                        yield f"{module}.{node.name}.{member.name}", member


def test_every_private_definition_is_used():
    """A private function or method is called or read somewhere in ``src/``
    outside its own body, so a retired kernel leaves no helper behind."""
    modules = _modules()
    unused = [key for key, node in _private_definitions(modules)
              if not any(node.name in _references(tree, skip=node)
                         for tree in modules.values())]
    assert unused == []


def _public_constants(modules: dict[str, ast.Module]):
    """(key, name, node) of every public name bound by a module-level
    assignment."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield f"{module}.{name.id}", name.id, node


def test_every_public_constant_is_read_or_documented():
    """A public module-level constant is read by some module (its own
    included) or named in the README."""
    modules = _modules()
    documented = _documented_names()
    unread = [key for key, name, node in _public_constants(modules)
              if name not in documented
              and not any(name in _references(tree, skip=node) for tree in modules.values())]
    assert unread == []


def test_every_imported_name_is_used():
    """Each name a module binds by ``import`` is referenced in that module
    (``from __future__`` imports excepted)."""
    unused = []
    for module, tree in _modules().items():
        references = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in references:
                        unused.append(f"{module}: {alias.name}")
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    """A private name is used only in the module that defines it: no
    relative ``from .x import _y`` in ``src/``."""
    imported = [f"{module}: {alias.name}"
                for module, tree in _modules().items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_floored_scale_is_called_in_the_scale_table_alone():
    """Every scale a rung or an identity divides by is formed in one
    function, classifier._scales, so the scale policy lives in one place."""
    callers = set()
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and "floored_scale" in _references(call.func)):
                    callers.add(f"{module}.{node.name}")
    assert callers == {"classifier._scales"}
