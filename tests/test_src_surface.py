"""Every top-level function and class in src/tabflow has a user in the program.

An AST scan lists the top-level definitions of each module under
src/tabflow. A name counts as used when it appears as a whole word anywhere
under src/ or perfbench/ outside its own definition: a call, an import, an
attribute, or a string (perfbench/tracer.py names the functions it wraps in
strings). A package's __init__.py does not count as a user, so a
re-export cannot hide a definition that nothing calls. No name is exempt:
code that only the tests run belongs under tests/.

A second scan fails on a parameter or field default named after a
config._TABLE key: each pipeline setting has its one home in the config.

A third check holds the top-level package to its modules: each name is
imported from the module that defines it, so `tabflow` re-exports nothing.
"""

import ast
import re
import types
from pathlib import Path

import tabflow
import tabflow.cli  # noqa: F401  (binds the submodules it imports on tabflow)
from tabflow.config import _TABLE

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tabflow"


def _program_files():
    return sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def _without(text: str, node: ast.AST) -> str:
    """text with the lines of node's definition, decorators included, blanked."""
    lines = text.splitlines()
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "\n".join(lines[:first - 1] + lines[node.end_lineno:])


def test_every_top_level_definition_is_used_by_the_program():
    files = _program_files()
    texts = {path: path.read_text(encoding="utf-8") for path in files}
    unused = []
    for path in files:
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            used = any(word.search(_without(text, node) if other == path else text)
                       for other, text in texts.items() if other.name != "__init__.py")
            if not used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined in src/ but used only by tests or not at all:\n" + \
        "\n".join(unused)


def _defaults(tree: ast.AST):
    """(line, name) of each function parameter and class-body field that has
    a default: dataclass and NamedTuple fields are annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            for arg in positional[len(positional) - len(a.defaults):]:
                yield arg.lineno, arg.arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield arg.lineno, arg.arg
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)):
                    yield stmt.lineno, stmt.target.id


def test_no_default_copies_a_config_setting():
    """config._TABLE is the one home of each pipeline setting: a default
    named after one of its keys (steps, seed, lr, ...) is a second copy that
    can drift from it, so every caller passes the value."""
    keys = {key for _, key, _, _, _ in _TABLE}
    copies = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for line, name in _defaults(ast.parse(path.read_text(encoding="utf-8")))
              if name in keys]
    assert not copies, "defaults that copy a config._TABLE setting:\n" + "\n".join(copies)


def test_package_attributes_are_its_modules():
    public = {name: value for name, value in vars(tabflow).items()
              if not name.startswith("_")}
    assert public
    not_modules = sorted(name for name, value in public.items()
                         if not isinstance(value, types.ModuleType))
    assert not not_modules, f"tabflow re-exports {not_modules}"
