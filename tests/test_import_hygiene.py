"""Every name a module of the package imports at module level is read there,
every public name it defines is called from outside the tests, and every
error it raises is a package error.

No linter runs on this code, so an import left behind when its last use goes,
a helper that only the tests still call, or a bare builtin exception would
stay unseen; these tests read each module's syntax tree instead.
``__init__.py`` is left out: it imports names to export them.
"""

import ast
import builtins
import re
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rotabaxter"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict[str, int]:
    """The names the module's top-level imports bind, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def _read(tree) -> set[str]:
    """The names the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def test_the_package_has_modules_to_check():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unread = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unread, f"{path.name} imports names it never reads: {unread}"


# -- imports sit at module level ------------------------------------------------

FUNCTION_IMPORTS = set()


def _function_imports(tree):
    """(qualified name, line) of each import inside a function or method."""
    def visit(node, prefix, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, prefix + (child.name,),
                                 in_function or not isinstance(child, ast.ClassDef))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    yield ".".join(prefix), child.lineno
            else:
                yield from visit(child, prefix, in_function)
    return list(visit(tree, (), False))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    """Every import runs when its module loads, so an import cycle shows at
    once; only a call that must reach a module importing this one is exempt."""
    found = [(name, line) for name, line in _function_imports(ast.parse(path.read_text()))
             if (path.name, name) not in FUNCTION_IMPORTS]
    assert not found, f"{path.name} imports inside functions: {found}"


# -- every raise names a package error -------------------------------------------

BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_raise_names_a_builtin_exception(path):
    """A caller catches ``RotabaxterError`` for every error of the package
    (``errors.py``), so no module raises a builtin class itself."""
    builtin = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                builtin.append(f"line {node.lineno}: {exc.id}")
    assert not builtin, f"{path.name} raises builtin exceptions: {builtin}"


# -- every public name has a caller --------------------------------------------

REPO = PACKAGE.parent.parent
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _is_click_command(node) -> bool:
    """Whether a function is registered by a click decorator (``@main.command``
    or ``@click.group``), which calls it by registration, not by name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _public_definitions(path):
    """(name, first line, last line) of each public top-level function and
    class of a module, and of each public method of its classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        if path.name == "cli.py" and _is_click_command(node):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _src_references() -> dict[str, list]:
    """{name: [(module path, line), ...]} of every name the package's modules
    read, as a bare name, an attribute or an imported name."""
    refs: dict[str, list] = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _benchmark_names() -> set[str]:
    """Every identifier of the benchmark's code, inside strings too, since its
    tracer names the functions it wraps in strings."""
    names = set()
    for path in sorted((REPO / "perfbench").glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME:
                    names.add(tok.string)
                elif tok.type == tokenize.STRING:
                    names.update(IDENTIFIER.findall(tok.string))
    return names


def _readme_names() -> set[str]:
    """Every identifier inside backticks in README.md, its documented API."""
    text = (REPO / "README.md").read_text()
    return {name for span in re.findall(r"`+([^`]+)`+", text)
            for name in IDENTIFIER.findall(span)}


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function, class or method of the package is named somewhere
    a user, the CLI or the benchmark reaches: in another line of the package,
    in the benchmark, or in README's backticked text.  A name only the tests
    call belongs in the tests.  The check goes by name, so a reused name can
    hide a missing caller, while a name called by name passes."""
    refs = _src_references()
    outside = _benchmark_names() | _readme_names()
    uncalled = []
    for path in MODULES:
        for qualname, first, last in _public_definitions(path):
            name = qualname.rpartition(".")[2]
            if name in outside or any(other != path or not first <= line <= last
                                      for other, line in refs.get(name, ())):
                continue
            uncalled.append(f"{path.name}:{first} {qualname}")
    assert not uncalled, "public names with no caller outside the tests:\n" + "\n".join(uncalled)
