"""No public function or class of the library survives only because its own tests call it.

Every module-level public ``def`` and ``class`` under ``src/mlareid`` needs a reference
from the library, the benchmark or the demos other than its own definition: an import of
the name, an attribute read through an imported module (``autodiff.conv2d``), a use inside
its own module, or a ``"mlareid.<module>:<name>"`` span target in perfbench.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mlareid"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "demos")
SPAN_TARGET = re.compile(r"^mlareid\.(\w+):(\w+)")

# Public names kept without a caller outside the tests, each with its reason.
ALLOWED = {
    ("autodiff", "sqrt"): "kept for the bit test of the composed batch-norm chain until the numerics change",
    ("autodiff", "div"): "kept for the bit test of the composed batch-norm chain until the numerics change",
    ("dataio", "figure_mask"): "the figure-versus-background telemetry of the attention study will call it",
}


def public_definitions() -> dict[tuple[str, str], ast.AST]:
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[path.stem, node.name] = node
    return defs


def _package_module(module: str | None, level: int) -> str | None:
    """The mlareid submodule an import names ("autodiff"), "" for the package, else None."""
    if level:  # relative imports occur only inside the package
        return module or ""
    if module == "mlareid":
        return ""
    if module and module.startswith("mlareid."):
        return module.split(".")[1]
    return None


def references(path: Path, defs) -> set[tuple[str, str]]:
    """(module, name) pairs that ``path`` refers to, outside each name's own definition."""
    here = path.stem if path.parent == PACKAGE else None
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}  # local name -> mlareid submodule
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node.module, node.level)
            for alias in node.names:
                if module == "":
                    aliases[alias.asname or alias.name] = alias.name
                elif module is not None:
                    found.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = _package_module(alias.name, 0)
                if module and alias.asname:
                    aliases[alias.asname] = module
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = SPAN_TARGET.match(node.value)
            if match:
                found.add(match.groups())
    inside = {}  # own-module definition -> its line span, so self-references do not count
    if here is not None:
        inside = {name: (d.lineno, d.end_lineno) for (m, name), d in defs.items() if m == here}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add((aliases[base.id], node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "mlareid"):  # mlareid.<module>.<name>
                found.add((base.attr, node.attr))
        elif isinstance(node, ast.Name) and node.id in inside:
            first, last = inside[node.id]
            if not first <= node.lineno <= last:
                found.add((here, node.id))
    return found


def unreferenced() -> set[tuple[str, str]]:
    defs = public_definitions()
    found = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            found |= references(path, defs)
    return set(defs) - found


def test_every_public_name_has_a_caller_outside_the_tests():
    missing = sorted(unreferenced() - set(ALLOWED))
    assert not missing, f"public names only tests call (delete them, or list them with a reason): {missing}"


def test_every_allowed_name_still_needs_its_entry():
    """A listed name that exists and gained a caller leaves the list."""
    stale = sorted(set(ALLOWED) - unreferenced())
    assert not stale, f"remove from ALLOWED: {stale}"
