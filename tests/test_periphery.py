"""A module stays iff an entry point reaches it: the CLI, ``repro.check``,
the paper's own example (``repro.workload.sales_demo``), a ``perf/``
workload or a ``benchmarks/`` paper test (docs/architecture.md
§"Periphery: who reaches it").  Tests and examples do not count.

Reachability is a static import closure over ``src/repro``.  ``from pkg
import Name`` reaches the submodule that defines ``Name``, following the
package ``__init__``'s re-exports, so reaching a package does not reach
everything its ``__init__`` imports."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOTS = ("repro.cli", "repro.__main__", "repro.check", "repro.workload.sales_demo")


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
PACKAGES = {name for name, p in MODULES.items() if p.name == "__init__.py"}


def _imports(path, module=None, top_level_only=False):
    """``(source module, imported name or None, bound name)`` per import in
    ``path``; ``module`` names the file, for relative imports."""
    tree = ast.parse(path.read_text())
    nodes = tree.body if top_level_only else ast.walk(tree)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module if module in PACKAGES else module.rsplit(".", 1)[0]
                package = package.rsplit(".", node.level - 1)[0]
                base = f"{package}.{base}" if base else package
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def reached():
    seen, followed = set(), set()

    def reach_module(module, follow=True):
        if module not in MODULES:
            return
        parts = module.split(".")
        seen.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if follow and module not in followed:
            followed.add(module)
            for source, name, _ in _imports(MODULES[module], module):
                reach_name(source, name)

    def reach_name(module, name):
        submodule = f"{module}.{name}"
        if submodule in MODULES:
            return reach_module(submodule, follow=submodule not in PACKAGES)
        if module in PACKAGES and name is not None:
            exports = {
                bound: (source, imported)
                for source, imported, bound in _imports(
                    MODULES[module], module, top_level_only=True
                )
            }
            if name in exports:
                return reach_name(*exports[name])
        # A bare ``import pkg`` reaches only the package; a name its
        # ``__init__`` defines itself needs what the ``__init__`` imports.
        reach_module(module, follow=module not in PACKAGES or name is not None)

    for root in ROOTS:
        reach_module(root)
    for path in sorted(REPO.glob("perf/*.py")) + sorted(REPO.glob("benchmarks/*.py")):
        for source, name, _ in _imports(path):
            reach_name(source, name)
    return seen


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached())
    assert not unreached, f"no entry point reaches {unreached}"


def test_one_reference_fold_and_no_query_log():
    sources = [path.read_text() for path in MODULES.values()]
    assert sum(s.count("def evaluate_reference(") for s in sources) == 1
    assert not any("query_log" in s for s in sources)
