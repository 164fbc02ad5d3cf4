"""Every metric and span name ``src/repro`` registers is documented in
docs/observability.md.

A static scan of every call to ``counter`` / ``gauge`` / ``histogram`` /
``counted`` / ``span`` under ``src/repro``: a literal name must appear in
the doc in backticks; a templated one (``f"operator.{kind}"``) must match
a documented name, which may write each hole as ``<placeholder>``
(``operator.<operator_kind>``) or spell a member of the family out
(``operator.shared_index``).  A name passed through a parameter counts as
the parameter's default (``Database.trace(label="batch")``)."""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "observability.md"
REGISTERING = {"counter", "gauge", "histogram", "counted", "span"}
#: The registry's own machinery: ``Ledger`` registers the names its
#: ``counted`` fields declare, which are scanned where they are declared.
MACHINERY = {SRC / "obs" / "metrics.py"}
HOLE = "(?:<[a-z_]+>|[a-z_]+)"


def _defaults(function):
    """A function's parameters with a string default, as {name: default}."""
    args = function.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return {
        arg.arg: default.value
        for arg, default in pairs
        if isinstance(default, ast.Constant) and isinstance(default.value, str)
    }


def _pattern(node, defaults):
    """The name a registering call's first argument spells, as a regex."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else HOLE
            for part in node.values
        )
    if isinstance(node, ast.Name) and node.id in defaults:
        return re.escape(defaults[node.id])
    return None


def registered():
    """``(file:line, pattern or None)`` per registering call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path in MACHINERY:
            continue
        tree = ast.parse(path.read_text())
        scopes = [(tree, {})] + [
            (node, _defaults(node))
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen = set()
        # Innermost scope last, so its parameters win.
        for scope, defaults in reversed(scopes):
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name not in REGISTERING or not node.args:
                    continue
                seen.add(id(node))
                where = f"{path.relative_to(REPO)}:{node.lineno}"
                found.append((where, _pattern(node.args[0], defaults)))
    return found


def test_the_scan_sees_every_kind_of_name():
    patterns = [pattern for _, pattern in registered()]
    assert len(patterns) > 60
    for name in ("buffer.hits", "executor.morsels", "serve.batches", "batch"):
        assert re.escape(name) in patterns, name
    assert any(HOLE in pattern for pattern in patterns if pattern)


def test_every_registered_name_is_a_literal_or_a_template():
    unread = [where for where, pattern in registered() if pattern is None]
    assert not unread, f"names the scan cannot read: {unread}"


def test_every_registered_name_is_documented():
    documented = set(re.findall(r"`([^`\s]+)`", DOC.read_text()))
    missing = [
        (where, pattern)
        for where, pattern in registered()
        if pattern is not None
        and not any(re.fullmatch(pattern, name) for name in documented)
    ]
    assert not missing, f"undocumented in {DOC.name}: {missing}"
