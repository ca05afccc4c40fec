"""Every top-level function and class of ``src/hypam`` is reached by a program.

The programs are the ``hypam`` subcommands (``hypam/cli.py``), the scripts,
the benchmark (``perfbench/``, with the dotted span targets of
``perfbench/spans.py``) and the acceptance gate (``tests/test_acceptance.py``).
Every name those files mention is a root, and so is every name that
module-level library code (a table such as ``_EXACT_LOG_KERNELS``) mentions,
as it runs at import.  A reached definition reaches every name its body
mentions.  Names are matched without regard to module, which can only keep
more code than a precise call graph would.  A definition no root reaches
runs only in unit tests, and belongs in ``tests/oracles.py`` or nowhere.

Everything is read with ``ast``; nothing is imported or run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hypam"

# kept although no program reaches them, with the reason
KEEP = {
    "route_extract": "with staying_excursion_split, the only code that applies "
                     "the paper's staying/excursion bound to simulated paths",
    "staying_excursion_split": "checked against that inequality on simulated "
                               "paths by test_split_bound_on_simulated_instances",
}


def _names(node):
    """Every name a node mentions: variables, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add((sub.asname or sub.name).split(".")[-1])
    return out


def _span_targets():
    """The attribute paths of ``TARGETS`` in ``perfbench/spans.py``, split
    at the dots."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets):
            for entry in stmt.value.elts:
                out.update(entry.elts[1].value.split("."))
    assert out, "no span targets found in perfbench/spans.py"
    return out


def test_every_library_definition_is_reached():
    defs = {}   # name -> [(module, node)]
    roots = _span_targets()
    for path in sorted(LIBRARY.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    for path in [LIBRARY / "cli.py", ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "scripts").glob("*.py")),
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        roots |= _names(ast.parse(path.read_text()))

    def walk(names, reached):
        todo = [name for name in names if name in defs]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                for _, node in defs[name]:
                    todo.extend(n for n in _names(node) if n in defs)
        return reached

    reached = walk(roots, set())
    assert set(KEEP) <= set(defs), f"not library definitions: {sorted(set(KEEP) - set(defs))}"
    assert not set(KEEP) & reached, ("a program reaches these; drop them from KEEP: "
                                     f"{sorted(set(KEEP) & reached)}")
    walk(KEEP, reached)
    unreached = sorted(f"{module}.{name} (line {node.lineno})"
                       for name, entries in defs.items()
                       if name not in reached
                       for module, node in entries)
    assert not unreached, ("only unit tests reach these; delete them or move "
                           "them to tests/oracles.py: " + ", ".join(unreached))
