"""Every top-level function and class of ``src/hypam`` is reached by a
program, every option of a library function is set by one, every field
of a library dataclass is read by one, and every parameter of a library
function is read in its body.

The programs are the ``hypam`` subcommands (``hypam/cli.py``), the scripts,
the benchmark (``perfbench/``, with the dotted span targets of
``perfbench/spans.py``) and the acceptance gate (``tests/test_acceptance.py``).
Every name those files mention is a root, and so is every name that
module-level library code (a table such as ``_EXACT_LOG_KERNELS``) mentions,
as it runs at import.  A reached definition reaches every name its body
mentions.  Names are matched without regard to module, which can only keep
more code than a precise call graph would.  A definition no root reaches
runs only in unit tests, and belongs in ``tests/oracles.py`` or nowhere.

An option is a parameter with a default.  A call in the library or in a
program passes it when it names it, or gives more positional arguments
than there are parameters before it (a ``*`` or ``**`` argument passes
every parameter of its kind).  Calls are matched to definitions by name, as
above, and a method's instance or class argument is not counted.  An option
no call passes keeps a second path that only unit tests run.  A dataclass
field with a default is an option of the class's constructor.

A field is read when library or program code loads it as an attribute of
that name (matched by name, as above).  A field nothing reads is filled on
every call for unit tests or for no one.

A parameter is read when the body of its function (``def``, nested ones
and methods included) loads its name.  A parameter nothing reads makes
every caller compute an argument for no one.

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

# options kept although no program passes them, with the reason
KEEP_OPTIONS = {
    "radial_pam(dr)": "the grid step of the exact solver; the convergence "
                      "studies of ROADMAP items 3, 11 and 12 set it",
    "radial_pam(dt)": "the time step of the exact solver; the convergence "
                      "studies of ROADMAP items 3, 11 and 12 set it",
    "heat_equation_residual(d)": "the residual is checked on both exact "
                                 "kernels, d = 2 and d = 3; programs check d = 3",
}


# dataclasses whose fields are exempt from the read check, with the reason
WHOLE = {
    "FitReport": "serialised whole through asdict in FitReport.to_dict",
    "RunConfig": "serialised whole through asdict in format_config; its "
                 "fields are the config keys users set",
    "StayingSplit": "built only by the KEEP'd staying_excursion_split",
}

# dataclasses whose defaulted fields are exempt from the option check
FREE_DEFAULTS = {
    "RunConfig": "its fields are the config keys users set; the defaults are "
                 "the values of the keys a run does not set",
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


def _program_paths():
    return [LIBRARY / "cli.py", ROOT / "tests" / "test_acceptance.py",
            *sorted((ROOT / "scripts").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_library_definition_is_reached():
    defs = {}   # name -> [(module, node)]
    roots = _span_targets()
    for path in sorted(LIBRARY.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    for path in _program_paths():
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


def _options(node, bound):
    """(name, positional index or None) of each parameter of a def that has
    a default; the index leaves out the ``bound`` leading parameters a call
    does not pass (a method's instance or class)."""
    args = node.args
    positional = args.posonlyargs + args.args
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[i].arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass"
                or isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def _dataclasses():
    """(module, class node) of each top-level dataclass of the library."""
    for path in sorted(LIBRARY.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt):
                yield path.stem, stmt


def _fields(node):
    """(name, has default, in ``__init__``) of each field of a dataclass, in
    order; ``field(init=False)`` leaves a field out of ``__init__``."""
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            init = not (isinstance(stmt.value, ast.Call) and any(
                kw.arg == "init" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in stmt.value.keywords))
            yield stmt.target.id, stmt.value is not None, init


def _library_functions():
    """(module, call name, node, options) of each top-level function, each
    method of a top-level class and each dataclass but those in
    ``FREE_DEFAULTS``; ``options`` lists ``(option, positional index or
    None)``.  A class is called by its own name to reach ``__init__`` or its
    dataclass constructor, and a static method binds nothing."""
    for module, node in _dataclasses():
        if node.name not in FREE_DEFAULTS:
            init = [(name, default) for name, default, in_init in _fields(node) if in_init]
            yield module, node.name, node, [(name, i) for i, (name, default)
                                            in enumerate(init) if default]
    for path in sorted(LIBRARY.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, stmt.name, stmt, list(_options(stmt, 0))
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                     for dec in sub.decorator_list)
                        name = stmt.name if sub.name == "__init__" else sub.name
                        yield path.stem, name, sub, list(_options(sub, 0 if static else 1))


def test_every_option_is_set_by_a_program():
    calls = {}   # called name -> [ast.Call]
    for path in {*sorted(LIBRARY.glob("*.py")), *_program_paths()}:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)

    def passed(call, option, index):
        return (any(kw.arg in (option, None) for kw in call.keywords)
                or index is not None and (
                    len(call.args) > index
                    or any(isinstance(a, ast.Starred) for a in call.args)))

    options = {}   # "name(option)" -> [module.function (line)]
    unset = set()
    for module, name, node, node_options in _library_functions():
        for option, index in node_options:
            key = f"{name}({option})"
            options.setdefault(key, []).append(f"{module}.{node.name} (line {node.lineno})")
            if not any(passed(call, option, index) for call in calls.get(name, ())):
                unset.add(key)
    assert set(KEEP_OPTIONS) <= set(options), (
        f"not library options: {sorted(set(KEEP_OPTIONS) - set(options))}")
    assert not set(KEEP_OPTIONS) - unset, ("a program sets these; drop them from "
                                          f"KEEP_OPTIONS: {sorted(set(KEEP_OPTIONS) - unset)}")
    unset = sorted(f"{key} in {where}" for key in unset - set(KEEP_OPTIONS)
                   for where in options[key])
    assert not unset, ("only unit tests set these options; drop the option "
                       "or move its other path to tests/oracles.py: " + ", ".join(unset))


def test_every_field_is_read_by_a_program():
    read = set()
    for path in {*sorted(LIBRARY.glob("*.py")), *_program_paths()}:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = list(_dataclasses())
    exempt = set(WHOLE) | set(FREE_DEFAULTS)
    assert exempt <= {node.name for _, node in classes}, (
        f"not library dataclasses: {sorted(exempt - {node.name for _, node in classes})}")
    unread = sorted(f"{module}.{node.name}.{field} (line {node.lineno})"
                    for module, node in classes if node.name not in WHOLE
                    for field, _, _ in _fields(node) if field not in read)
    assert not unread, ("no program reads these fields; delete them with the "
                        "code that fills them: " + ", ".join(unread))


def test_every_parameter_is_read():
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                              *args.kwonlyargs, args.vararg,
                                              args.kwarg) if arg is not None]
                loaded = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                          if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                unread += [f"{path.stem}.{node.name}({param}) (line {node.lineno})"
                           for param in params if param not in loaded]
    assert not unread, ("these parameters are never read; drop them from the "
                        "function and its callers: " + ", ".join(unread))
