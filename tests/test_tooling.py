"""Source checks that read the package with ``ast`` rather than run it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fptmix"
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: Path) -> list[str]:
    """``os.environ``/``os.getenv`` uses and ``from os import`` of either, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in ENV_READERS for alias in node.names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_cli_reads_the_environment():
    """A library module that reads the environment changes what a solver
    does behind its arguments' back, as ``FPTMIX_BUDGET`` once changed the
    separators every DP built."""
    modules = sorted(SRC.glob("*.py"))
    assert _env_reads(SRC / "cli.py"), "the scan no longer sees cli's FPTMIX_BUDGET read"
    assert [read for path in modules if path.name != "cli.py" for read in _env_reads(path)] == []


def _package_imports(path: Path) -> set[str]:
    """The ``fptmix`` modules ``path`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:  # from . import x / from .x import y
                found.update([module] if module else [alias.name for alias in node.names])
            elif module == "fptmix":
                found.update(alias.name for alias in node.names)
            elif module.startswith("fptmix."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fptmix."))
    return found


def test_oracles_import_only_core():
    """The oracles are the independent check on every solver, so they may
    share the instance types in ``core`` and nothing else."""
    imports = _package_imports(SRC / "oracles.py")
    assert "core" in imports, "the scan no longer sees the oracles' core import"
    assert imports == {"core"}


CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
                   "deque"}
CONTAINER_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
READ_METHODS = {"get", "items", "keys", "values", "copy", "count", "index"}
READ_CALLS = {"len", "list", "tuple", "sorted", "iter", "enumerate", "zip", "min", "max", "any",
              "all", "frozenset"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _callee(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _module_containers(tree) -> set[str]:
    """Names a module binds at its top level to a dict, list or set display,
    a comprehension or a container constructor."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, CONTAINER_DISPLAYS) or \
                    (isinstance(value, ast.Call) and _callee(value) in CONTAINER_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


def _aliases(tree) -> dict[str, tuple]:
    """Local name -> ("module", m) for an imported fptmix module, or
    ("name", m, x) for a name imported from one."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                for alias in node.names:
                    out[alias.asname or alias.name] = ("name", module, alias.name)
            elif (node.level == 1 and not module) or module == "fptmix":
                for alias in node.names:
                    out[alias.asname or alias.name] = ("module", alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fptmix.") and alias.asname:
                    out[alias.asname] = ("module", alias.name.split(".")[1])
    return out


def _mutated_module_state() -> tuple[set, set]:
    """The module-level containers, and those the package writes to or
    hands to a call that could: a subscript store or delete, an augmented
    assignment, a method other than a read, an argument to any call but a
    read-only builtin, or a ``global`` rebinding."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    containers = {(m, x) for m, tree in trees.items() for x in _module_containers(tree)}
    written = set()
    for m, tree in trees.items():
        aliases = _aliases(tree)
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                written.update((m, x) for x in node.names if (m, x) in containers)
                continue
            if isinstance(node, ast.Name):
                bound = aliases.get(node.id, ())
                ref = (bound[1], bound[2]) if bound[:1] == ("name",) else (m, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                    aliases.get(node.value.id, ())[:1] == ("module",):
                ref = (aliases[node.value.id][1], node.attr)
            else:
                continue
            if ref not in containers:
                continue
            up = parent.get(node)
            if isinstance(up, ast.Subscript) and up.value is node and \
                    isinstance(up.ctx, (ast.Store, ast.Del)):
                written.add(ref)
            elif isinstance(up, ast.AugAssign) and up.target is node:
                written.add(ref)
            elif isinstance(up, ast.Attribute) and isinstance(parent.get(up), ast.Call) and \
                    parent[up].func is up and up.attr not in READ_METHODS:
                written.add(ref)
            elif isinstance(up, (ast.Call, ast.keyword)):
                call = up if isinstance(up, ast.Call) else parent[up]
                if call.func is not node and _callee(call) not in READ_CALLS:
                    written.add(ref)
    return containers, written


def test_only_the_separator_caches_are_mutable_module_state():
    """Global state stays bounded: the only module-level container the
    package mutates is the size-capped separator cache of ``repsets``.
    The other module-level dicts (the reference tables, the CLI's lookup
    tables) are only read."""
    containers, written = _mutated_module_state()
    assert {("bounds", "REFERENCE_TABLE1"), ("cli", "_TRACE_FIELDS")} <= containers, \
        "the scan no longer sees the read-only tables"
    assert written == {("repsets", "_separator_cache")}


def _caches(tree, top_level_only: bool) -> list[int]:
    """Lines of functions decorated with ``cache``/``lru_cache``, at module
    level and in module-level classes, or anywhere; and of module-level
    assignments that wrap a function in one."""
    if top_level_only:
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [item for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)]
        wraps = [node.lineno for node in tree.body if isinstance(node, ast.Assign) and
                 isinstance(node.value, ast.Call) and
                 (_callee(node.value) in CACHE_DECORATORS or
                  _callee(node.value.func) in CACHE_DECORATORS)]
    else:
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        wraps = []
    return [node.lineno for node in defs
            if any(_callee(d) in CACHE_DECORATORS for d in node.decorator_list)] + wraps


def test_no_module_level_function_cache():
    """A module-level ``functools.cache`` or ``lru_cache`` lives as long as
    the process and holds every argument and result; per-call caches on
    nested functions end with their call."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _caches(trees["kpath.py"], top_level_only=False), \
        "the scan no longer sees kpath's per-call parts cache"
    assert {name: lines for name, tree in trees.items()
            if (lines := _caches(tree, top_level_only=True))} == {}


def test_no_assert_in_src():
    """``python -O`` strips ``assert`` statements, so a check that matters
    raises an error of its own: ``src/fptmix`` holds no ``assert``."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10, "the scan no longer sees the package"
    assert [f"{path.name}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)] == []


ROOT = SRC.parent.parent
# oracles.py stays whole, independent of the solvers, and several of its
# enumeration budgets are never passed
KNOB_EXEMPT = {"oracles.py"}


def _defaulted_parameters(tree) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position among the call's arguments or None
    for keyword-only) of every parameter with a default; a leading ``self``
    or ``cls`` takes no call argument."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            for i in range(len(positional) - len(args.defaults), len(positional)):
                found.append((node.name, positional[i].arg, i - bound))
            found.extend((node.name, arg.arg, None)
                         for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None)
    return found


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """The call names ``parameter``, unpacks ``**kwargs``, or reaches its
    position with its positional arguments (``*args`` reaches every one)."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position or
                                     any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default no caller overrides is a constant dressed as an option:
    every parameter with a default in ``src/fptmix`` is passed by at least
    one call, matched by function name, in ``src``, ``tests`` or
    ``perfbench``."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (name := _callee(node)):
                calls.setdefault(name, []).append(node)
    unpassed = []
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name in KNOB_EXEMPT:
            continue
        for function, parameter, position in \
                _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8"))):
            checked += 1
            if not any(_passes(call, parameter, position) for call in calls.get(function, ())):
                unpassed.append(f"{path.name}:{function}({parameter})")
    assert checked > 40, "the scan no longer sees the defaulted parameters"
    assert unpassed == []


def test_every_private_helper_is_referenced():
    """A module-level ``_`` function or class that nothing in the package
    names outside its own definition is dead code, or a test helper kept in
    the library: only the package can reach it by intent."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    where: dict[str, set[int]] = {}  # name -> the top-level statements naming it
    for tree in trees:
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    where.setdefault(_callee(node), set()).add(id(stmt))
    assert len(helpers) > 50, "the scan no longer sees the private helpers"
    assert [node.name for node in helpers if not where.get(node.name, set()) - {id(node)}] == []


UNIVERSE_TYPES = {"OrderedUniverse", "WeightedSetFamily"}
DPS = {"kpath": "solve_kcwp", "kiob": "tree_families", "p2pack": "icp_pro1", "wsp": "_pack_stages"}


def _universe_builds(module: str, function: str | None = None,
                     types=UNIVERSE_TYPES) -> list[str]:
    """Calls inside ``module.function``, nested functions included, or
    anywhere in ``module`` for None, whose callee names one of ``types``
    (so ``OrderedUniverse.from_labels`` too), by line."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    (node,) = [tree] if function is None else \
        [stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and stmt.name == function]
    where = module if function is None else f"{module}.{function}"
    return [f"{where}:{call.lineno}" for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and any(_callee(part) in types for part in ast.walk(call.func))]


def test_the_dps_build_no_universe():
    """Each part lists its elements in its separator's local-position order,
    so no DP needs a universe to order them, nor a family to hand back."""
    assert _universe_builds("core", "_parse_setfamily"), \
        "the scan no longer sees the parser's universe and family"
    assert [site for module, function in DPS.items()
            for site in _universe_builds(module, function)] == []


def test_only_core_builds_an_ordered_universe():
    """Parsing builds the one ``OrderedUniverse`` of an instance.  Below it a
    cut's order is a rank tuple, a separator is built by its part's shape and
    a footprint is a bitmask, so no other module builds one."""
    only = frozenset({"OrderedUniverse"})
    assert _universe_builds("core", "_parse_setfamily", only), \
        "the scan no longer sees the parser's universe"
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert len(modules) > 10, "the scan no longer sees the package"
    assert [site for module in modules if module != "core"
            for site in _universe_builds(module, types=only)] == []
