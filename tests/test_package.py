import ast
import importlib
import pkgutil
from pathlib import Path

import ncfem


# wc -l src/ncfem/*.py may not exceed this; a change that moves it records
# the move in CHANGES.md
SRC_LINE_BUDGET = 3259


def test_every_exported_name_resolves():
    """Each name in a module's __all__ exists, so a deleted function cannot
    linger in an export list, and each name ncfem/__init__.py takes from a
    module is in that module's __all__."""
    exporting = []
    for info in pkgutil.iter_modules(ncfem.__path__):
        module = importlib.import_module(f"ncfem.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ncfem.{info.name}.{name}"
        exporting += [info.name] * hasattr(module, "__all__")
    assert {"spaces", "solve", "estimators", "assembly"} <= set(exporting)
    init = ast.parse(Path(ncfem.__file__).read_text())
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"ncfem.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, \
                    f"ncfem.{node.module}.{alias.name}"


def test_src_stays_within_its_line_budget():
    """The package's size is a design aim: the same behaviour from less
    code.  Its line count may fall, but not rise past SRC_LINE_BUDGET."""
    paths = sorted(Path(ncfem.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    assert lines <= SRC_LINE_BUDGET, f"src/ncfem has {lines} lines"


def test_no_unoptimized_einsum_over_three_operands():
    """np.einsum without optimize= contracts all its operands in one loop over
    every index; five operands ran 20x slower than the same product as two
    contractions, and so do three: on the von Karman level of
    refine(unit_square, 7) einsum("ti,tij,tj->t") took 5.2 ms, against
    2.2 + 0.4 ms for einsum("tij,tj->ti") and a row dot.  So a call with
    three or more operands (or unpacked ones) must pass optimize= or be
    split into two-operand contractions."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and (len(node.args) > 3
                         or any(isinstance(a, ast.Starred) for a in node.args))
                    and not any(k.arg == "optimize" for k in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"unoptimized np.einsum over >= 3 operands: {offenders}"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _cross_module_names(tree):
    """(line, source module, name) for each name an ncfem module takes from
    another: `from .x import y` gives ("x", "y"), and so does a read m.y of a
    module alias bound by `from . import x as m` or `import ncfem.x as m`;
    the binding `from . import x` itself gives ("", "x")."""
    modules, refs = {}, []      # names bound to ncfem modules in this file
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("ncfem")):
            source = (node.module or "").removeprefix("ncfem").lstrip(".")
            for alias in node.names:
                refs.append((node.lineno, source, alias.name))
                if not source:                         # from . import mesh
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.removeprefix("ncfem."))
                           for alias in node.names
                           if alias.name.startswith("ncfem.") and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((node.lineno, modules[node.value.id], node.attr))
    return refs


def _package_sources():
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        yield path.name, _cross_module_names(ast.parse(path.read_text()))


def test_no_module_reaches_private_names_of_another():
    """No ncfem module imports or reads a _private name of another ncfem
    module: what a second module needs is public, and a private helper can
    change without looking beyond its own file."""
    offenders = [f"{name}:{line} {source}.{attr}"
                 for name, refs in _package_sources()
                 for line, source, attr in refs if _is_private(attr)]
    assert not offenders, f"private names of other ncfem modules: {offenders}"


def test_every_name_taken_from_another_module_is_exported():
    """Each name that one ncfem module imports or reads from another, and
    each name that ncfem/__init__.py re-exports, is in the source module's
    __all__, so __all__ lists all that the package uses of a module."""
    offenders = []
    for name, refs in _package_sources():
        for line, source, attr in refs:
            if source and attr not in getattr(
                    importlib.import_module(f"ncfem.{source}"), "__all__", ()):
                offenders.append(f"{name}:{line} {source}.{attr}")
    assert not offenders, f"names missing from their __all__: {offenders}"


# who may call each level builder: an Assembler is one level, built once per
# mesh by the level driver or a CLI command and handed down from there
LEVEL_OWNERS = {"afem.py", "cli.py"}
LEVEL_BUILDERS = {
    "assembler": LEVEL_OWNERS,
    "Assembler": LEVEL_OWNERS | {"assembly.py"},   # assembler() calls it
    "basis_tables": {"assembly.py"},
    "build_dofmap": {"assembly.py"},
}


def test_only_the_level_owners_build_a_level():
    """Solvers, estimators and transfers take the level's Assembler and read
    its dof map and tables; they never look a level up or rebuild it."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in LEVEL_BUILDERS and path.name not in LEVEL_BUILDERS[name]:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, f"level built outside its owners: {offenders}"


SCIPY_KRYLOV = {"gmres", "lgmres", "bicgstab"}


def _nodes_by_function(tree):
    """(enclosing function name or None, node) for every node below the
    function definitions."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                yield owner, child
                yield from visit(child, owner)
    return visit(tree, None)


def _calls_by_function(tree):
    """(enclosing function name or None, Call node) for every call."""
    return ((owner, node) for owner, node in _nodes_by_function(tree)
            if isinstance(node, ast.Call))


def _called_name(node):
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


# the level steps that only the level driver runs: uniform studies, adaptive
# runs and `ncfem solve` all solve, estimate and measure a level through it
DRIVER_STEPS = {"newton_solve", "estimate", "broken_energy_error"}


def test_only_the_level_driver_solves_estimates_and_measures():
    """newton_solve, estimate and broken_energy_error are called in ncfem
    only by afem._run_levels."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for owner, node in _calls_by_function(ast.parse(path.read_text())):
            name = _called_name(node)
            if name in DRIVER_STEPS and (path.name, owner) != ("afem.py",
                                                               "_run_levels"):
                offenders.append(f"{path.name}:{node.lineno} {name} in {owner}")
    assert not offenders, f"level steps off the driver: {offenders}"


def test_the_cli_sets_up_a_level_only_for_infsup_and_verify():
    """In cli.py only _cmd_infsup and _verify_checks call assembler: every
    other command runs its levels through the level driver."""
    path = Path(ncfem.__file__).parent / "cli.py"
    offenders = [f"cli.py:{node.lineno} in {owner}"
                 for owner, node in _calls_by_function(ast.parse(path.read_text()))
                 if _called_name(node) == "assembler"
                 and owner not in ("_cmd_infsup", "_verify_checks")]
    assert not offenders, f"assembler called off infsup and verify: {offenders}"


def test_one_entry_point_per_linear_solve_path():
    """Direct Jacobian solves go through solve.sparse_solve, the only caller
    of spla.spsolve, and Krylov solves through solve._gram_gmres: no module
    uses scipy's gmres, lgmres or bicgstab, whose stopping tests take
    Euclidean norms of the unpreconditioned residual."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for owner, node in _calls_by_function(tree):
            name = _called_name(node)
            if name == "spsolve" and (path.name, owner) != ("solve.py",
                                                            "sparse_solve"):
                offenders.append(f"{path.name}:{node.lineno} spsolve in {owner}")
        for node in ast.walk(tree):
            used = ({node.attr} if isinstance(node, ast.Attribute)
                    else {node.id} if isinstance(node, ast.Name)
                    else {a.name for a in node.names}
                    if isinstance(node, ast.ImportFrom) else set())
            for name in used & SCIPY_KRYLOV:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, f"linear solves off their entry points: {offenders}"


# the callers each private factorization helper of solve.py may have, so
# that the minimum-degree order, relax=1, the power-of-two scaling and the
# heap trim each keep one entry point
FACTOR_CALLERS = {"splu": {"_splu"}, "_equilibrate": {"sparse_solve", "_infsup"},
                  "_release_free_heap": {"_splu", "sparse_solve"}}


def test_one_entry_point_per_factorization():
    """spla.splu is called only inside solve._splu, solve._equilibrate only
    by sparse_solve and the inf-sup routine _infsup, and the heap trim only
    by the two SuperLU entry points, _splu and sparse_solve."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for owner, node in _calls_by_function(ast.parse(path.read_text())):
            name = _called_name(node)
            if name in FACTOR_CALLERS and not (
                    path.name == "solve.py" and owner in FACTOR_CALLERS[name]):
                offenders.append(f"{path.name}:{node.lineno} {name} in {owner}")
    assert not offenders, f"factorizations off their entry points: {offenders}"


# the element tensors of Gamma (Navier-Stokes S and tr H, von Karman Br and
# IV) and the Assembler methods that may read them
GAMMA_TENSORS = {"S", "trH", "Br", "IV"}
GAMMA_READERS = {"_init_morley", "gamma_gradient", "_linearization"}


def test_one_gamma_kernel_per_problem():
    """Each Gamma is written out once, in Assembler.gamma_gradient; the
    residual and gamma_ns_value / gamma_vk_value contract it.  Besides, only
    _linearization reads the tensors: it hands the element factors of J(U)
    to both jacobian and jacobian_operator."""
    tree = ast.parse((Path(ncfem.__file__).parent / "assembly.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Assembler"]
    offenders = []
    for method in cls.body:
        if (not isinstance(method, ast.FunctionDef)
                or method.name in GAMMA_READERS):
            continue
        for node in ast.walk(method):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr in GAMMA_TENSORS):
                offenders.append(f"assembly.py:{node.lineno} self.{node.attr} "
                                 f"in {method.name}")
    assert not offenders, f"Gamma written out outside gamma_gradient: {offenders}"


# the only functools caches in src/ncfem, by (file, function), with the
# maxsize each must declare.  A module cache pins what it returns for as long
# as the process lives, so none may hold a level: the level driver and the
# CLI own every level.  assembler and basis_tables are lru_cache(maxsize=0),
# which caches nothing, only because the benchmark traces them and reads
# their cache_info(); they go with ROADMAP item 3, once item 1 drops those
# spans.  problems._build holds small problem specs that set-up reuses.
ALLOWED_CACHES = {("assembly.py", "assembler"): 0,
                  ("spaces.py", "basis_tables"): 0,
                  ("problems.py", "_build"): None}
CACHE_NAMES = {"lru_cache", "cache", "cached_property"}


def _cache_name(node):
    """The functools cache that node names (lru_cache, functools.cache,
    lru_cache(maxsize=1), ...), or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name) and node.id in CACHE_NAMES - {"cache"}:
        return node.id
    if (isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "functools"):
        return node.attr
    return None


def _maxsize(dec):
    """The maxsize that an lru_cache(maxsize=...) decorator declares, or
    "unset" for any other form."""
    if isinstance(dec, ast.Call) and not dec.args:
        for kw in dec.keywords:
            if kw.arg == "maxsize":
                return ast.literal_eval(kw.value)
    return "unset"


def test_no_new_module_cache_pins_a_level():
    """functools caches decorate only the functions in ALLOWED_CACHES, each
    as lru_cache(maxsize=<its entry>), and no module applies one any other
    way."""
    allowed_nodes, found, offenders = set(), {}, []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _cache_name(dec) is not None:
                        found[(path.name, node.name)] = _maxsize(dec)
                        allowed_nodes.update(id(n) for n in ast.walk(dec))
        for node in ast.walk(tree):
            if id(node) not in allowed_nodes and _cache_name(node) is not None:
                offenders.append(f"{path.name}:{node.lineno}")
    offenders += [f"{f}: {name} maxsize={size}"
                  for (f, name), size in sorted(found.items())
                  if ALLOWED_CACHES.get((f, name), "off the list") != size]
    assert not offenders, f"module caches off the allowed list: {offenders}"


def test_the_cli_names_registry_problems_only_in_verify():
    """No string constant of cli.py but those in _verify_checks, which runs
    its identities on fixed problems, is a registry name: a problem without
    an exact solution is one more registry entry, not a special case of the
    command line."""
    from ncfem.problems import registry_names

    path = Path(ncfem.__file__).parent / "cli.py"
    offenders = [f"cli.py:{node.lineno} {node.value!r} in {owner}"
                 for owner, node in _nodes_by_function(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant)
                 and node.value in registry_names()
                 and owner != "_verify_checks"]
    assert not offenders, f"registry names in cli.py: {offenders}"


# the dense inverses and solves allowed in src/ncfem, by (file, outermost
# class or function): none.  grad lambda and the P1 mass inverse of osc_1
# are closed forms
DENSE_SOLVERS = {"inv", "solve"}
DENSE_SOLVE_OWNERS = set()


def test_dense_inverses_stay_in_their_owners():
    """np.linalg.inv and np.linalg.solve appear only in DENSE_SOLVE_OWNERS,
    so no per-element inverse comes back: the barycentric gradients, the
    Morley basis and the P1 fit of osc_1 are closed forms."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and node.attr in DENSE_SOLVERS
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg"
                        and (path.name, owner) not in DENSE_SOLVE_OWNERS):
                    offenders.append(f"{path.name}:{node.lineno} "
                                     f"linalg.{node.attr} in {owner}")
    assert not offenders, f"dense inverses off their owners: {offenders}"


# the callers of the global dof numbering spaces.element_dofs, by (file,
# function): the dof map reads it once to build its slots, and verify
# indexes full, unconstrained dof vectors with it
ELEMENT_DOFS_CALLERS = {("spaces.py", "build_dofmap"),
                        ("cli.py", "_verify_checks")}


def test_only_the_dof_map_and_verify_read_element_dofs():
    """element_dofs(...) is called in src/ncfem only by ELEMENT_DOFS_CALLERS,
    and no module reads an .element_dofs attribute: every other reader takes
    coefficients through DofMap.slots (by local_coefficients and the
    scatters), so none rebuilds a free index from the global numbering."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for owner, node in _nodes_by_function(ast.parse(path.read_text())):
            called = (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "element_dofs")
            if ((called and (path.name, owner) not in ELEMENT_DOFS_CALLERS)
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "element_dofs")):
                offenders.append(f"{path.name}:{node.lineno} in {owner}")
    assert not offenders, f"element_dofs read off its owners: {offenders}"


def test_only_dof_values_takes_edge_means_by_quadrature():
    """quad_edge is called in src/ncfem only by interpolation.dof_values, the
    one producer of dof values, and the edge point helper is private: every
    estimator edge term is a closed form, so no other module knows an edge
    rule."""
    import ncfem.interpolation

    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for owner, call in _calls_by_function(ast.parse(path.read_text())):
            if (_called_name(call) == "quad_edge"
                    and (path.name, owner) != ("interpolation.py", "dof_values")):
                offenders.append(f"{path.name}:{call.lineno} in {owner}")
    assert not offenders, f"edge quadrature off dof_values: {offenders}"
    assert "edge_points" not in ncfem.interpolation.__all__


# the whole-mesh point makers, called only in spaces.py and, to sample the
# basis, by the one BASIS_EVALUATORS entry below; the calls that sample a
# Field (value, gradient, hessian) or a datum of the problem (its loads and
# coefficients); and the modules, or (module, function), that must take
# every such sample at the points of an element_blocks loop
WHOLE_MESH_POINTS = {"volume_quadrature", "physical_points"}
WHOLE_MESH_POINT_CALLERS = {("solve.py", "discrete_embedding_ratio")}
SAMPLERS = {"value", "gradient", "hessian", "f", "g", "A", "b", "gamma"}
BLOCK_SAMPLED = [("assembly.py", None), ("cli.py", "_verify_checks"),
                 ("estimators.py", None)]


def _block_sampling_offenders(tree):
    """(line, name) of each sampler call in tree whose first argument is not
    the points of an enclosing `for sl, xq, wdx in element_blocks(...)`
    loop."""
    offenders = []

    def visit(node, points):
        for child in ast.iter_child_nodes(node):
            inner = points
            if (isinstance(child, ast.For) and isinstance(child.iter, ast.Call)
                    and _called_name(child.iter) == "element_blocks"
                    and isinstance(child.target, ast.Tuple)
                    and isinstance(child.target.elts[1], ast.Name)):
                inner = points | {child.target.elts[1].id}
            elif isinstance(child, ast.Call):
                name = _called_name(child)
                arg = child.args[0] if child.args else None
                if name in SAMPLERS and not (isinstance(arg, ast.Name)
                                             and arg.id in points):
                    offenders.append((child.lineno, name))
            visit(child, inner)
    visit(tree, frozenset())
    return offenders


def test_the_estimators_sample_in_element_blocks():
    """No module but spaces.py builds whole-mesh volume points, save the
    basis sampling of WHOLE_MESH_POINT_CALLERS, and the level set-up, the
    estimators and verify's identity checks sample every Field and datum at
    the points of an element_blocks loop: only their per-element and
    (nt, nq) outputs grow with nt, never an (nt, nq, ...) temporary."""
    src = Path(ncfem.__file__).parent
    whole = [f"{path.name}:{call.lineno} in {owner}"
             for path in sorted(src.glob("*.py")) if path.name != "spaces.py"
             for owner, call in _calls_by_function(ast.parse(path.read_text()))
             if _called_name(call) in WHOLE_MESH_POINTS
             and (path.name, owner) not in WHOLE_MESH_POINT_CALLERS]
    assert not whole, f"whole-mesh volume points: {whole}"
    assert WHOLE_MESH_POINT_CALLERS <= BASIS_EVALUATORS
    assert not hasattr(ncfem.spaces, "volume_quadrature")
    offenders = []
    for name, owner in BLOCK_SAMPLED:
        tree = ast.parse((src / name).read_text())
        if owner is not None:
            tree, = (node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == owner)
        offenders += [f"{name}:{line} {call}"
                      for line, call in _block_sampling_offenders(tree)]
    assert not offenders, f"sampled off element blocks: {offenders}"
    # the lint sees a sample outside its block loop, and one at other points
    assert _block_sampling_offenders(ast.parse(
        "u.value(xq)\nfor sl, pts, w in element_blocks(mesh, 6):\n"
        "    u.gradient(pts)\n    p.A(xq)\nproblem.f(pts)\n")) == [
            (1, "value"), (4, "A"), (5, "f")]


def test_int32_only_in_the_coo_scatter():
    """np.int32 appears in src/ncfem only in assembly._scatter_matrix, which
    casts the slots once for its COO indices: the gathers and bincount
    scatters read intp slots, on numpy's fast indexing path."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for owner, node in _nodes_by_function(ast.parse(path.read_text())):
            int32 = ((isinstance(node, ast.Attribute) and node.attr == "int32")
                     or (isinstance(node, ast.Constant) and node.value == "int32"))
            if int32 and (path.name, owner) != ("assembly.py", "_scatter_matrix"):
                offenders.append(f"{path.name}:{node.lineno} in {owner}")
    assert not offenders, f"int32 off the COO scatter: {offenders}"


# the callers of the basis tables' values_at and grads_at, by (file,
# function), besides spaces.py, which defines the basis: verify checks its
# dof duality and discrete_embedding_ratio samples it at points.  The level
# kernels and the estimators are closed forms in grad lambda and B
BASIS_EVALUATORS = {("cli.py", "_verify_checks"),
                    ("solve.py", "discrete_embedding_ratio")}


def test_level_kernels_build_no_basis_value_table():
    """values_at and grads_at are called in src/ncfem only by spaces.py and
    BASIS_EVALUATORS, so no (nt, nq, 6) basis table comes back into
    assembly, the estimators or the transfer."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        if path.name == "spaces.py":
            continue
        for owner, call in _calls_by_function(ast.parse(path.read_text())):
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if (name in ("values_at", "grads_at")
                    and (path.name, owner) not in BASIS_EVALUATORS):
                offenders.append(f"{path.name}:{call.lineno} {name} in {owner}")
    assert not offenders, f"basis tables evaluated off their owners: {offenders}"
