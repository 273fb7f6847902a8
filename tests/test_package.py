import ast
import importlib
import pkgutil
from pathlib import Path

import ncfem


def test_every_exported_name_resolves():
    """Each name in a module's __all__ exists, so a deleted function cannot
    linger in an export list."""
    exporting = []
    for info in pkgutil.iter_modules(ncfem.__path__):
        module = importlib.import_module(f"ncfem.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ncfem.{info.name}.{name}"
        exporting += [info.name] * hasattr(module, "__all__")
    assert {"spaces", "solve", "estimators", "assembly"} <= set(exporting)


def test_no_unoptimized_einsum_over_three_operands():
    """np.einsum without optimize= contracts all its operands in one loop over
    every index; five operands ran 20x slower than the same product as two
    contractions, while two or three operands run within 15% of matmul.  So a
    call with more than three operands (or unpacked ones) must pass optimize=
    or be split."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and (len(node.args) > 4
                         or any(isinstance(a, ast.Starred) for a in node.args))
                    and not any(k.arg == "optimize" for k in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"unoptimized np.einsum over > 3 operands: {offenders}"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reaches_private_names_of_another():
    """No ncfem module imports or reads a _private name of another ncfem
    module: what a second module needs is public, and a private helper can
    change without looking beyond its own file."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()       # names bound to ncfem modules in this file
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("ncfem")):
                for alias in node.names:
                    if _is_private(alias.name):
                        offenders.append(f"{path.name}:{node.lineno} {alias.name}")
                    elif node.module in (None, "ncfem"):   # from . import mesh
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.name.startswith("ncfem.") and alias.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                offenders.append(f"{path.name}:{node.lineno} "
                                 f"{node.value.id}.{node.attr}")
    assert not offenders, f"private names of other ncfem modules: {offenders}"


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
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name in LEVEL_BUILDERS and path.name not in LEVEL_BUILDERS[name]:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, f"level built outside its owners: {offenders}"


SCIPY_KRYLOV = {"gmres", "lgmres", "bicgstab"}


def _calls_by_function(tree):
    """(enclosing function name or None, Call node) for every call."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield owner, child
                yield from visit(child, owner)
    return visit(tree, None)


def test_one_entry_point_per_linear_solve_path():
    """Direct Jacobian solves go through solve.sparse_solve, the only caller
    of spla.spsolve, and Krylov solves through solve._gram_gmres: no module
    uses scipy's gmres, lgmres or bicgstab, whose stopping tests take
    Euclidean norms of the unpreconditioned residual."""
    offenders = []
    for path in sorted(Path(ncfem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for owner, node in _calls_by_function(tree):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
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


# the element tensors of Gamma (Navier-Stokes S and tr H, von Karman Br and
# IV) and the Assembler methods that may read them
GAMMA_TENSORS = {"S", "trH", "Br", "IV"}
GAMMA_READERS = {"_init_morley", "gamma_gradient", "jacobian"}


def test_one_gamma_kernel_per_problem():
    """Each Gamma is written out once, in Assembler.gamma_gradient; the
    residual and gamma_ns_value / gamma_vk_value contract it, and only the
    Jacobian, which needs element matrices, reads the tensors besides."""
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
