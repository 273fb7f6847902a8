"""The benchmark's workloads: the CLI argv of each, the manufactured problems
its set-up builds, and the mesh file that `mesh_input` reads.

Every workload except `mesh_input` runs the paper's fixed inputs, whatever the
seed: those are the inputs whose outputs the reference pins.  The seed picks
the vertex jitter of the `mesh_input` file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 78 x 78 cells, two triangles each: 12168 triangles.
MESH_CELLS = 78
MESH_JITTER = 0.1   # largest vertex displacement, as a share of the cell width
MESH_FILE = "mesh_input.msh"


@dataclass(frozen=True)
class Workload:
    problems: tuple        # manufactured problems built during set-up
    commands: tuple        # CLI argv lists, run in order; "{mesh}", "{out}" filled in


WORKLOADS = {
    "afem_lshape": Workload(
        problems=(),
        commands=(
            ("afem", "--problem", "ns_unit_load", "--domain", "l_shape",
             "--theta", "0.5", "--max-free-dofs", "50000", "--out", "{out}"),
        ),
    ),
    # the study argv of scripts/ns_convergence.py, vk_convergence.py and the
    # study half of cr_convergence.py: the paper's three convergence tables
    "uniform_studies": Workload(
        problems=("ns_poly", "vk_poly", "cr_sine"),
        commands=(
            ("study", "--problem", "ns_poly", "--levels", "6",
             "--base-refinements", "1", "--out", "{out}"),
            ("study", "--problem", "vk_poly", "--levels", "6",
             "--base-refinements", "1", "--out", "{out}"),
            ("study", "--problem", "cr_sine", "--levels", "8", "--out", "{out}"),
        ),
    ),
    # one Kantorovich report on each side of solve.DENSE_CAP (3969 and 1922
    # dofs) plus the infsup half of scripts/cr_convergence.py (176..12160 dofs)
    "diagnostics": Workload(
        problems=("ns_poly", "vk_poly", "cr_sine"),
        commands=(
            ("solve", "--problem", "ns_poly", "--levels", "6", "--out", "{out}"),
            ("solve", "--problem", "vk_poly", "--levels", "5", "--out", "{out}"),
            ("infsup", "--problem", "cr_sine", "--levels", "4",
             "--base-refinements", "3", "--out", "{out}"),
        ),
    ),
    "mesh_input": Workload(
        problems=("cr_sine",),
        commands=(
            ("study", "--problem", "cr_sine", "--domain", "{mesh}",
             "--levels", "2", "--out", "{out}"),
        ),
    ),
}


def argv(command, mesh_path, out_dir):
    return [str(a).format(mesh=mesh_path, out=out_dir) for a in command]


def write_mesh_file(path, seed: int, cells: int = MESH_CELLS,
                    jitter: float = MESH_JITTER):
    """Unit-square grid of 2 cells^2 triangles in the plain mesh-file format.
    Each interior vertex moves by at most jitter * h in a direction and by a
    distance drawn from `seed`; the topology does not depend on the seed."""
    rng = np.random.default_rng(seed)
    h = 1.0 / cells
    g = np.linspace(0.0, 1.0, cells + 1)
    x, y = (a.ravel() for a in np.meshgrid(g, g, indexing="xy"))
    interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
    k = int(interior.sum())
    radius = jitter * h * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    x[interior] += radius * np.cos(angle)
    y[interior] += radius * np.sin(angle)
    i, j = np.meshgrid(np.arange(cells), np.arange(cells), indexing="xy")
    v00 = (j * (cells + 1) + i).ravel()
    v10, v01 = v00 + 1, v00 + cells + 1
    v11 = v01 + 1
    tris = np.concatenate([np.stack([v00, v10, v11], axis=1),
                           np.stack([v00, v11, v01], axis=1)])
    with open(path, "w") as fh:
        fh.write(f"{len(x)} {len(tris)}\n")
        fh.writelines(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        fh.writelines(f"{a} {b} {c}\n" for a, b, c in tris.tolist())
