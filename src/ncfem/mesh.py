"""Conforming triangulations with newest-vertex bisection (NVB).

A Triangulation holds vertices, counterclockwise triangles, one refinement
edge per triangle (local edge k is opposite local vertex k) and the edge
tables derived from them.  It is immutable and safe to read concurrently;
`bisect` returns a new mesh.

Mesh file format: 'nv nt', then nv rows 'x y', then nt rows 'i j k [r]',
the refinement edge r in {0, 1, 2} on every triangle row or on none.  Its
fields are ASCII decimals, separated by spaces and tabs: x and y are
[+-]d[.[d]] or [+-].d, either with an optional (e|E)[+-]d (d: one or more
digits); nv, nt, i, j, k and r are [+-]d below 10^15 in magnitude.  '#'
starts a comment; blank lines are skipped; lines end in LF or CR LF.
Any other field is an error that names its line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

__all__ = [
    "Triangulation", "MeshGeometry", "build_from_arrays", "bisect", "refine",
    "uniform_refine", "geometry", "builtin_domain", "read_mesh", "write_mesh",
]


@dataclass(frozen=True, eq=False)
class Triangulation:
    vertices: np.ndarray          # (nv, 2) float
    triangles: np.ndarray         # (nt, 3) int, counterclockwise
    ref_edge: np.ndarray          # (nt,) int in {0,1,2}, local edge index
    edges: np.ndarray             # (ne, 2) int, sorted pairs, lexicographic
    edge_of_triangle: np.ndarray  # (nt, 3) int, local edge k = (k+1, k+2) mod 3
    triangles_of_edge: np.ndarray  # (ne, 2) int, lower-indexed triangle first, -1 if none
    boundary_edge: np.ndarray     # (ne,) bool
    boundary_vertex: np.ndarray   # (nv,) bool
    parent: np.ndarray | None = field(default=None)  # (nt,) int into source mesh
    # MeshGeometry, set by the first geometry(mesh) call
    _geometry: MeshGeometry | None = field(default=None, init=False, repr=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)


class MeshGeometry:
    """Per-triangle geometry, and per-edge geometry built on the first read
    of h_E, nu_E or tau_E.  It keeps the mesh's arrays, never the mesh, so
    that reference counting alone frees a mesh."""

    def __init__(self, mesh):
        lengths = _edge_lengths_local(mesh.vertices, mesh.triangles)
        self.h_T = lengths.max(axis=1)          # (nt,) longest edge
        self.area = _signed_area(mesh.vertices, mesh.triangles)   # (nt,)
        self.h_max = float(self.h_T.max())
        for arr in (self.h_T, self.area):
            arr.setflags(write=False)
        # the arguments of _edge_fields, then its result: one attribute, so
        # that a concurrent reader sees the one or the other
        self._edges = (mesh.vertices, mesh.triangles, mesh.edges,
                       mesh.triangles_of_edge)

    def _edge(self, k):
        edges = self._edges
        if len(edges) == 4:
            edges = self._edges = _edge_fields(*edges)
        return edges[k]

    h_E = property(lambda self: self._edge(0), doc="(ne,) edge length")
    nu_E = property(lambda self: self._edge(1), doc="(ne, 2) unit normal, "
                    "from the lower- to the higher-indexed triangle")
    tau_E = property(lambda self: self._edge(2), doc="(ne, 2) unit tangent, "
                     "nu rotated by +90 degrees")


def _edge_fields(vertices, triangles, edges, triangles_of_edge):
    """The read-only (h_E, nu_E, tau_E) of MeshGeometry (see geometry)."""
    a = vertices[edges[:, 0]]
    b = vertices[edges[:, 1]]
    vec = b - a
    h_E = np.linalg.norm(vec, axis=1)
    nu = np.stack([vec[:, 1], -vec[:, 0]], axis=1) / h_E[:, None]

    centroids = vertices[triangles].mean(axis=1)
    mids = 0.5 * (a + b)
    from_tri = triangles_of_edge[:, 0]
    flip = np.einsum("ij,ij->i", nu, mids - centroids[from_tri]) < 0
    nu[flip] *= -1.0
    tau = np.stack([-nu[:, 1], nu[:, 0]], axis=1)
    for arr in (h_E, nu, tau):
        arr.setflags(write=False)
    return h_E, nu, tau


def _signed_area(vertices, triangles):
    p = vertices[triangles]
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def _edge_lengths_local(vertices, triangles):
    """Lengths of local edges 0,1,2 (edge k opposite vertex k), shape (nt, 3)."""
    p = vertices[triangles]
    out = np.empty((len(triangles), 3))
    for k in range(3):
        out[:, k] = np.linalg.norm(p[:, (k + 2) % 3] - p[:, (k + 1) % 3], axis=1)
    return out


def _unique_edges(nv, triangles):
    """Sorted vertex pairs of all edges in lexicographic order, and the (nt, 3)
    map from local edge k = (k+1, k+2) mod 3 to its row."""
    pairs = np.sort(triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
    # i * nv + j orders sorted pairs (i, j) lexicographically
    keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    return edges, inverse.reshape(len(triangles), 3)


def _build_edge_tables(nv, triangles):
    edges, edge_of_triangle = _unique_edges(nv, triangles)
    count = np.bincount(edge_of_triangle.ravel(), minlength=len(edges))
    if count.max(initial=0) > 2:
        raise ValueError("non-conforming input: an edge is shared by more than 2 triangles")

    # the stable sort lists the triangles of each edge in ascending order
    owner = np.argsort(edge_of_triangle.ravel(), kind="stable") // 3
    first = np.cumsum(count) - count
    triangles_of_edge = np.full((len(edges), 2), -1, dtype=np.int64)
    triangles_of_edge[:, 0] = owner[first]
    interior = count == 2
    triangles_of_edge[interior, 1] = owner[first[interior] + 1]

    boundary_edge = count == 1
    boundary_vertex = np.zeros(nv, dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True
    return edges, edge_of_triangle, triangles_of_edge, boundary_edge, boundary_vertex


def _finalize(vertices, triangles, ref_edge, parent=None):
    tables = _build_edge_tables(len(vertices), triangles)
    mesh = Triangulation(vertices, triangles, ref_edge, *tables, parent=parent)
    assert (_signed_area(vertices, triangles) > 0).all()
    return mesh


# candidate (edge, vertex) pairs per batch; a batch holds fewer than
# _PAIRS_PER_BATCH + nv of them, so _hanging_node_check needs O(nv + ne) memory
_PAIRS_PER_BATCH = 1 << 16


def _hanging_node_check(vertices, edges):
    """Raise ValueError naming the smallest vertex that lies strictly inside
    one of the edges.

    A vertex on edge ab lies in the ball of radius |ab|/2 around its
    midpoint, which meets at most 2 x 2 cells of side 2^ceil(log2 |ab|); only
    the vertices binned in those cells are tested: O(1) per edge on
    shape-regular meshes, O(nv) on anisotropic ones.
    """
    nv = len(vertices)
    a = vertices[edges[:, 0]]
    b = vertices[edges[:, 1]]
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    mid = 0.5 * (a + b)
    # the ball radius, widened by far more than the rounding of mid and |ab|
    radius = 0.5 * np.sqrt(ab2) * (1.0 + 1e-6) + 1e-15 * np.abs(mid).max(axis=1, initial=0.0)
    level = np.ceil(np.log2(2.0 * radius)).astype(np.int64)
    hanging = nv
    for k in np.unique(level):
        sel = np.flatnonzero(level == k)
        side = np.ldexp(1.0, int(k))
        lower = np.floor((mid[sel] - radius[sel, None]) / side)
        # cell coordinates ranked per axis, so that the cell keys fit in int64
        cells = np.concatenate([np.floor(vertices / side), lower, lower + 1.0])
        _, cx = np.unique(cells[:, 0], return_inverse=True)
        _, cy = np.unique(cells[:, 1], return_inverse=True)
        cx *= cy.max() + 1
        key = cx[:nv] + cy[:nv]
        by_cell = np.argsort(key)
        sorted_keys = key[by_cell]
        # the keys of the 2 x 2 block of cells of each edge, 4 per edge
        x0, x1 = np.split(cx[nv:], 2)
        y0, y1 = np.split(cy[nv:], 2)
        block = np.stack([x0 + y0, x0 + y1, x1 + y0, x1 + y1], axis=1).ravel()
        first = np.searchsorted(sorted_keys, block, side="left")
        count = np.searchsorted(sorted_keys, block, side="right") - first
        # blocks whose candidates start in the same window of
        # _PAIRS_PER_BATCH candidates are tested together
        start = np.cumsum(count) - count
        cuts = np.flatnonzero(np.diff(start // _PAIRS_PER_BATCH)) + 1
        for blocks in np.split(np.arange(len(block)), cuts):
            n = count[blocks]
            offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            i = by_cell[np.repeat(first[blocks], n) + offset]
            e = sel[np.repeat(blocks // 4, n)]
            # np.take gathers rows much faster than fancy indexing
            v = np.take(vertices, i, axis=0)
            ae = np.take(a, e, axis=0)
            abe = np.take(ab, e, axis=0)
            t = np.einsum("ij,ij->i", v - ae, abe) / ab2[e]
            proj = ae + t[:, None] * abe
            dist2 = np.einsum("ij,ij->i", v - proj, v - proj)
            on_open_segment = (dist2 < 1e-24 * ab2[e]) & (t > 1e-10) & (t < 1 - 1e-10)
            ends = np.take(edges, e, axis=0)
            on_open_segment &= (ends[:, 0] != i) & (ends[:, 1] != i)
            hanging = min(hanging, int(i[on_open_segment].min(initial=nv)))
    if hanging < nv:
        raise ValueError(f"non-conforming input: vertex {hanging} hangs on an edge")


def _longest_edge_assignment(triangles, lengths):
    lmax = lengths.max(axis=1, keepdims=True)
    candidate = lengths >= lmax * (1.0 - 1e-12)
    # tie break: smallest global index of the vertex opposite the edge
    opposite = np.where(candidate, triangles, np.iinfo(np.int64).max)
    return np.argmin(opposite, axis=1).astype(np.int64)


def build_from_arrays(vertices, triangles, ref_edge=None) -> Triangulation:
    """Build a Triangulation from vertex coordinates and index triples.

    Clockwise triangles are reoriented.  Unless `ref_edge` is given, the
    refinement edge of each triangle is its longest edge, with ties broken by
    the smallest global index of the opposite vertex.  Raises ValueError for
    malformed arrays, no triangle, duplicate vertices, a zero-area triangle,
    an edge of three triangles, a hanging vertex or an unused one.  The
    triangles must not overlap, which is not checked: then a vertex cannot
    lie inside an edge of two triangles, so only one-triangle edges are
    tested for hanging vertices.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be an (nv, 2) array")
    if not np.isfinite(vertices).all():
        raise ValueError("vertex coordinates must be finite")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be an (nt, 3) array")
    if len(triangles) == 0:
        raise ValueError("a mesh needs at least one triangle")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise ValueError("triangle vertex index out of range")
    # equal rows are adjacent once sorted by x, then y
    by_xy = vertices[np.lexsort((vertices[:, 1], vertices[:, 0]))]
    if (by_xy[1:] == by_xy[:-1]).all(axis=1).any():
        raise ValueError("duplicate vertices")

    triangles = triangles.copy()
    signed = _signed_area(vertices, triangles)
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    signed = np.abs(signed)
    lengths = _edge_lengths_local(vertices, triangles)
    if (signed <= 1e-14 * lengths.max(axis=1) ** 2).any():
        raise ValueError("zero-area triangle")

    if ref_edge is None:
        ref_edge = _longest_edge_assignment(triangles, lengths)
    else:
        ref_edge = np.asarray(ref_edge, dtype=np.int64).copy()
        if ref_edge.shape != (len(triangles),) or ((ref_edge < 0) | (ref_edge > 2)).any():
            raise ValueError("ref_edge must hold one local edge index in 0..2 per triangle")
        # a flipped triangle keeps its geometric refinement edge: local edges
        # 1 and 2 swap when vertices 1 and 2 swap
        swap = flip & (ref_edge > 0)
        ref_edge[swap] = 3 - ref_edge[swap]

    mesh = _finalize(vertices, triangles, ref_edge)
    _hanging_node_check(vertices, mesh.edges[mesh.boundary_edge])
    used = np.bincount(triangles.ravel(), minlength=len(vertices))
    if used.min(initial=1) == 0:
        raise ValueError(f"vertex {used.argmin()} belongs to no triangle")
    return mesh


def bisect(mesh: Triangulation, marked) -> Triangulation:
    """Bisect the marked triangles, with conforming closure, into a new mesh
    whose `parent` maps each triangle to the one of `mesh` it came from.

    `marked` holds integer triangle indices (array, list, range or set); a
    mask, a non-integral or an out-of-range index raises ValueError.  The
    closure marks the refinement edge of each marked triangle, and of each
    triangle with a marked edge, until a fixed point.  A cut makes the
    midpoint the newest vertex of both children, whose refinement edges lie
    opposite it.  The children are numbered as cutting one triangle at a
    time, depth first, left before right, would number them (after Funken,
    Praetorius and Wissgott, 2011).
    """
    nt = mesh.n_triangles
    marked = np.asarray(list(marked) if isinstance(marked, (set, frozenset)) else marked)
    if marked.size == 0:
        return replace(mesh, parent=np.arange(nt))
    if marked.ndim != 1 or marked.dtype.kind not in "iu":
        raise ValueError("marked must hold integer triangle indices, not a mask")
    if marked.min() < 0 or marked.max() >= nt:
        raise ValueError("marked triangle index out of range")

    eot = mesh.edge_of_triangle
    ref = mesh.ref_edge
    rows = np.arange(nt)
    ref_global = eot[rows, ref]

    marked_edge = np.zeros(mesh.n_edges, dtype=bool)
    marked_edge[ref_global[marked]] = True
    while True:
        needs = marked_edge[eot].any(axis=1) & ~marked_edge[ref_global]
        if not needs.any():
            break
        marked_edge[ref_global[needs]] = True

    # midpoints of marked edges, appended in edge order
    marked_ids = np.flatnonzero(marked_edge)
    mid_of_edge = np.full(mesh.n_edges, -1, dtype=np.int64)
    mid_of_edge[marked_ids] = mesh.n_vertices + np.arange(len(marked_ids))
    vertices = np.vstack([mesh.vertices, mesh.vertices[mesh.edges[marked_ids]].mean(axis=1)])

    p, a, b = (mesh.triangles[rows, (ref + i) % 3] for i in range(3))
    m = mid_of_edge[ref_global]
    ma = mid_of_edge[eot[rows, (ref + 2) % 3]]
    mb = mid_of_edge[eot[rows, (ref + 1) % 3]]
    split = m >= 0
    slots = np.array([
        np.where(split, np.where(ma < 0, [p, a, m], [m, p, ma]), mesh.triangles.T),
        [m, ma, a],
        np.where(mb < 0, [p, m, b], [m, b, mb]),
        [m, mb, p]], dtype=np.int64)                          # (slot, vertex, t)
    slot_ref = np.array([np.where(split, 2, ref), np.full(nt, 1),
                         np.where(mb < 0, 1, 2), np.full(nt, 1)], dtype=np.int64)
    keep = np.stack([np.ones(nt, dtype=bool), ma >= 0, split, mb >= 0], axis=1)

    return _finalize(vertices, np.moveaxis(slots, 2, 0)[keep], slot_ref.T[keep],
                     parent=np.repeat(rows, keep.sum(axis=1)))


def uniform_refine(mesh: Triangulation) -> Triangulation:
    """Two bisection sweeps over all triangles: quarters every triangle."""
    first = bisect(mesh, range(mesh.n_triangles))
    second = bisect(first, range(first.n_triangles))
    return replace(second, parent=first.parent[second.parent])


def refine(mesh: Triangulation, levels: int) -> Triangulation:
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return mesh


def geometry(mesh: Triangulation) -> MeshGeometry:
    """The mesh's MeshGeometry, built on first use and kept on the mesh;
    its arrays are read-only, since every caller shares them.  nu_E points
    from the lower-indexed triangle of an edge into the other one, and
    outward on a boundary edge."""
    if mesh._geometry is None:
        object.__setattr__(mesh, "_geometry", MeshGeometry(mesh))
    return mesh._geometry


def builtin_domain(name: str) -> Triangulation:
    """Built-in initial meshes: 'unit_square' (2 triangles) or 'l_shape'
    ((-1,1)^2 minus the closed fourth quadrant, 6 triangles, re-entrant
    corner at the origin)."""
    if name == "unit_square":
        vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        triangles = [(0, 1, 2), (0, 2, 3)]
    elif name == "l_shape":
        vertices = [(-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0),
                    (1.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)]
        triangles = [(0, 1, 3), (0, 3, 2), (2, 3, 5), (3, 6, 5),
                     (3, 4, 7), (3, 7, 6)]
    else:
        raise ValueError(f"unknown builtin domain {name!r}, have: unit_square, l_shape")
    return build_from_arrays(vertices, triangles)


def _not_field(field):
    """A regex for the first character of a field that `field` does not
    match whole."""
    return re.compile(rf"(?<![^ \t\n])(?!(?:{field})(?![^ \t\n]))[^ \t\n]")


_NOT_INT = _not_field(r"[+-]?0*[0-9]{1,15}")
_NOT_FLOAT = _not_field(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse(path, text):
    """The (nv, 2) vertices and (nt, 3 or 4) triangles of a mesh file's
    text, or a ValueError that names the first bad line.  A valid file takes
    one numpy pass; the rows are searched only when a check of that pass
    fails.  On the grammar's characters np.fromstring reads a field whole
    exactly where float() does, so the checks fail only off the grammar."""
    if "#" in text:
        text = re.sub("#.*", "", text)
    data = text.encode("ascii", "replace")   # one byte per character
    chars = np.frombuffer(data, dtype=np.uint8)
    blank = (chars == ord(" ")) | (chars == ord("\t")) | (chars == ord("\n"))
    starts = np.flatnonzero(blank[:-1] > blank[1:]) + 1   # of the fields
    if len(blank) and not blank[0]:
        starts = np.concatenate([[0], starts])
    line_end = np.append(np.flatnonzero(chars == ord("\n")), len(data))
    fields = np.diff(np.searchsorted(starts, line_end), prepend=0)
    lines = np.flatnonzero(fields)   # the line index of each row
    counts = fields[lines]
    if len(lines) == 0:
        raise ValueError(f"empty mesh file {path}")

    def row_error(k, form):
        line = text[line_end[lines[k] - 1] + 1 if lines[k] else 0:line_end[lines[k]]]
        got = " ".join(re.findall("[^ \t]+", line))
        return ValueError(f"{path}:{lines[k] + 1}: expected '{form}', got {got!r}")

    def first_bad(not_field, k0, k1):
        """The first of rows k0 .. k1 - 1 with a field that not_field finds,
        or len(lines)."""
        m = not_field.search(text, line_end[lines[k0 - 1]] if k0 else 0,
                             line_end[lines[k1 - 1]])
        return np.searchsorted(lines, np.searchsorted(line_end, m.start())) if m else len(lines)

    if counts[0] != 2 or first_bad(_NOT_INT, 0, 1) == 0:
        raise row_error(0, "nv nt")
    nv, nt = (int(f) for f in text[:line_end[lines[0]]].split())
    if nv < 0 or nt < 1:
        raise ValueError(f"{path}:{lines[0] + 1}: need nv >= 0 and nt >= 1")
    if len(lines) != 1 + nv + nt:
        raise ValueError(f"mesh file {path}: expected {1 + nv + nt} records, got {len(lines)}")
    tri = counts[1 + nv:]
    width_ok = np.concatenate([counts[:1 + nv] == 2, (tri == 3) | (tri == 4)])
    values = None
    if not data.translate(None, b"0123456789+-.eE \t\n"):
        try:
            # older NumPy only warns where it reads the last field in part
            float(data[starts[-1]:])
            values = np.fromstring(data, sep=" ")
        except ValueError:
            pass
    tri_start = line_end[lines[nv]]
    if (values is None or len(values) != len(starts) or not width_ok.all()
            or any(data.find(c, tri_start) >= 0 for c in b".eE")
            or np.abs(values[2 + 2 * nv:]).max(initial=0) >= 1e15):
        k = min(np.append(width_ok, False).argmin(), first_bad(_NOT_FLOAT, 1, 1 + nv),
                first_bad(_NOT_INT, 1 + nv, len(lines)))
        raise row_error(k, "x y" if k <= nv else "i j k [r]")
    mixed = np.flatnonzero(tri != tri[0])
    if len(mixed):
        raise ValueError(f"{path}:{lines[1 + nv + mixed[0]] + 1}: the refinement edge r "
                         "must be given on every triangle row or on none")
    return (values[2:2 + 2 * nv].reshape(nv, 2).copy(),
            values[2 + 2 * nv:].astype(np.int64).reshape(nt, tri[0]))


def read_mesh(path) -> Triangulation:
    """Read the mesh file format above, in time and memory linear in its
    size; a malformed file, or a mesh that build_from_arrays rejects, raises
    ValueError('<path>[:<line>]: ...')."""
    with open(path) as fh:
        text = fh.read()
    vertices, triangles = _parse(path, text)
    del text   # not held while the mesh is built
    ref_edge = triangles[:, 3] if triangles.shape[1] == 4 else None
    try:
        return build_from_arrays(vertices, triangles[:, :3], ref_edge=ref_edge)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_mesh(mesh: Triangulation, path):
    rows = chain([f"{mesh.n_vertices} {mesh.n_triangles}\n"],
                 (f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()),
                 (f"{i} {j} {k} {r}\n" for (i, j, k), r in
                  zip(mesh.triangles.tolist(), mesh.ref_edge.tolist())))
    with open(path, "w") as fh:
        fh.writelines(rows)
