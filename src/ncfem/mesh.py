"""Conforming triangulations with newest-vertex bisection (NVB).

A Triangulation stores vertices, counterclockwise triangles and one designated
refinement edge per triangle (local edge k is the edge opposite local vertex
k).  All derived incidence tables are numpy arrays built once, without loops
over vertices, edges or triangles: `triangles_of_edge` is an (ne, 2) array
holding the lower-indexed adjacent triangle in column 0 and the other one, or
-1 on a boundary edge, in column 1.  Instances are immutable and safe for
concurrent reads; `geometry(mesh)` is computed on first use, its edge
fields on their first read, kept on the instance and returned read-only.
`bisect` returns a new mesh and never mutates its input; the `parent`
attribute of a refined mesh maps each triangle to the triangle of the input
mesh it descends from.

The newest-vertex rule: when a triangle is bisected at the midpoint of its
refinement edge, the midpoint becomes the newest vertex of both children and
each child's refinement edge is its edge opposite that midpoint.

`bisect` works on arrays alone (after Funken, Praetorius and Wissgott, 2011);
its four-slot rule numbers the children as cutting one triangle at a time,
depth first, does, so every table comes out the same.

Text file format: 'nv nt' on the first line, then nv lines 'x y', then nt
lines 'i j k [r]' with optional refinement-edge index r in {0,1,2}.  Comments
start with '#'.  `r` is given on every triangle row or on none; a malformed file
raises ValueError naming the file and line.
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
    """Per-triangle geometry, built with the instance, and per-edge geometry,
    built on the first read of h_E, nu_E or tau_E (a CR level reads none).
    Until then it keeps the mesh arrays these are built from, never the
    mesh: a geometry that pointed back at its mesh would put each mesh in
    a reference cycle, freed only by the cyclic garbage collector."""

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
    """Reject vertices lying strictly inside an edge.

    A vertex on the open segment ab lies in the ball of radius |ab|/2 around
    the midpoint of ab.  Edges are grouped by level k = ceil(log2 |ab|); at
    level k the vertices are binned into square cells of side 2^k, so each
    ball meets at most a 2 x 2 block of cells, and only the vertices binned
    there are tested.  The smallest hanging vertex index is reported.  A block
    holds O(1) vertices on shape-regular meshes; on anisotropic ones (a long
    edge beside many short ones) the time is still O(nv * ne).
    build_from_arrays passes only the edges of one triangle (see there).
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


def _longest_edge_assignment(vertices, triangles):
    lengths = _edge_lengths_local(vertices, triangles)
    lmax = lengths.max(axis=1, keepdims=True)
    candidate = lengths >= lmax * (1.0 - 1e-12)
    # tie break: smallest global index of the vertex opposite the edge
    opposite = np.where(candidate, triangles, np.iinfo(np.int64).max)
    return np.argmin(opposite, axis=1).astype(np.int64)


def build_from_arrays(vertices, triangles, ref_edge=None) -> Triangulation:
    """Build a Triangulation from vertex coordinates and index triples.

    Clockwise triangles are reoriented.  Unless `ref_edge` is given, the
    refinement edge of each triangle is its longest edge, with ties broken by
    the smallest global index of the opposite vertex.

    The triangles must not overlap; that is not checked.  A vertex that a
    triangle uses cannot then lie inside an edge of two triangles, so the
    hanging-node check tests the vertices against the edges of one triangle
    alone.  A vertex that no triangle uses is rejected as well: as hanging
    if it lies inside such an edge, else as belonging to no triangle.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be an (nv, 2) array")
    if not np.isfinite(vertices).all():
        raise ValueError("vertex coordinates must be finite")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be an (nt, 3) array")
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
    scale = _edge_lengths_local(vertices, triangles).max(axis=1) ** 2
    if (signed <= 1e-14 * scale).any():
        raise ValueError("zero-area triangle")

    if ref_edge is None:
        ref_edge = _longest_edge_assignment(vertices, triangles)
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
    """Bisect the marked triangles, with conforming closure.

    `marked` holds integer triangle indices (array, list, range or set); a
    mask or a non-integral index raises ValueError.  The closure marks the
    refinement edge of every marked triangle, and of any triangle with a
    marked edge, until a fixed point.  A triangle with peak p and refinement
    edge (a, b) is then cut at the midpoint m of (a, b) if that is marked,
    and its halves at the midpoints ma of (p, a) and mb of (b, p) where
    marked; its children (triangle, local refinement edge) fill four slots:
        0: unsplit (tri, ref); else (p, a, m), 2, or with ma (m, p, ma), 2
        1: with ma (m, ma, a), 1
        2: if split (p, m, b), 1, or with mb (m, b, mb), 2
        3: with mb (m, mb, p), 1
    Read in triangle and slot order, the filled slots list the children as
    cutting one triangle at a time, depth first, left before right, does.
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

    out = _finalize(vertices, np.moveaxis(slots, 2, 0)[keep], slot_ref.T[keep],
                    parent=np.repeat(rows, keep.sum(axis=1)))
    assert abs(out.n_vertices - mesh.n_vertices - len(marked_ids)) == 0
    return out


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
    """Per-triangle and per-edge geometric quantities.

    nu_E points from the lower-indexed adjacent triangle into the
    higher-indexed one, and outward on boundary edges; tau_E is nu_E rotated
    by +90 degrees.  Computed once per mesh, the edge fields on first read;
    its arrays are read-only, since every caller shares them.
    """
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


# the characters of the fields _parse_fast takes; it leaves underscores, hex
# floats, words and non-ASCII digits, which float() or int() may read and
# np.fromstring does not, to _parse_rows
_NUMBER_CHARS = b"0123456789+-.eE"


def _parse_fast(text):
    """The arrays of _parse_rows(path, text), parsed in C, or None where the
    two might differ.

    The fields of the comment-stripped rows are taken from _NUMBER_CHARS,
    those of triangle rows without '.', 'e' and 'E'.  np.fromstring reads a
    field with PyOS_string_to_double, as float() does, and goes on past it
    only if that used all of it; so with as many numbers as fields, and a
    last field that float() reads, every field is a number float() reads
    alike.  A triangle field is then an integer, exact below 2^53.
    """
    if "#" in text:
        text = re.sub("#.*", "", text)
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if data.translate(None, _NUMBER_CHARS + b" \t\n"):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    blank = chars <= ord(" ")   # a space, tab or line end
    starts = np.flatnonzero(blank[:-1] > blank[1:]) + 1   # of the fields
    if len(blank) and not blank[0]:
        starts = np.concatenate([[0], starts])
    line_end = np.append(np.flatnonzero(chars == ord("\n")), len(data))
    fields = np.diff(np.searchsorted(starts, line_end), prepend=0)
    row_end = line_end[fields > 0]
    counts = fields[fields > 0]
    if len(counts) == 0 or counts[0] != 2:
        return None
    try:
        nv, nt = (int(f) for f in text[:row_end[0]].split())
        float(data[starts[-1]:])
    except ValueError:
        return None
    tri = counts[1 + nv:]
    if (nv < 0 or nt < 1 or len(counts) != 1 + nv + nt
            or (counts[1:1 + nv] != 2).any() or tri[0] not in (3, 4)
            or (tri != tri[0]).any()):
        return None
    tri_start = starts[2 + 2 * nv]
    if any(data.find(c, tri_start) >= 0 for c in (b".", b"e", b"E")):
        return None
    try:
        values = np.fromstring(data, sep=" ")
    except ValueError:
        return None
    triangles = values[2 + 2 * nv:]
    if len(values) != len(starts) or np.abs(triangles).max() >= 2.0 ** 53:
        return None
    return (values[2:2 + 2 * nv].reshape(nv, 2).copy(),
            triangles.astype(np.int64).reshape(nt, tri[0]))


def _parse_rows(path, text):
    """The field-by-field parse of read_mesh that names the first bad line."""
    rows = []   # (line number, fields) of the non-empty lines
    for lineno, line in enumerate(text.split("\n"), 1):
        fields = line.split("#", 1)[0].split()
        if fields:
            rows.append((lineno, fields))
    if not rows:
        raise ValueError(f"empty mesh file {path}")

    def parse(row, cast, sizes, form):
        lineno, fields = row
        try:
            if len(fields) in sizes:
                return [cast(f) for f in fields]
        except ValueError:
            pass
        raise ValueError(f"{path}:{lineno}: expected '{form}', "
                         f"got {' '.join(fields)!r}")

    nv, nt = parse(rows[0], int, (2,), "nv nt")
    if nv < 0 or nt < 1:
        raise ValueError(f"{path}:{rows[0][0]}: need nv >= 0 and nt >= 1")
    if len(rows) != 1 + nv + nt:
        raise ValueError(f"mesh file {path}: expected {1 + nv + nt} records, got {len(rows)}")
    vertices = np.array([parse(r, float, (2,), "x y") for r in rows[1:1 + nv]],
                        dtype=float).reshape(nv, 2)
    tri_rows = [parse(r, int, (3, 4), "i j k [r]") for r in rows[1 + nv:]]
    has_ref = [len(r) == 4 for r in tri_rows]
    if not all(f == has_ref[0] for f in has_ref):
        lineno = rows[1 + nv + has_ref.index(not has_ref[0])][0]
        raise ValueError(f"{path}:{lineno}: the refinement edge r must be given "
                         "on every triangle row or on none")
    return vertices, np.array(tri_rows, dtype=np.int64)


def read_mesh(path) -> Triangulation:
    """Read the text format above; a malformed file, or a mesh that
    build_from_arrays rejects, raises ValueError('<path>[:<line>]: ...').

    The file is read once and, where its rows hold plain numbers, parsed in
    C (_parse_fast), in time and memory linear in its size; any other file
    goes through _parse_rows, which reads the same arrays and names the
    first bad line.
    """
    with open(path) as fh:
        text = fh.read()
    vertices, triangles = _parse_fast(text) or _parse_rows(path, text)
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
