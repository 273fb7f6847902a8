import gc
import io
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interior_edges
import ncfem.mesh
from ncfem.mesh import (_finalize, _hanging_node_check, _parse, bisect,
                        build_from_arrays, builtin_domain, geometry, read_mesh,
                        refine, uniform_refine, write_mesh)

SQUARE_V = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_T = [(0, 1, 2), (0, 2, 3)]


def min_angle(mesh):
    p = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.einsum("td,td->t", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1, 1)))
    return float(np.min(angles))


def test_unit_square_tables():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    assert m.n_edges == 5
    assert len(interior_edges(m)) == 1
    assert int(m.boundary_edge.sum()) == 4
    diag = m.edges[interior_edges(m)[0]]
    assert set(diag) == {0, 2}


def test_reference_triangle_all_boundary():
    m = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert m.n_edges == 3
    assert m.boundary_edge.all()
    assert m.boundary_vertex.all()


def test_clockwise_input_reoriented():
    m = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    p = m.vertices[m.triangles[0]]
    a, b = p[1] - p[0], p[2] - p[0]
    assert a[0] * b[1] - a[1] * b[0] > 0


def test_duplicate_vertices_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_from_arrays([(0, 0), (1, 0), (0, 1), (0, 0)], [(0, 1, 2)])


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError, match="area"):
        build_from_arrays([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


@pytest.mark.parametrize("nv", [0, 3])
def test_mesh_without_triangles_rejected(nv):
    # as read_mesh rejects nt < 1: geometry() would have nothing to reduce
    vertices = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])[:nv]
    with pytest.raises(ValueError, match="^a mesh needs at least one triangle$"):
        build_from_arrays(vertices, np.empty((0, 3), dtype=int))


def test_edge_shared_three_times_rejected():
    v = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    t = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(ValueError, match="non-conforming"):
        build_from_arrays(v, t)


def test_hanging_node_rejected():
    v = [(0, 0), (2, 0), (0, 2), (1, 0), (2, -2)]
    t = [(0, 1, 2), (0, 3, 4)]
    with pytest.raises(ValueError, match="hangs"):
        build_from_arrays(v, t)


def test_initial_refinement_edge_is_longest():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    for t in range(2):
        k = m.ref_edge[t]
        tri = m.triangles[t]
        edge = {tri[(k + 1) % 3], tri[(k + 2) % 3]}
        assert edge == {0, 2}  # the diagonal


def test_bisect_both_counts():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    m2 = bisect(m, {0, 1})
    assert (m2.n_triangles, m2.n_vertices, m2.n_edges) == (4, 5, 8)
    assert len(interior_edges(m2)) == 4


def test_bisect_rejects_out_of_range():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    with pytest.raises(ValueError, match="range"):
        bisect(m, {5})


def test_bisect_empty_is_identity():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    m2 = bisect(m, set())
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.vertices, m.vertices)


def test_bisect_rejects_masks_and_non_integral_indices():
    m = uniform_refine(builtin_domain("l_shape"))
    mask = np.zeros(m.n_triangles, dtype=bool)
    mask[[10, 20]] = True
    with pytest.raises(ValueError, match="integer"):
        bisect(m, mask)
    with pytest.raises(ValueError, match="integer"):
        bisect(m, {1.7})
    expected = bisect(m, [10, 20])
    for marked in (range(10, 21, 10), {10, 20}, np.flatnonzero(mask)):
        _assert_same_tables(bisect(m, marked), expected)


def test_closure_propagates_through_shared_refinement_edge():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    m2 = bisect(m, {0})
    assert m2.n_triangles == 4


def test_uniform_refine_quarters():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    m2 = uniform_refine(m)
    assert m2.n_triangles == 8
    counts = np.bincount(m2.parent, minlength=2)
    assert (counts == 4).all()
    assert geometry(m2).h_max < geometry(m).h_max


def test_triangle_count_strictly_increases():
    m = builtin_domain("l_shape")
    for _ in range(3):
        m2 = uniform_refine(m)
        assert m2.n_triangles > m.n_triangles
        m = m2


def test_min_angle_stable_under_refinement():
    for name in ("unit_square", "l_shape"):
        m = builtin_domain(name)
        angles = [min_angle(m)]
        for _ in range(4):
            m = uniform_refine(m)
            angles.append(min_angle(m))
        assert min(angles) >= angles[0] / 2 - 1e-12
        for prev, cur in zip(angles[2:], angles[3:]):
            assert cur >= prev - 1e-12


def test_geometry_reference_triangle():
    m = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    g = geometry(m)
    assert g.h_T[0] == pytest.approx(np.sqrt(2))
    assert g.area[0] == pytest.approx(0.5)
    assert g.h_max == pytest.approx(np.sqrt(2))
    assert np.abs(np.einsum("ed,ed->e", g.nu_E, g.tau_E)).max() == 0.0
    assert np.linalg.norm(g.nu_E, axis=1) == pytest.approx(1.0)
    # edges (0, 1), (0, 2), (1, 2), all on the boundary: outward normals
    assert m.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert g.h_E == pytest.approx([1.0, 1.0, np.sqrt(2)])
    r = np.sqrt(0.5)
    assert g.nu_E == pytest.approx(np.array([[0, -1], [-1, 0], [r, r]]))
    assert g.tau_E == pytest.approx(np.stack([-g.nu_E[:, 1], g.nu_E[:, 0]], axis=1))
    assert g.tau_E == pytest.approx(np.array([[1, 0], [0, -1], [-r, r]]))


def test_normal_orientation():
    m = build_from_arrays(SQUARE_V, SQUARE_T)
    g = geometry(m)
    centroids = m.vertices[m.triangles].mean(axis=1)
    for e in range(m.n_edges):
        adj = m.triangles_of_edge[e]
        mid = m.vertices[m.edges[e]].mean(axis=0)
        assert np.dot(g.nu_E[e], mid - centroids[adj[0]]) > 0
        if adj[1] >= 0:
            assert np.dot(g.nu_E[e], centroids[adj[1]] - centroids[adj[0]]) > 0


def test_builtin_domains():
    sq = builtin_domain("unit_square")
    assert sq.n_triangles == 2
    L = builtin_domain("l_shape")
    assert L.n_triangles == 6
    assert int(L.boundary_vertex.sum()) == 8
    assert any(np.allclose(v, (0, 0)) for v in L.vertices[L.boundary_vertex])
    with pytest.raises(ValueError):
        builtin_domain("pentagon")


def _barycentric(tri_pts, x):
    M = np.column_stack([tri_pts[1] - tri_pts[0], tri_pts[2] - tri_pts[0]])
    lam = np.linalg.solve(M, x - tri_pts[0])
    return np.array([1 - lam.sum(), lam[0], lam[1]])


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 7), max_size=8), st.integers(0, 1))
def test_bisect_invariants(marked, domain_idx):
    base = builtin_domain(["unit_square", "l_shape"][domain_idx])
    m = uniform_refine(base)
    marked = {t for t in marked if t < m.n_triangles}
    m2 = bisect(m, marked)
    # conformity is asserted by the edge tables; check area conservation
    assert geometry(m2).area.sum() == pytest.approx(geometry(m).area.sum(),
                                                    rel=1e-12)
    # every marked triangle was actually bisected
    child_counts = np.bincount(m2.parent, minlength=m.n_triangles)
    for t in marked:
        assert child_counts[t] >= 2
    # nesting: children live inside their parents
    for c in range(m2.n_triangles):
        parent_pts = m.vertices[m.triangles[m2.parent[c]]]
        for v in m2.vertices[m2.triangles[c]]:
            lam = _barycentric(parent_pts, v)
            assert lam.min() > -1e-10


def _jittered_grid(cells, seed):
    """The unit square cut into cells^2 squares of two triangles each, with
    every interior vertex moved by up to a tenth of the cell width."""
    rng = np.random.default_rng(seed)
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, cells + 1),
                                           np.linspace(0.0, 1.0, cells + 1)))
    interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
    radius = 0.1 / cells * np.sqrt(rng.random(interior.sum()))
    angle = 2.0 * np.pi * rng.random(interior.sum())
    x[interior] += radius * np.cos(angle)
    y[interior] += radius * np.sin(angle)
    i, j = np.meshgrid(np.arange(cells), np.arange(cells))
    v00 = (j * (cells + 1) + i).ravel()
    tris = np.concatenate([np.stack([v00, v00 + 1, v00 + cells + 2], axis=1),
                           np.stack([v00, v00 + cells + 2, v00 + cells + 1], axis=1)])
    return np.column_stack([x, y]), tris


def _write_mesh_reference(mesh, path):
    """The row-by-row writer that write_mesh replaces."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for tri, r in zip(mesh.triangles, mesh.ref_edge):
            fh.write(f"{tri[0]} {tri[1]} {tri[2]} {r}\n")


def _assert_roundtrip(m, tmp_path):
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    _write_mesh_reference(m, tmp_path / "reference.txt")
    assert path.read_bytes() == (tmp_path / "reference.txt").read_bytes()
    # repr floats read back to the same bits, so every table does
    m2 = read_mesh(path)
    for table in _TABLES[:-1]:
        a, b = getattr(m2, table), getattr(m, table)
        assert a.dtype == b.dtype and np.array_equal(a, b), table
        assert a.tobytes() == b.tobytes(), table


def test_mesh_file_roundtrip(tmp_path):
    _assert_roundtrip(uniform_refine(builtin_domain("l_shape")), tmp_path)


@pytest.mark.parametrize("seed", [0, 1])
def test_mesh_file_roundtrip_on_a_jittered_grid(seed, tmp_path):
    _assert_roundtrip(build_from_arrays(*_jittered_grid(78, seed)), tmp_path)


def test_mesh_file_comments_and_optional_refinement_edge(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("# two-triangle square\n4 2\n0 0\n1 0\n1 1\n0 1\n"
                    "0 1 2  # first\n0 2 3\n")
    m = read_mesh(path)
    assert m.n_triangles == 2
    # without explicit r the longest edge is chosen
    ref = build_from_arrays(SQUARE_V, SQUARE_T)
    assert np.array_equal(m.ref_edge, ref.ref_edge)


def test_geometry_computed_once_and_read_only():
    m = uniform_refine(builtin_domain("l_shape"))
    g = geometry(m)
    assert geometry(m) is g
    for arr in (g.h_T, g.area, g.h_E, g.nu_E, g.tau_E):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        g.area *= 2.0
    # a refined mesh gets its own geometry
    assert geometry(uniform_refine(m)) is not g


def test_reference_counting_alone_frees_a_mesh():
    """A geometry keeps the mesh's arrays, never the mesh: with the cyclic
    collector off, a refined mesh whose edge geometry was read is freed as
    soon as its last reference goes."""
    m = refine(builtin_domain("l_shape"), 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        geometry(m).nu_E
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_edge_geometry_is_built_once_on_first_read(monkeypatch):
    calls, build = [], ncfem.mesh._edge_fields
    monkeypatch.setattr(ncfem.mesh, "_edge_fields",
                        lambda *arrays: calls.append(1) or build(*arrays))
    m = uniform_refine(builtin_domain("l_shape"))
    g = geometry(m)
    assert calls == []
    nu = g.nu_E
    assert g.nu_E is nu and g.tau_E is geometry(m).tau_E
    assert calls == [1]


def test_triangles_of_edge_layout():
    m = uniform_refine(builtin_domain("l_shape"))
    adj = m.triangles_of_edge
    assert adj.shape == (m.n_edges, 2)
    assert np.array_equal(adj[:, 1] < 0, m.boundary_edge)
    inner = ~m.boundary_edge
    assert (adj[inner, 0] < adj[inner, 1]).all()
    for e in range(m.n_edges):
        expected = [t for t in range(m.n_triangles) if e in m.edge_of_triangle[t]]
        assert adj[e][adj[e] >= 0].tolist() == expected


_TABLES = ("vertices", "triangles", "ref_edge", "edges", "edge_of_triangle",
           "triangles_of_edge", "boundary_edge", "boundary_vertex", "parent")


def _assert_same_tables(mesh, expected):
    for name in _TABLES:
        a, b = getattr(mesh, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _bisect_reference(mesh, marked):
    """The recursive, one-triangle-at-a-time bisection that bisect replaces."""
    marked = np.asarray(sorted(set(int(t) for t in marked)), dtype=np.int64)
    eot = mesh.edge_of_triangle
    ref = mesh.ref_edge
    ref_global = eot[np.arange(mesh.n_triangles), ref]

    marked_edge = np.zeros(mesh.n_edges, dtype=bool)
    marked_edge[ref_global[marked]] = True
    while True:
        needs = marked_edge[eot].any(axis=1) & ~marked_edge[ref_global]
        if not needs.any():
            break
        marked_edge[ref_global[needs]] = True

    marked_ids = np.flatnonzero(marked_edge)
    mid_of_edge = np.full(mesh.n_edges, -1, dtype=np.int64)
    mid_of_edge[marked_ids] = mesh.n_vertices + np.arange(len(marked_ids))
    midpoints = 0.5 * (mesh.vertices[mesh.edges[marked_ids, 0]]
                       + mesh.vertices[mesh.edges[marked_ids, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    new_tris, new_ref, new_parent = [], [], []

    def emit(tri, r, parent_t):
        new_tris.append(tri)
        new_ref.append(r)
        new_parent.append(parent_t)

    def split(p, a, b, edge_pa, edge_bp, m, t):
        for peak, base0, base1, contained in ((p, a, m, edge_pa), (p, m, b, edge_bp)):
            if contained >= 0 and marked_edge[contained]:
                m2 = mid_of_edge[contained]
                if base1 == m:
                    split(base1, peak, base0, -1, -1, m2, t)
                else:
                    split(base0, base1, peak, -1, -1, m2, t)
            else:
                emit((peak, base0, base1), 2 if base1 == m else 1, t)

    for t in range(mesh.n_triangles):
        e_ref = ref_global[t]
        if not marked_edge[e_ref]:
            emit(tuple(mesh.triangles[t]), ref[t], t)
            continue
        k = ref[t]
        p = mesh.triangles[t, k]
        a = mesh.triangles[t, (k + 1) % 3]
        b = mesh.triangles[t, (k + 2) % 3]
        split(p, a, b, eot[t, (k + 2) % 3], eot[t, (k + 1) % 3],
              mid_of_edge[e_ref], t)

    return _finalize(vertices, np.asarray(new_tris, dtype=np.int64),
                     np.asarray(new_ref, dtype=np.int64),
                     parent=np.asarray(new_parent, dtype=np.int64))


def _graded_l_shape(rounds):
    """The L-shape bisected `rounds` times at the triangles touching the
    re-entrant corner."""
    m = builtin_domain("l_shape")
    for _ in range(rounds):
        at_corner = np.abs(m.vertices[m.triangles]).sum(axis=2).min(axis=1) == 0
        m = bisect(m, np.flatnonzero(at_corner))
    return m


_BISECT_BASES = {
    "unit_square": lambda: builtin_domain("unit_square"),
    "l_shape": lambda: builtin_domain("l_shape"),
    "unit_square_3": lambda: refine(builtin_domain("unit_square"), 3),
    "l_shape_2": lambda: refine(builtin_domain("l_shape"), 2),
    "graded_14": lambda: _graded_l_shape(14),
}


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(sorted(_BISECT_BASES)), rounds=st.integers(1, 4),
       data=st.data())
def test_bisect_matches_reference(base, rounds, data):
    m = _BISECT_BASES[base]()
    for _ in range(rounds):
        nt = m.n_triangles
        marked = data.draw(st.sets(st.integers(0, nt - 1), min_size=1,
                                   max_size=max(1, nt // 2)))
        expected = _bisect_reference(m, marked)
        m = bisect(m, np.fromiter(marked, dtype=np.int64))
        _assert_same_tables(m, expected)


def _child_patterns(mesh, fine):
    """Per triangle of `mesh`: its number of children in `fine` and whether
    its edges (p, a) and (b, p) were cut, for peak p and refinement edge
    (a, b)."""
    rows = np.arange(mesh.n_triangles)
    p, a, b = (mesh.vertices[mesh.triangles[rows, (mesh.ref_edge + i) % 3]]
               for i in range(3))
    new = {tuple(v) for v in fine.vertices[mesh.n_vertices:]}
    children = np.bincount(fine.parent, minlength=mesh.n_triangles)
    return {(int(c), tuple(0.5 * (p[t] + a[t])) in new, tuple(0.5 * (b[t] + p[t])) in new)
            for t, c in enumerate(children)}


def test_bisect_all_child_patterns_match_reference():
    m = uniform_refine(builtin_domain("unit_square"))
    for marked in ([2], [1, 8], [0, 1, 3, 9, 10], [1, 6, 9, 13, 18]):
        m = bisect(m, marked)
    marked = [3, 14, 33]
    fine = bisect(m, marked)
    # unsplit, bisected once, (p, a) cut too, (b, p) cut too, both cut
    assert _child_patterns(m, fine) == {(1, False, False), (2, False, False),
                                        (3, True, False), (3, False, True),
                                        (4, True, True)}
    _assert_same_tables(fine, _bisect_reference(m, marked))


def _hanging_node_check_reference(vertices, edges):
    """The O(nv*ne) vertex-by-vertex check that _hanging_node_check replaces."""
    a = vertices[edges[:, 0]]
    b = vertices[edges[:, 1]]
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    for i, v in enumerate(vertices):
        av = v - a
        t = np.einsum("ij,ij->i", av, ab) / ab2
        proj = a + t[:, None] * ab
        dist2 = np.einsum("ij,ij->i", v - proj, v - proj)
        on_open_segment = (dist2 < 1e-24 * ab2) & (t > 1e-10) & (t < 1 - 1e-10)
        on_open_segment &= (edges[:, 0] != i) & (edges[:, 1] != i)
        if on_open_segment.any():
            raise ValueError(f"non-conforming input: vertex {i} hangs on an edge")


def _check_outcome(check, vertices, edges):
    try:
        check(vertices, edges)
    except ValueError as exc:
        return str(exc)
    return None


def _unit_grid(nx, ny):
    """The unit square cut into nx x ny cells of two triangles each."""
    x, y = np.meshgrid(np.arange(nx + 1) / nx, np.arange(ny + 1) / ny)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    v0 = (j * (nx + 1) + i).ravel()
    tris = np.concatenate([np.column_stack([v0, v0 + 1, v0 + nx + 2]),
                           np.column_stack([v0, v0 + nx + 2, v0 + nx + 1])])
    return np.column_stack([x.ravel(), y.ravel()]), tris


# positions along an edge ab: inside (0.5, 0.25), inside but within 1e-10 of
# an endpoint (1e-11), and collinear beyond an endpoint
_ALONG = [0.5, 0.25, 1e-11, 1 - 1e-11, 1 + 1e-9, -1e-9, 1.25, -0.5]
# offsets normal to ab, relative to |ab|, none drawn twice as often: the
# check's tolerance is 1e-12
_ACROSS = [0.0, 0.0, 1e-13, 1e-11]


@settings(max_examples=200, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4),
       scale=st.sampled_from([1.0, 1e-3, 3e2]),
       shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
       injected=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                   st.sampled_from(_ALONG),
                                   st.sampled_from(_ACROSS)),
                         max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hanging_node_check_matches_reference(nx, ny, scale, shift, injected,
                                              seed):
    points, tris = _unit_grid(nx, ny)
    grid = scale * points + np.asarray(shift)
    edges = np.unique(np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2),
                              axis=1), axis=0)
    extra = []
    for e, t, off in injected:
        a, b = grid[edges[e % len(edges)]]
        ab = b - a
        extra.append(a + t * ab + off * np.array([-ab[1], ab[0]]))
    vertices = np.vstack([grid, np.reshape(extra, (-1, 2))])
    # shuffle the vertex numbering, so that the reported index varies
    perm = np.random.default_rng(seed).permutation(len(vertices))
    rank = np.argsort(perm)
    vertices, edges = vertices[perm], rank[edges]
    assert (_check_outcome(_hanging_node_check, vertices, edges)
            == _check_outcome(_hanging_node_check_reference, vertices, edges))


@settings(max_examples=150, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4),
       scale=st.sampled_from([1.0, 1e-3, 3e2]),
       shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
       splits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                                 st.sampled_from([0.5, 0.25, 0.75])),
                       max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_build_from_arrays_finds_every_hanging_vertex(nx, ny, scale, shift,
                                                      splits, seed):
    # a grid of two triangles per cell, some of them cut in two through a
    # point of one edge, without closure: the point hangs on the edge unless
    # the triangle across it is cut there too or there is none; the
    # triangles never overlap
    points, grid = _unit_grid(nx, ny)
    vertices = list(scale * points + np.asarray(shift))
    cut = {}
    for t, k, at in splits:
        cut.setdefault(t % len(grid), (k, at))
    point_on, tris = {}, []
    for t, tri in enumerate(grid.tolist()):
        if t not in cut:
            tris.append(tri)
            continue
        k, at = cut[t]
        p, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        edge = (min(a, b), max(a, b))
        if edge not in point_on:
            lo, hi = vertices[edge[0]], vertices[edge[1]]
            vertices.append(lo + at * (hi - lo))
            point_on[edge] = len(vertices) - 1
        tris += [[p, a, point_on[edge]], [p, point_on[edge], b]]
    perm = np.random.default_rng(seed).permutation(len(vertices))
    vertices, tris = np.asarray(vertices)[perm], np.argsort(perm)[tris]
    edges = np.unique(np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2),
                              axis=1), axis=0)
    assert (_check_outcome(lambda v, t: build_from_arrays(v, t), vertices, tris)
            == _check_outcome(_hanging_node_check_reference, vertices, edges))


def test_hanging_node_check_reports_smallest_vertex():
    v = [(0, 0), (2, 0), (0, 2), (1, 1), (2, -2), (1, 0)]
    t = [(0, 1, 2), (0, 5, 4)]
    with pytest.raises(ValueError, match="vertex 3 hangs"):
        build_from_arrays(v, t)


def test_build_from_arrays_rejects_an_unused_vertex():
    # the unit square with a stray vertex 4 inside it: as a Morley dof it
    # would give G an empty row; the smallest unused vertex is named
    v = SQUARE_V + [(0.5, 0.25), (0.25, 0.5)]
    with pytest.raises(ValueError, match="^vertex 4 belongs to no triangle$"):
        build_from_arrays(v, SQUARE_T)


def test_graded_mesh_passes_hanging_node_check():
    m = uniform_refine(_graded_l_shape(24))
    rebuilt = build_from_arrays(m.vertices, m.triangles)
    assert np.array_equal(rebuilt.edges, m.edges)
    assert _check_outcome(_hanging_node_check_reference, m.vertices, m.edges) is None
    # the midpoint of the shortest edge, appended, hangs on it
    e = np.argmin(geometry(m).h_E)
    v = np.vstack([m.vertices, m.vertices[m.edges[e]].mean(axis=0)])
    message = f"vertex {m.n_vertices} hangs"
    assert message in _check_outcome(_hanging_node_check, v, m.edges)
    assert message in _check_outcome(_hanging_node_check_reference, v, m.edges)


def _sliver_strip(n):
    """The unit square cut into n strips of height 1/n, two triangles each."""
    x, y = np.meshgrid([0.0, 1.0], np.arange(n + 1) / n)
    j = np.arange(n)
    tris = np.concatenate([np.column_stack([2 * j, 2 * j + 1, 2 * j + 3]),
                           np.column_stack([2 * j, 2 * j + 3, 2 * j + 2])])
    return np.column_stack([x.ravel(), y.ravel()]), tris


def test_hanging_node_check_on_sliver_strip():
    # the 2 x 2 block of cells around each of the ~2n long edges holds all
    # 2n + 2 vertices, so the ~4n^2 candidates must be tested in batches
    m = build_from_arrays(*_sliver_strip(1000))
    tracemalloc.start()
    try:
        _hanging_node_check(m.vertices, m.edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert _check_outcome(_hanging_node_check_reference, m.vertices, m.edges) is None
    # the midpoint of a diagonal, appended, hangs on it
    e = np.argmax(geometry(m).h_E)
    v = np.vstack([m.vertices, m.vertices[m.edges[e]].mean(axis=0)])
    expected = _check_outcome(_hanging_node_check_reference, v, m.edges)
    assert f"vertex {m.n_vertices} hangs" in expected
    assert _check_outcome(_hanging_node_check, v, m.edges) == expected


def _decode(raw):
    """The text that read_mesh reads from a file of these bytes."""
    return io.TextIOWrapper(io.BytesIO(raw.encode())).read()


def _assert_same_arrays(got, expected):
    assert len(got) == len(expected) == 2
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=4)
_FLOAT_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda s, a, b, e: f"{s}{a}.{b}{e}", _SIGN, _DIGITS, _DIGITS,
              st.sampled_from(["", "e5", "E-3", "e+07", "e-400", "e400"])),
    st.builds(lambda s, a: f"{s}.{a}", _SIGN, _DIGITS),
    st.builds(lambda s, a: f"{s}{a}.", _SIGN, _DIGITS),
    st.builds(lambda s, a, e: f"{s}{a}E{e}", _SIGN, _DIGITS, st.integers(-20, 20)))
_INT_FIELD = st.builds(lambda s, a: s + a, _SIGN, _DIGITS)
_BLANKS = st.sampled_from([" ", "  ", "\t", " \t "])
_LINE_END = st.sampled_from(["\n", "\r\n"])


@st.composite
def _mesh_text(draw, float_field=_FLOAT_FIELD, int_field=_INT_FIELD):
    """A mesh file in the text format: comments, blank lines, tabs, either
    line end, signs, exponents and the optional r column."""
    nv, nt = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    has_ref = draw(st.booleans())
    header = [str(nv), str(nt)]
    rows = [header] + [[draw(float_field) for _ in range(2)]
                       for _ in range(nv)]
    rows += [[draw(int_field) for _ in range(3 + has_ref)]
             for _ in range(nt)]
    lines = []
    for row in rows:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " \t", "# a comment",
                                               "  # 1 2 3"])))
        line = draw(_BLANKS).join(row)
        if draw(st.booleans()):
            line = draw(_BLANKS) + line + draw(st.sampled_from(["", " ", "\t", " # x 1"]))
        lines.append(line)
    end = draw(_LINE_END)
    return end.join(lines) + draw(st.sampled_from(["", end]))


# the mesh-file grammar of ncfem.mesh's docstring, stated apart from its
# regexes: x and y as float() reads ASCII decimals, every other field an
# integer below 10^15 in magnitude
_FLOAT_GRAMMAR = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_INT_GRAMMAR = re.compile(r"[+-]?[0-9]+")


def _as_float(field):
    if not _FLOAT_GRAMMAR.fullmatch(field):
        raise ValueError(field)
    return float(field)


def _as_int(field):
    if not _INT_GRAMMAR.fullmatch(field) or abs(int(field)) >= 10 ** 15:
        raise ValueError(field)
    return int(field)


def _parse_rows(path, text):
    """The field-by-field parse that read_mesh once fell back to, with the
    fields split at spaces and tabs and cast under the grammar: the
    reference that _parse must match, array for array and message for
    message."""
    rows = []   # (line number, fields) of the non-empty lines
    for lineno, line in enumerate(text.split("\n"), 1):
        fields = re.findall("[^ \t]+", line.split("#", 1)[0])
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

    nv, nt = parse(rows[0], _as_int, (2,), "nv nt")
    if nv < 0 or nt < 1:
        raise ValueError(f"{path}:{rows[0][0]}: need nv >= 0 and nt >= 1")
    if len(rows) != 1 + nv + nt:
        raise ValueError(f"mesh file {path}: expected {1 + nv + nt} records, got {len(rows)}")
    vertices = np.array([parse(r, _as_float, (2,), "x y") for r in rows[1:1 + nv]],
                        dtype=float).reshape(nv, 2)
    tri_rows = [parse(r, _as_int, (3, 4), "i j k [r]") for r in rows[1 + nv:]]
    has_ref = [len(r) == 4 for r in tri_rows]
    if not all(f == has_ref[0] for f in has_ref):
        lineno = rows[1 + nv + has_ref.index(not has_ref[0])][0]
        raise ValueError(f"{path}:{lineno}: the refinement edge r must be given "
                         "on every triangle row or on none")
    return vertices, np.array(tri_rows, dtype=np.int64)


# fields that float() or int() read and np.fromstring does not, or the other
# way round, or that neither reads
_ODD_FIELDS = ["1_0", "0x1p3", "inf", "-nan", "1e", "e5", "+", "-", ".", "1-2",
               "+-1", "1.2.3", "1e5.5", "--1", "1.0", "1e3", "\u0663",
               "9007199254740993", "99999999999999999999", "1\x0b2", "\xa0"]
_ANY_FIELD = st.one_of(_INT_FIELD, _FLOAT_FIELD, st.sampled_from(_ODD_FIELDS))


@settings(max_examples=300, deadline=None)
@given(raw=_mesh_text())
def test_fast_parse_reads_the_row_parsers_arrays(raw):
    text = _decode(raw)
    _assert_same_arrays(_parse("mesh.txt", text), _parse_rows("mesh.txt", text))


@settings(max_examples=300, deadline=None)
@given(raw=_mesh_text(_ANY_FIELD, _ANY_FIELD),
       drop=st.integers(0, 3))
def test_fast_parse_declines_what_it_might_read_otherwise(raw, drop):
    # drop one character here and there, to shift rows and fields as well;
    # the numpy parse must give the reference's arrays or its exact error
    text = _decode(raw[:len(raw) * drop // 4] + raw[len(raw) * drop // 4 + (drop > 0):])
    try:
        expected = _parse_rows("mesh.txt", text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _parse("mesh.txt", text)
        assert str(got.value) == str(exc)
    else:
        _assert_same_arrays(_parse("mesh.txt", text), expected)


# fields outside the grammar that float(), int(), str.split() or
# np.fromstring read, whole or in part, in a vertex row and as the last field
# of the file: each is an error that names its line
_LAST_FIELDS = ["2e", "2.", "2e0", "9007199254740993", "-9007199254740993",
                "2_0", "\u0662"]


@pytest.mark.parametrize("line, row", [
    (3, "1_0 0"), (3, "\u0663 0"), (3, "1\xa00"), (3, "1\x0b0"), (3, "inf 0"),
    (3, "0x1p3 0"), *((5, "0 1 " + field) for field in _LAST_FIELDS),
], ids=["underscore", "arabic_indic_digit", "nbsp", "vertical_tab", "inf",
        "hex_float", *_LAST_FIELDS])
def test_parse_names_the_line_of_a_field_outside_the_grammar(line, row):
    rows = "3 1\n0 0\n1 0\n0 1\n0 1 2\n".split("\n")
    rows[line - 1] = row
    with pytest.raises(ValueError, match=f"^mesh.txt:{line}: expected '"):
        _parse("mesh.txt", "\n".join(rows))


# tracemalloc bytes per triangle that read_mesh may peak at, on a 150 x 150
# jittered grid (45000 triangles) written to a file: measured 305 with the
# numpy parse, against 1602 with a Python list of fields per row
READ_MESH_BYTES_PER_TRIANGLE = 360


def test_read_mesh_peaks_within_its_memory_budget(tmp_path):
    path = tmp_path / "grid.msh"
    mesh = build_from_arrays(*_jittered_grid(150, 0))
    write_mesh(mesh, path)
    del mesh
    tracemalloc.start()
    try:
        read_mesh(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 45000 <= READ_MESH_BYTES_PER_TRIANGLE
