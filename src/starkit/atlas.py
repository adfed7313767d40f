"""Translation surfaces from polygon gluings, and their quantized charts.

A surface is presented as one polygon with counterclockwise boundary edges
and a pairing that glues edges in opposite directions by translations.
Ingestion identifies the vertex classes, measures each cone angle exactly
as an integer winding (no floating point anywhere), reads off the zero
orders and the genus, and emits a combinatorial chart system:

  * one base chart for the polygon interior, and
  * one edge chart per glued pair, anchored at the lower-numbered side.

Chart coordinates differ by translations only.  An overlap record holds
the constant c with zeta_dst = zeta_src + c on that component; the two
components of a base-to-edge overlap sit on the two polygon sides of the
pair, and each polygon corner contributes an edge-to-edge overlap whose
constant is forced by the cocycle condition through the base chart.

On the cotangent side every chart carries coordinates (zeta, lambda) with
the fiber coordinate lambda unchanged across charts, so chart transitions
are (zeta, lambda) -> (zeta + c, lambda).  Functions on a chart are
polynomials of arity 2 in the order (zeta, lambda), the form is the
standard block (so the bracket has {zeta, lambda} = -1), and the chart
quantization is the Moyal product in those coordinates.

Known answers are not recomputed.  A translation's inverse negates its
shift, two translations compose by adding shifts, and a translation's
symplectic residual is zero, so only a chart map that is not a
translation multiplies matrices.  The agreement check stars nothing on
an identity overlap, where the product in the destination chart would be
the one in the source chart, pulled back unchanged.

Ingestion scales the edge vectors to integers once, by the lcm of their
denominators, and tests the polygon in those integers alone; exact complex
numbers are built only for overlap constants and error messages.  A
surface of more than MAX_EDGES edges is refused before its edges are
read, since the crossing test is quadratic.  A surface indexes its charts
by name and its overlaps by component.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import ArityError, Immutable, InputError, Record, load_json
from .moyal import StarProduct
from .poisson import SymplecticForm
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex, parse_rational
from .series import HbarSeries


def _require_real_rational(value, what: str) -> Fraction:
    if isinstance(value, (bool, float)):
        kind = "boolean" if isinstance(value, bool) else "float"
        raise InputError(
            f"{what} must be an exact rational (\"p/q\" string), not a {kind}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"{what} must be an exact rational \"p/q\" string")


# ingest tests every pair of edges for a crossing, so its cost grows with
# the square of the edge count; a surface with more edges is refused
# before any edge is read
MAX_EDGES = 1000


class PolygonGluing(Immutable):
    """Raw gluing data: edge vectors in ccw order plus an edge pairing."""

    __slots__ = ("edges", "pairing")

    def __init__(self, edges, pairing):
        self_edges = tuple(ExactComplex.coerce(e) for e in edges)
        pairs = []
        for pair in pairing:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InputError("pairing entries must be [i, j] pairs")
            i, j = pair
            if not all(isinstance(k, int) and not isinstance(k, bool)
                       for k in pair):
                raise InputError("pairing entries must be integer indices")
            pairs.append((i, j) if i <= j else (j, i))
        object.__setattr__(self, "edges", self_edges)
        object.__setattr__(self, "pairing", tuple(sorted(pairs)))

    @classmethod
    def from_json(cls, data) -> "PolygonGluing":
        if not isinstance(data, dict) or "edges" not in data or "pairing" not in data:
            raise InputError("surface data needs \"edges\" and \"pairing\"")
        for key in ("edges", "pairing"):
            if not isinstance(data[key], list):
                raise InputError(f"surface {key} must be a list")
        if len(data["edges"]) > MAX_EDGES:
            raise InputError(f"surface has {len(data['edges'])} edges, over "
                             f"the limit of {MAX_EDGES}")
        edges = []
        for k, entry in enumerate(data["edges"]):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError(f"edge {k} must be a [re, im] pair")
            re_ = _require_real_rational(entry[0], f"edge {k} real part")
            im = _require_real_rational(entry[1], f"edge {k} imaginary part")
            edges.append(ExactComplex(re_, im))
        return cls(edges, data["pairing"])

    @classmethod
    def from_file(cls, path) -> "PolygonGluing":
        return cls.from_json(load_json(path))

    def to_json(self) -> dict:
        return {
            "edges": [[str(e.re), str(e.im)] for e in self.edges],
            "pairing": [[i, j] for i, j in self.pairing],
        }


_IDENTITY = linalg.identity(2)
_ZERO = ((ExactComplex(0),) * 2,) * 2


class ChartMap(Immutable):
    """Affine chart change on (zeta, lambda), stored as v -> A v + s."""

    __slots__ = ("matrix", "shift", "_shift_k", "_translation", "_inverse",
                 "_rows")

    def __init__(self, matrix, shift):
        mat = linalg.as_matrix(matrix)
        if len(mat) != 2:
            raise InputError("chart maps act on (zeta, lambda)")
        sh = tuple(ExactComplex.coerce(x) for x in shift)
        if len(sh) != 2:
            raise InputError("chart map shift must have length 2")
        self._fill(mat, sh, mat == _IDENTITY)

    def _fill(self, matrix, shift, translation: bool) -> None:
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_shift_k",
                           tuple(x.to_kernel() for x in shift))
        object.__setattr__(self, "_translation", translation)
        object.__setattr__(self, "_inverse", None)
        # the Taylor-shift weights per shift component and degree, filled
        # by pull() as degrees come up
        object.__setattr__(self, "_rows", ({}, {}))

    @classmethod
    def translation(cls, c) -> "ChartMap":
        """The chart change (zeta, lambda) -> (zeta + c, lambda)."""
        return cls._shifted((ExactComplex.coerce(c), ExactComplex(0)))

    @classmethod
    def _shifted(cls, shift: tuple) -> "ChartMap":
        """The translation v -> v + shift, shift a pair of ExactComplex."""
        out = object.__new__(cls)
        out._fill(_IDENTITY, shift, True)
        return out

    def inverse(self) -> "ChartMap":
        """v -> A^-1 v - A^-1 s, with A^-1 the adjugate over det A; a
        translation's inverse negates its shift.

        Computed on the first call and kept on the map.
        """
        if self._inverse is None:
            if self._translation:
                inverse = ChartMap._shifted(tuple(-x for x in self.shift))
            else:
                (a, b), (c, d) = self.matrix
                det = a * d - b * c
                if det.is_zero():
                    raise InputError("matrix is singular")
                r = 1 / det
                inv = ((d * r, -b * r), (-c * r, a * r))
                s = linalg.mat_vec(inv, self.shift)
                inverse = ChartMap(inv, tuple(-x for x in s))
            object.__setattr__(self, "_inverse", inverse)
        return self._inverse

    def compose(self, other: "ChartMap") -> "ChartMap":
        """self after other: v -> self(other(v)); two translations add
        their shifts."""
        if self._translation and other._translation:
            return ChartMap._shifted(tuple(
                x + y for x, y in zip(other.shift, self.shift)))
        mat = linalg.mat_mul(self.matrix, other.matrix)
        s = linalg.mat_vec(self.matrix, other.shift)
        return ChartMap(mat, tuple(x + y for x, y in zip(s, self.shift)))

    def is_identity(self) -> bool:
        return self._translation and all(x.is_zero() for x in self.shift)

    def pull(self, f):
        """Compose with the map: f(A v + s); a translation is a Taylor
        shift, and pulls a series (HbarSeries) whole, h fixed."""
        if f.arity != 2:
            raise ArityError("chart functions have arity 2")
        if isinstance(f, HbarSeries):
            return (HbarSeries._of(f.packed._translate(self._shift_k + (
                (0, 1, 0, 1),), self._rows), f.order) if self._translation
                else f.map_coeffs(self.pull))
        if self._translation:
            return f._translate(self._shift_k, self._rows)
        return f.affine_subst(self.matrix, self.shift)

    def symplectic_residual(self, form: SymplecticForm):
        """A^T Theta A - Theta; zero exactly when the map preserves the form,
        so the zero matrix for a translation, where A = I."""
        if self._translation:
            return _ZERO
        return linalg.congruence_residual(linalg.transpose(self.matrix),
                                          form.matrix)

    def __eq__(self, other):
        return (isinstance(other, ChartMap)
                and self.matrix == other.matrix and self.shift == other.shift)

    def __repr__(self):
        return f"ChartMap({[[str(x) for x in r] for r in self.matrix]}, {[str(x) for x in self.shift]})"


class Chart(Record):
    __slots__ = ("name", "kind", "sides")

    def __init__(self, name: str, kind: str, sides: tuple = ()):
        object.__setattr__(self, "name", name)
        # "base" or "edge"
        object.__setattr__(self, "kind", kind)
        # the glued pair for edge charts
        object.__setattr__(self, "sides", sides)


class Overlap(Record):
    __slots__ = ("src", "dst", "component", "transition")

    def __init__(self, src: str, dst: str, component: str,
                 transition: ChartMap):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        # which connected piece of the overlap
        object.__setattr__(self, "component", component)
        # zeta_dst = zeta_src + c on this component
        object.__setattr__(self, "transition", transition)

    @property
    def constant(self) -> ExactComplex:
        return self.transition.shift[0]


class TranslationSurface(Immutable):
    """Ingested surface: combinatorics, stratum data, charts, overlaps."""

    __slots__ = ("edges", "vertex_classes", "zeros", "genus", "charts",
                 "overlaps", "_chart_index", "_overlap_index")

    def __init__(self, edges: tuple, vertex_classes: tuple, zeros: tuple,
                 genus: int, charts: tuple, overlaps: tuple):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertex_classes", vertex_classes)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "overlaps", overlaps)
        object.__setattr__(self, "_chart_index",
                           {chart.name: chart for chart in charts})
        object.__setattr__(self, "_overlap_index",
                           {ov.component: ov for ov in overlaps})

    def chart(self, name: str) -> Chart:
        chart = self._chart_index.get(name)
        if chart is None:
            raise InputError(f"unknown chart {name!r}")
        return chart

    def find_overlap(self, key) -> Overlap:
        if isinstance(key, Overlap):
            return key
        if isinstance(key, str):
            ov = self._overlap_index.get(key)
            if ov is None:
                raise InputError(f"no overlap component {key!r}")
            return ov
        src, dst = key
        for ov in self.overlaps:
            if (ov.src, ov.dst) == (src, dst):
                return ov
        raise InputError(f"charts {src!r} and {dst!r} are not overlapping")

    def zero_orders(self) -> list:
        return sorted((order for _, order in self.zeros), reverse=True)

    def summary(self) -> str:
        orders = self.zero_orders()
        inner = ", ".join(f"order {k}" for k in orders)
        total = sum(orders)
        return f"genus {self.genus}, zeros [{inner}], sum {total} = 2g-2"


def _backtracks(incoming, outgoing) -> bool:
    """Whether two integer edge vectors are collinear and opposed."""
    (a, b), (c, d) = incoming, outgoing
    return a * d == b * c and a * c + b * d < 0


def _corner_steps(incoming, outgoing):
    """The interior wedge at a corner, split into ccw steps of angle <= pi.

    Edge vectors are integer pairs.  The wedge opens from the outgoing
    edge direction to the reversed incoming direction; a negative cross
    product means it is reflex, and a collinear pair here is a straight
    (angle pi) corner, since exact backtracking was rejected during
    validation.
    """
    a, b = outgoing, (-incoming[0], -incoming[1])
    if a[0] * b[1] - a[1] * b[0] < 0:
        back = (-a[0], -a[1])
        return [(a, back), (back, b)]
    return [(a, b)]


def _step_crossings(a, b) -> int:
    """Positive-x-axis crossings of one ccw step of angle in (0, pi]."""
    if b[1] == 0 and b[0] > 0:
        return 1
    if a[1] < 0 and b[1] > 0:
        return 1
    return 0


def _segments_conflict(a1, a2, b1, b2, shared) -> bool:
    """Whether segments [a1,a2] and [b1,b2] meet anywhere besides shared.

    Points are integer pairs (x, y).  A meeting point a1 + d1 * n / den
    is found and tested by integer cross and dot products, comparing
    numerators against the positive denominator den without dividing.
    """
    x1, y1 = a1
    dx1, dy1 = a2[0] - x1, a2[1] - y1
    dx2, dy2 = b2[0] - b1[0], b2[1] - b1[1]
    wx, wy = b1[0] - x1, b1[1] - y1
    den = dx1 * dy2 - dy1 * dx2
    if den:
        n = wx * dy2 - wy * dx2
        tn = wx * dy1 - wy * dx1
        if den < 0:
            den, n, tn = -den, -n, -tn
        if not (0 <= n <= den and 0 <= tn <= den):
            return False
    else:
        if wx * dy1 - wy * dx1:
            return False
        # collinear: the parameter interval of [b1, b2] along d1, all
        # over den = |d1|^2, clipped to [a1, a2]
        den = dx1 * dx1 + dy1 * dy1
        t0 = wx * dx1 + wy * dy1
        t1 = (b2[0] - x1) * dx1 + (b2[1] - y1) * dy1
        lo, hi = max(min(t0, t1), 0), min(max(t0, t1), den)
        if lo > hi:
            return False
        if lo < hi:
            return True
        n = lo
    return shared is None or (dx1 * n != den * (shared[0] - x1)
                              or dy1 * n != den * (shared[1] - y1))


def ingest_polygon(pg: PolygonGluing) -> TranslationSurface:
    """Validate a gluing and build the surface with its chart system."""
    edges = pg.edges
    m = len(edges)
    if m < 3:
        raise InputError("polygon needs at least three edges")

    # every test runs on the edge vectors scaled to integers by the lcm of
    # their denominators, which keeps every sign, equality and meeting
    parts = [e.to_kernel() for e in edges]
    scale = lcm(*(d for rn, rd, jn, jd in parts for d in (rd, jd)))
    vectors = [(rn * (scale // rd), jn * (scale // jd))
               for rn, rd, jn, jd in parts]

    def exact(x: int, y: int) -> ExactComplex:
        return ExactComplex(Fraction(x, scale), Fraction(y, scale))

    for k, v in enumerate(vectors):
        if v == (0, 0):
            raise InputError(f"edge {k} is the zero vector")

    total = (sum(x for x, _ in vectors), sum(y for _, y in vectors))
    if total != (0, 0):
        raise InputError(f"polygon does not close (edge sum {exact(*total)})")

    # pairing: fixed-point-free involution covering every edge once
    seen = [False] * m
    involution = [None] * m
    for i, j in pg.pairing:
        if not (0 <= i < m and 0 <= j < m):
            raise InputError(f"pairing is not an involution: index ({i},{j}) "
                             "out of range")
        if i == j:
            raise InputError(f"pairing is not an involution: edge {i} glued "
                             "to itself")
        if seen[i] or seen[j]:
            raise InputError("pairing is not an involution: edge used twice")
        seen[i] = seen[j] = True
        involution[i], involution[j] = j, i
    if not all(seen):
        missing = [k for k in range(m) if not seen[k]]
        raise InputError(f"pairing is not an involution: edges {missing} "
                         "unmatched")

    for i, j in pg.pairing:
        if vectors[j] != (-vectors[i][0], -vectors[i][1]):
            raise InputError(
                f"paired edges unequal: edge {j} must be the reverse of "
                f"edge {i} (expected {-edges[i]}, got {edges[j]})")

    for t in range(m):
        if _backtracks(vectors[t - 1], vectors[t]):
            raise InputError(f"degenerate corner at vertex {t}: edge "
                             "backtracks on its predecessor")

    points = [(0, 0)]
    for x, y in vectors[:-1]:
        points.append((points[-1][0] + x, points[-1][1] + y))

    area2 = sum(p[0] * q[1] - p[1] * q[0]
                for p, q in zip(points, points[1:] + points[:1]))
    if area2 <= 0:
        raise InputError("polygon must be simple and counterclockwise "
                         f"(signed area {Fraction(area2, scale * scale)}/2)")

    for s in range(m):
        a1, a2 = points[s], points[(s + 1) % m]
        for t in range(s + 1, m):
            if t == s + 1:
                shared = points[t]
            elif s == 0 and t == m - 1:
                shared = points[0]
            else:
                shared = None
            if _segments_conflict(a1, a2, points[t], points[(t + 1) % m],
                                  shared):
                raise InputError(
                    f"polygon boundary crosses itself (edges {s} and {t})")

    # vertex classes: orbits of the corner walk around each glued vertex
    unvisited = set(range(m))
    vertex_classes = []
    windings = []
    while unvisited:
        start = min(unvisited)
        orbit = []
        t = start
        while True:
            orbit.append(t)
            unvisited.discard(t)
            t = involution[t - 1]
            if t == start:
                break
        crossings = 0
        for c in orbit:
            for a, b in _corner_steps(vectors[c - 1], vectors[c]):
                crossings += _step_crossings(a, b)
        if crossings < 1:
            raise InputError(
                f"cone angle not a positive multiple of 2π at vertex "
                f"class {tuple(orbit)}")
        vertex_classes.append(tuple(orbit))
        windings.append(crossings)

    v_count = len(vertex_classes)
    euler = v_count - m // 2 + 1
    if euler % 2 != 0:
        raise InputError("gluing does not produce a closed surface "
                         f"(Euler characteristic {euler})")
    genus = (2 - euler) // 2
    if genus < 1:
        raise InputError(f"genus must be at least 1, got {genus}")

    zeros = tuple((idx, w - 1) for idx, w in enumerate(windings) if w > 1)
    assert sum(order for _, order in zeros) == 2 * genus - 2

    # per pair an edge chart and its base-to-edge overlaps: the anchor
    # side i carries constant 0, the far side j is brought onto it by
    # undoing the gluing translation, from the start of side i to the end
    # of side j
    charts = [Chart("base", "base")]
    overlaps = []
    chart_of_side = [None] * m
    side_constant = [None] * m
    for i, j in pg.pairing:
        name = f"edge{i}:{j}"
        charts.append(Chart(name, "edge", (i, j)))
        chart_of_side[i] = chart_of_side[j] = name
        start, end = points[i], points[(j + 1) % m]
        side_constant[i] = (0, 0)
        side_constant[j] = far = (start[0] - end[0], start[1] - end[1])
        overlaps.append(Overlap("base", name, f"side{i}",
                                ChartMap.translation(0)))
        overlaps.append(Overlap("base", name, f"side{j}",
                                ChartMap.translation(exact(*far))))

    # corner overlaps between the edge charts of consecutive sides
    for t in range(m):
        (x1, y1), (x2, y2) = side_constant[t - 1], side_constant[t]
        overlaps.append(Overlap(chart_of_side[t - 1], chart_of_side[t],
                                f"corner{t}",
                                ChartMap.translation(exact(x2 - x1, y2 - y1))))

    return TranslationSurface(edges, tuple(vertex_classes), zeros, genus,
                              tuple(charts), tuple(overlaps))


def ingest_json(data) -> TranslationSurface:
    return ingest_polygon(PolygonGluing.from_json(data))


# -- chart-local quantization ------------------------------------------------

_CHART_FORM = SymplecticForm.standard(1)
_CHART_STAR = StarProduct.standard(1)


def chart_form() -> SymplecticForm:
    """The form every chart carries in its (zeta, lambda) coordinates."""
    return _CHART_FORM


def chart_star(surface: TranslationSurface, chart_name: str,
               f: SparsePoly, g: SparsePoly, order: int) -> HbarSeries:
    """Star product of two chart functions, in chart coordinates."""
    surface.chart(chart_name)
    return _CHART_STAR.star(f, g, order)


def _transitions(surface: TranslationSurface, overrides: dict | None) -> dict:
    """The surface's transitions by component label, with overrides laid
    over them, after refusing a label that names no overlap component:
    it would replace nothing."""
    for label in overrides or {}:
        # as text, so that a (src, dst) pair is not taken for a label
        surface.find_overlap(str(label))
    return {**{ov.component: ov.transition for ov in surface.overlaps},
            **(overrides or {})}


def liouville_pullback_check(surface: TranslationSurface,
                             overrides: dict | None = None) -> Report:
    """Every chart transition must preserve the chart symplectic form.

    overrides maps component labels to replacement ChartMaps, letting a
    caller probe how a corrupted transition is reported.
    """
    rep = Report("cotangent transitions preserve the form")
    transitions = _transitions(surface, overrides)
    for ov in surface.overlaps:
        residual = transitions[ov.component].symplectic_residual(_CHART_FORM)
        ok = linalg.is_zero_matrix(residual)
        rep.add(f"{ov.src}->{ov.dst} [{ov.component}]", ok,
                "" if ok else "residual 2-form "
                f"{[[str(x) for x in row] for row in residual]}")
    return rep


def cocycle_check(surface: TranslationSurface,
                  overrides: dict | None = None) -> Report:
    """Around every corner, base->edge1->edge2 must equal base->edge2."""
    rep = Report("overlap cocycle")
    transitions = _transitions(surface, overrides)
    m = len(surface.edges)
    for t in range(m):
        to_first = transitions[f"side{(t - 1) % m}"]
        across = transitions[f"corner{t}"]
        to_second = transitions[f"side{t}"]
        residual = to_second.inverse().compose(across.compose(to_first))
        ok = residual.is_identity()
        rep.add(f"corner{t}", ok,
                "" if ok else f"composition residual {residual!r}")
    return rep


def overlap_agreement_check(surface: TranslationSurface, overlap, f, g,
                            order: int,
                            transition: ChartMap | None = None) -> Report:
    """Quantize on either side of an overlap and compare exactly.

    The product is computed in the source chart directly, then again by
    re-expressing both inputs in the destination chart (pulling them
    through the inverse of the given transition, by default the overlap's
    own), starring there, and pulling the result back through the
    overlap's recorded transition.  The return leg always uses the surface
    data, so a corrupted forward transition shows up as a mismatch instead
    of silently cancelling.

    Every chart carries the same product, so where the given inverse and
    the recorded transition are both the identity the comparison is the
    product against itself: it is recorded as passed and nothing is
    starred.  A translation pulls the product back whole, h fixed.
    """
    ov = surface.find_overlap(overlap)
    forward = transition if transition is not None else ov.transition
    back = forward.inverse()
    rep = Report("overlap agreement")
    name = f"{ov.src}->{ov.dst} [{ov.component}]"
    if back.is_identity() and ov.transition.is_identity():
        rep.add(name, True)
        return rep
    direct = chart_star(surface, ov.src, f, g, order)
    remote = (direct if back.is_identity() else
              chart_star(surface, ov.dst, back.pull(f), back.pull(g), order))
    rep.add_equal(name, direct, ov.transition.pull(remote))
    return rep
