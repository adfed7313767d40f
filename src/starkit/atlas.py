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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ArityError, Immutable, InputError, load_json
from .moyal import StarProduct
from .poisson import SymplecticForm
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex, parse_rational
from .series import HbarSeries


def _cross(a: ExactComplex, b: ExactComplex) -> Fraction:
    return a.re * b.im - a.im * b.re


def _dot(a: ExactComplex, b: ExactComplex) -> Fraction:
    return a.re * b.re + a.im * b.im


def _require_real_rational(value, what: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(
            f"{what} must be an exact rational (\"p/q\" string), not a float")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"{what} must be an exact rational \"p/q\" string")


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
            if not isinstance(i, int) or not isinstance(j, int):
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
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shift", sh)
        object.__setattr__(self, "_shift_k", tuple(x.to_kernel() for x in sh))
        object.__setattr__(self, "_translation", mat == _IDENTITY)
        object.__setattr__(self, "_inverse", None)
        # the Taylor-shift weights per shift component and degree, filled
        # by pull() as degrees come up
        object.__setattr__(self, "_rows", ({}, {}))

    @classmethod
    def translation(cls, c) -> "ChartMap":
        """The chart change (zeta, lambda) -> (zeta + c, lambda)."""
        return cls(_IDENTITY, (ExactComplex.coerce(c), ExactComplex(0)))

    def inverse(self) -> "ChartMap":
        """v -> A^-1 v - A^-1 s, with A^-1 the adjugate over det A.

        Computed on the first call and kept on the map.
        """
        if self._inverse is None:
            (a, b), (c, d) = self.matrix
            det = a * d - b * c
            if det.is_zero():
                raise InputError("matrix is singular")
            r = 1 / det
            inv = ((d * r, -b * r), (-c * r, a * r))
            s = linalg.mat_vec(inv, self.shift)
            object.__setattr__(self, "_inverse",
                               ChartMap(inv, tuple(-x for x in s)))
        return self._inverse

    def compose(self, other: "ChartMap") -> "ChartMap":
        """self after other: v -> self(other(v))."""
        mat = linalg.mat_mul(self.matrix, other.matrix)
        s = linalg.mat_vec(self.matrix, other.shift)
        return ChartMap(mat, tuple(x + y for x, y in zip(s, self.shift)))

    def is_identity(self) -> bool:
        return self._translation and all(x.is_zero() for x in self.shift)

    def pull(self, f: SparsePoly) -> SparsePoly:
        """Compose with the map: f(A v + s); a translation is a Taylor shift."""
        if f.arity != 2:
            raise ArityError("chart functions have arity 2")
        if self._translation:
            return f._translate(self._shift_k, self._rows)
        return f.affine_subst(self.matrix, self.shift)

    def symplectic_residual(self, form: SymplecticForm):
        """A^T Theta A - Theta; zero exactly when the map preserves the form."""
        return linalg.congruence_residual(linalg.transpose(self.matrix),
                                          form.matrix)

    def __eq__(self, other):
        return (isinstance(other, ChartMap)
                and self.matrix == other.matrix and self.shift == other.shift)

    def __repr__(self):
        return f"ChartMap({[[str(x) for x in r] for r in self.matrix]}, {[str(x) for x in self.shift]})"


@dataclass(frozen=True)
class Chart:
    name: str
    kind: str            # "base" or "edge"
    sides: tuple = ()    # the glued pair for edge charts


@dataclass(frozen=True)
class Overlap:
    src: str
    dst: str
    component: str       # which connected piece of the overlap
    transition: ChartMap # zeta_dst = zeta_src + c on this component

    @property
    def constant(self) -> ExactComplex:
        return self.transition.shift[0]


class TranslationSurface(Immutable):
    """Ingested surface: combinatorics, stratum data, charts, overlaps."""

    __slots__ = ("edges", "pairing", "involution", "vertices", "translations",
                 "vertex_classes", "windings", "zeros", "genus", "charts",
                 "overlaps")

    def __init__(self, **fields):
        for name in TranslationSurface.__slots__:
            object.__setattr__(self, name, fields[name])

    def chart(self, name: str) -> Chart:
        for chart in self.charts:
            if chart.name == name:
                return chart
        raise InputError(f"unknown chart {name!r}")

    def find_overlap(self, key) -> Overlap:
        if isinstance(key, Overlap):
            return key
        if isinstance(key, str):
            for ov in self.overlaps:
                if ov.component == key:
                    return ov
            raise InputError(f"no overlap component {key!r}")
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


def _corner_steps(incoming: ExactComplex, outgoing: ExactComplex):
    """The interior wedge at a corner, split into ccw steps of angle <= pi.

    The wedge opens from the outgoing edge direction to the reversed
    incoming direction; a negative cross product means it is reflex, and
    a collinear pair here is a straight (angle pi) corner, since exact
    backtracking was rejected during validation.
    """
    a, b = outgoing, -incoming
    cr = _cross(a, b)
    if cr > 0:
        return [(a, b)]
    if cr < 0:
        return [(a, -a), (-a, b)]
    return [(a, b)]


def _step_crossings(a: ExactComplex, b: ExactComplex) -> int:
    """Positive-x-axis crossings of one ccw step of angle in (0, pi]."""
    if b.im == 0 and b.re > 0:
        return 1
    if a.im < 0 and b.im > 0:
        return 1
    return 0


def _segments_conflict(a1, a2, b1, b2, shared) -> bool:
    """Whether segments [a1,a2] and [b1,b2] meet anywhere besides shared."""
    d1 = a2 - a1
    d2 = b2 - b1
    w = b1 - a1
    denom = _cross(d1, d2)
    if denom != 0:
        s = _cross(w, d2) / denom
        t = _cross(w, d1) / denom
        if 0 <= s <= 1 and 0 <= t <= 1:
            point = a1 + d1 * s
            return shared is None or point != shared
        return False
    if _cross(w, d1) != 0:
        return False
    # collinear: compare parameter intervals along d1
    dd = _dot(d1, d1)
    t0 = _dot(b1 - a1, d1) / dd
    t1 = _dot(b2 - a1, d1) / dd
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return False
    if lo < hi:
        return True
    point = a1 + d1 * lo
    return shared is None or point != shared


def ingest_polygon(pg: PolygonGluing) -> TranslationSurface:
    """Validate a gluing and build the surface with its chart system."""
    edges = pg.edges
    m = len(edges)
    if m < 3:
        raise InputError("polygon needs at least three edges")
    for k, e in enumerate(edges):
        if e.is_zero():
            raise InputError(f"edge {k} is the zero vector")

    total = ExactComplex(0)
    for e in edges:
        total = total + e
    if not total.is_zero():
        raise InputError(f"polygon does not close (edge sum {total})")

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
        if edges[j] != -edges[i]:
            raise InputError(
                f"paired edges unequal: edge {j} must be the reverse of "
                f"edge {i} (expected {-edges[i]}, got {edges[j]})")

    for t in range(m):
        prev = edges[(t - 1) % m]
        cur = edges[t]
        if _cross(prev, cur) == 0 and _dot(prev, cur) < 0:
            raise InputError(f"degenerate corner at vertex {t}: edge "
                             "backtracks on its predecessor")

    vertices = [ExactComplex(0)]
    for e in edges[:-1]:
        vertices.append(vertices[-1] + e)
    vertices = tuple(vertices)

    area2 = Fraction(0)
    for t in range(m):
        area2 += _cross(vertices[t], vertices[(t + 1) % m])
    if area2 <= 0:
        raise InputError("polygon must be simple and counterclockwise "
                         f"(signed area {area2}/2)")

    for s in range(m):
        for t in range(s + 1, m):
            a1, a2 = vertices[s], vertices[(s + 1) % m]
            b1, b2 = vertices[t], vertices[(t + 1) % m]
            if t == s + 1:
                shared = vertices[t]
            elif s == 0 and t == m - 1:
                shared = vertices[0]
            else:
                shared = None
            if _segments_conflict(a1, a2, b1, b2, shared):
                raise InputError(
                    f"polygon boundary crosses itself (edges {s} and {t})")

    # vertex classes: orbits of the corner walk around each glued vertex
    def corner_next(t: int) -> int:
        return involution[(t - 1) % m]

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
            t = corner_next(t)
            if t == start:
                break
        crossings = 0
        for c in orbit:
            incoming = edges[(c - 1) % m]
            outgoing = edges[c]
            for a, b in _corner_steps(incoming, outgoing):
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

    pairs = tuple(pg.pairing)
    translations = {}
    for i, j in pairs:
        translations[(i, j)] = vertices[(j + 1) % m] - vertices[i]

    charts = [Chart("base", "base")]
    chart_of_side = {}
    for i, j in pairs:
        name = f"edge{i}:{j}"
        charts.append(Chart(name, "edge", (i, j)))
        chart_of_side[i] = name
        chart_of_side[j] = name

    # base-to-edge overlaps: the anchor side i carries constant 0, the far
    # side j is brought onto it by undoing the gluing translation
    overlaps = []
    side_constant = {}
    for i, j in pairs:
        name = chart_of_side[i]
        t_ij = translations[(i, j)]
        side_constant[i] = ExactComplex(0)
        side_constant[j] = -t_ij
        overlaps.append(Overlap("base", name, f"side{i}",
                                ChartMap.translation(0)))
        overlaps.append(Overlap("base", name, f"side{j}",
                                ChartMap.translation(-t_ij)))

    # corner overlaps between the edge charts of consecutive sides
    for t in range(m):
        prev_side = (t - 1) % m
        c1 = side_constant[prev_side]
        c2 = side_constant[t]
        src = chart_of_side[prev_side]
        dst = chart_of_side[t]
        overlaps.append(Overlap(src, dst, f"corner{t}",
                                ChartMap.translation(c2 - c1)))

    return TranslationSurface(
        edges=edges,
        pairing=pairs,
        involution=tuple(involution),
        vertices=vertices,
        translations=translations,
        vertex_classes=tuple(vertex_classes),
        windings=tuple(windings),
        zeros=zeros,
        genus=genus,
        charts=tuple(charts),
        overlaps=tuple(overlaps),
    )


def ingest_json(data) -> TranslationSurface:
    return ingest_polygon(PolygonGluing.from_json(data))


# -- chart-local quantization ------------------------------------------------

_CHART_FORM = SymplecticForm.standard(1)
_CHART_STAR = StarProduct.from_form(_CHART_FORM)


def chart_form() -> SymplecticForm:
    """The form every chart carries in its (zeta, lambda) coordinates."""
    return _CHART_FORM


def chart_star(surface: TranslationSurface, chart_name: str,
               f: SparsePoly, g: SparsePoly, order: int) -> HbarSeries:
    """Star product of two chart functions, in chart coordinates."""
    surface.chart(chart_name)
    return _CHART_STAR.star(f, g, order)


def _overrides(surface: TranslationSurface, overrides: dict | None) -> dict:
    """overrides, or {} for None, after refusing a label that names no
    overlap component: it would replace nothing."""
    for label in overrides or {}:
        # as text, so that a (src, dst) pair is not taken for a label
        surface.find_overlap(str(label))
    return overrides or {}


def liouville_pullback_check(surface: TranslationSurface,
                             overrides: dict | None = None) -> Report:
    """Every chart transition must preserve the chart symplectic form.

    overrides maps component labels to replacement ChartMaps, letting a
    caller probe how a corrupted transition is reported.
    """
    rep = Report("cotangent transitions preserve the form")
    overrides = _overrides(surface, overrides)
    for ov in surface.overlaps:
        transition = overrides.get(ov.component, ov.transition)
        residual = transition.symplectic_residual(_CHART_FORM)
        ok = linalg.is_zero_matrix(residual)
        rep.add(f"{ov.src}->{ov.dst} [{ov.component}]", ok,
                "" if ok else "residual 2-form "
                f"{[[str(x) for x in row] for row in residual]}")
    return rep


def cocycle_check(surface: TranslationSurface,
                  overrides: dict | None = None) -> Report:
    """Around every corner, base->edge1->edge2 must equal base->edge2."""
    rep = Report("overlap cocycle")
    overrides = _overrides(surface, overrides)

    def lookup(component: str) -> ChartMap:
        if component in overrides:
            return overrides[component]
        return surface.find_overlap(component).transition

    m = len(surface.edges)
    for t in range(m):
        prev_side = (t - 1) % m
        to_first = lookup(f"side{prev_side}")
        across = lookup(f"corner{t}")
        to_second = lookup(f"side{t}")
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
    """
    ov = surface.find_overlap(overlap)
    forward = transition if transition is not None else ov.transition
    direct = chart_star(surface, ov.src, f, g, order)
    back = forward.inverse()
    remote = chart_star(surface, ov.dst, back.pull(f), back.pull(g), order)
    returned = remote.map_coeffs(ov.transition.pull)
    rep = Report("overlap agreement")
    rep.add_equal(f"{ov.src}->{ov.dst} [{ov.component}]", direct, returned)
    return rep
