import json
from fractions import Fraction

import pytest

from starkit import atlas, linalg
from starkit.corpus import random_poly_pairs
from starkit.errors import InputError
from starkit.poly import SparsePoly
from starkit.scalars import ExactComplex

from conftest import fixture_path


def ingest(edges, pairing):
    return atlas.ingest_polygon(atlas.PolygonGluing.from_json(
        {"edges": edges, "pairing": pairing}))


# -- stratum data for the bundled surfaces -----------------------------------

def test_square_torus(square_surface):
    s = square_surface
    assert s.genus == 1
    assert s.zero_orders() == []
    assert len(s.vertex_classes) == 1
    assert len(s.charts) == 3          # base + one per edge pair
    assert len(s.overlaps) == 8
    assert s.summary() == "genus 1, zeros [], sum 0 = 2g-2"


def test_octagon_genus_two(octagon_surface):
    s = octagon_surface
    assert s.genus == 2
    assert s.zero_orders() == [2]
    assert len(s.vertex_classes) == 1
    assert len(s.charts) == 5
    assert len(s.overlaps) == 16
    assert s.summary() == "genus 2, zeros [order 2], sum 2 = 2g-2"


def test_remaining_surfaces(all_surfaces):
    lshape = all_surfaces["lshape"]
    assert (lshape.genus, lshape.zero_orders()) == (2, [2])
    decagon = all_surfaces["decagon"]
    assert (decagon.genus, decagon.zero_orders()) == (2, [1, 1])
    assert decagon.summary() == \
        "genus 2, zeros [order 1, order 1], sum 2 = 2g-2"
    hexagon = all_surfaces["hexagon"]
    assert (hexagon.genus, hexagon.zero_orders()) == (1, [])


def test_zero_orders_always_account_for_genus(all_surfaces):
    for s in all_surfaces.values():
        assert sum(s.zero_orders()) == 2 * s.genus - 2


# -- rejection paths ---------------------------------------------------------

def test_rejects_too_few_edges():
    with pytest.raises(InputError, match="at least three"):
        ingest([["1", "0"], ["-1", "0"]], [[0, 1]])


def test_rejects_zero_edge():
    with pytest.raises(InputError, match="zero vector"):
        ingest([["1", "0"], ["0", "0"], ["-1", "0"], ["0", "1"]],
               [[0, 2], [1, 3]])


def test_rejects_open_polygon():
    with pytest.raises(InputError, match="does not close"):
        ingest([["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-2"]],
               [[0, 2], [1, 3]])


def test_rejects_bad_pairings():
    square = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
    with pytest.raises(InputError, match="glued to itself"):
        ingest(square, [[0, 0], [1, 3]])
    with pytest.raises(InputError, match="out of range"):
        ingest(square, [[0, 7], [1, 3]])
    with pytest.raises(InputError, match="used twice"):
        ingest(square, [[0, 2], [0, 3]])
    with pytest.raises(InputError, match="unmatched"):
        ingest(square, [[0, 2]])


def test_rejects_unequal_paired_edges():
    with pytest.raises(InputError, match="paired edges unequal"):
        ingest([["1", "0"], ["0", "1"], ["-1", "1"], ["0", "-2"]],
               [[0, 2], [1, 3]])


def test_rejects_backtracking_corner():
    # edge 1 exactly reverses edge 0 at vertex 1
    edges = [["1", "0"], ["-1", "0"], ["1", "0"],
             ["0", "1"], ["-1", "0"], ["0", "-1"]]
    with pytest.raises(InputError, match="backtracks"):
        ingest(edges, [[0, 1], [2, 4], [3, 5]])


def test_rejects_clockwise_polygon():
    with pytest.raises(InputError, match="counterclockwise"):
        ingest([["0", "1"], ["1", "0"], ["0", "-1"], ["-1", "0"]],
               [[0, 2], [1, 3]])


def test_rejects_self_crossing_boundary():
    # closes, pairs opposite edges, positive area, yet edges 0 and 3 cross
    edges = [["3", "0"], ["1", "2"], ["-3", "0"],
             ["1", "-2"], ["-1", "-2"], ["-1", "2"]]
    with pytest.raises(InputError, match="crosses itself"):
        ingest(edges, [[0, 2], [1, 4], [3, 5]])


def test_rejects_floats_in_json():
    with pytest.raises(InputError, match="not a float"):
        atlas.PolygonGluing.from_json(
            {"edges": [[0.5, "0"], ["0", "1"], ["-1/2", "0"], ["0", "-1"]],
             "pairing": [[0, 2], [1, 3]]})


def test_rejects_missing_keys():
    with pytest.raises(InputError, match="needs"):
        atlas.PolygonGluing.from_json({"edges": []})


# -- chart maps --------------------------------------------------------------

def c2(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def test_translation_chart_map_round_trip():
    t = atlas.ChartMap.translation(c2(3, 1))
    assert t.compose(t.inverse()).is_identity()
    f = SparsePoly.variable(2, 1) ** 2 + SparsePoly.variable(2, 2)
    assert t.pull(t.inverse().pull(f)) == f
    assert t.inverse().pull(t.pull(f)) == f


def test_non_translation_chart_map_inverse():
    m = atlas.ChartMap([[c2(2, 1), c2(Fraction(1, 3))],
                        [c2(-1, 2), c2(Fraction(3, 4), -1)]],
                       [c2(Fraction(5, 2), -3), c2(0, Fraction(1, 7))])
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    assert inv.compose(m).is_identity()
    f = SparsePoly.variable(2, 1) ** 2 * SparsePoly.variable(2, 2)
    assert m.pull(inv.pull(f)) == f


def test_chart_map_inverse_is_kept():
    shear = atlas.ChartMap([[1, c2(Fraction(2, 3), 1)], [0, 1]],
                           [c2(-1, 2), c2(Fraction(1, 5))])
    inv = shear.inverse()
    assert shear.inverse() is inv
    # the adjugate of [[1, b], [0, 1]] is [[1, -b], [0, 1]]
    b = shear.matrix[0][1]
    want = atlas.ChartMap([[1, -b], [0, 1]], [-x for x in linalg.mat_vec(
        ((1, -b), (0, 1)), shear.shift)])
    assert inv == want
    assert shear.compose(inv).is_identity()
    t = atlas.ChartMap.translation(c2(3, 1))
    assert t.inverse() is t.inverse()
    assert t.inverse() == atlas.ChartMap.translation(c2(-3, -1))


def test_translation_pull_keeps_its_taylor_rows():
    # pull() fills the map's rows as degrees come up and reads them on
    # later calls; each pull equals the public translate
    t = atlas.ChartMap([[1, 0], [0, 1]], [c2(Fraction(2, 3), 1),
                                          c2(-1, Fraction(1, 2))])
    pairs = random_poly_pairs(2, 4, 3, seed=5)
    for _ in range(2):
        for f, g in pairs:
            for p in (f, g, f * g):
                assert t.pull(p) == p.translate(t.shift)
    rows = t._rows
    assert rows[0] and rows[1]
    assert t.pull(pairs[0][0]) == pairs[0][0].translate(t.shift)
    assert t._rows is rows
    degrees = max(max(e) for f, g in pairs for e in (f * g)._terms)
    assert max(rows[0]) <= degrees and max(rows[1]) <= degrees


def test_singular_chart_map_has_no_inverse():
    m = atlas.ChartMap([[c2(1, 1), c2(2)], [c2(1), c2(1, -1)]], [0, 0])
    with pytest.raises(InputError, match="matrix is singular"):
        m.inverse()


def test_cotangent_transition_moves_base_only():
    # base coordinate shifts, fiber coordinate is untouched
    t = atlas.ChartMap.translation(c2(5))
    zeta = SparsePoly.variable(2, 1)
    lam = SparsePoly.variable(2, 2)
    assert t.pull(zeta) == zeta + SparsePoly.const(2, 5)
    assert t.pull(lam) == lam


def test_chart_map_symplectic_residual():
    form = atlas.chart_form()
    good = atlas.ChartMap.translation(c2(2, 3))
    assert linalg.is_zero_matrix(good.symplectic_residual(form))
    bad = atlas.ChartMap([[2, 0], [0, 1]], [0, 0])
    assert not linalg.is_zero_matrix(bad.symplectic_residual(form))


def test_compose_order():
    a = atlas.ChartMap.translation(c2(1))
    b = atlas.ChartMap([[1, 0], [1, 1]], [0, 0])
    f = SparsePoly.variable(2, 1)
    # (b o a).pull substitutes a first, then b
    assert b.compose(a).pull(f) == a.pull(b.pull(f))


# -- patching ----------------------------------------------------------------

def test_liouville_pullback_on_all_surfaces(all_surfaces):
    for name, s in all_surfaces.items():
        rep = atlas.liouville_pullback_check(s)
        assert rep.passed, (name, rep.failures())


def test_liouville_detects_non_symplectic_override(square_surface):
    # a shear would pass (it is symplectic); an area-doubling map cannot
    bad = atlas.ChartMap([[2, 0], [0, 1]], [0, 0])
    label = square_surface.overlaps[0].component
    rep = atlas.liouville_pullback_check(square_surface, {label: bad})
    assert not rep.passed
    assert len(rep.failures()) == 1
    assert "residual 2-form" in rep.failures()[0].detail


def test_cocycle_on_all_surfaces(all_surfaces):
    for name, s in all_surfaces.items():
        rep = atlas.cocycle_check(s)
        assert rep.passed, (name, rep.failures())


def test_cocycle_detects_corrupted_corner(square_surface):
    corner = next(ov for ov in square_surface.overlaps
                  if ov.component.startswith("corner"))
    bad = atlas.ChartMap.translation(corner.constant + ExactComplex(1))
    rep = atlas.cocycle_check(square_surface, {corner.component: bad})
    assert not rep.passed


@pytest.mark.parametrize("check, label, bad", [
    (atlas.liouville_pullback_check, "side9",
     atlas.ChartMap([[2, 0], [0, 1]], [0, 0])),
    (atlas.cocycle_check, "corner9", atlas.ChartMap.translation(1)),
], ids=["liouville", "cocycle"])
def test_unknown_override_label_is_refused(square_surface, check, label,
                                           bad):
    # the same map fails the check under a real label; under a label
    # that names no component it would replace nothing and pass
    real = label[:-1] + "0"
    assert not check(square_surface, {real: bad}).passed
    with pytest.raises(InputError, match=f"no overlap component '{label}'"):
        check(square_surface, {label: bad})


def test_overlap_agreement_on_sample_pairs(square_surface, octagon_surface):
    for s in (square_surface, octagon_surface):
        ov = s.overlaps[1]
        for f, g in random_poly_pairs(2, 3, 3, seed=8):
            rep = atlas.overlap_agreement_check(s, ov, f, g, order=6)
            assert rep.passed, rep.failures()


def test_agreement_detects_fiber_corruption(square_surface):
    # corrupt: shift the fiber coordinate along with the base
    ov = next(o for o in square_surface.overlaps
              if not o.constant.is_zero())
    c = ov.constant
    bad = atlas.ChartMap([[1, 0], [0, 1]], [c, c])
    f = SparsePoly.variable(2, 1) * SparsePoly.variable(2, 2)
    g = SparsePoly.variable(2, 2) ** 2
    rep = atlas.overlap_agreement_check(square_surface, ov, f, g, order=6,
                                        transition=bad)
    assert not rep.passed


def test_agreement_detects_linear_corruption(octagon_surface):
    ov = octagon_surface.overlaps[0]
    bad = atlas.ChartMap([[1, 0], [1, 1]], [ov.constant, ExactComplex(0)])
    f = SparsePoly.variable(2, 1) ** 2
    g = SparsePoly.variable(2, 2) ** 2
    rep = atlas.overlap_agreement_check(octagon_surface, ov, f, g, order=6,
                                        transition=bad)
    assert not rep.passed


def test_chart_star_runs_in_every_chart(square_surface):
    f = SparsePoly.variable(2, 1)
    g = SparsePoly.variable(2, 2)
    for chart in square_surface.charts:
        got = atlas.chart_star(square_surface, chart.name, f, g, order=2)
        assert str(got) == "z1*z2 - 1/2*i*h"


def test_find_overlap_lookups(square_surface):
    ov = square_surface.overlaps[0]
    assert square_surface.find_overlap(ov.component) is ov
    assert square_surface.find_overlap((ov.src, ov.dst)) is ov
    with pytest.raises(InputError):
        square_surface.find_overlap("side99")
    with pytest.raises(InputError):
        square_surface.chart("nope")


# -- serialization -----------------------------------------------------------

def test_gluing_json_round_trip(tmp_path):
    pg = atlas.PolygonGluing.from_file(fixture_path("octagon.json"))
    data = pg.to_json()
    again = atlas.PolygonGluing.from_json(json.loads(json.dumps(data)))
    assert again.to_json() == data


def test_ingest_json_entry_point():
    with open(fixture_path("square.json"), "r", encoding="utf-8") as fh:
        s = atlas.ingest_json(json.load(fh))
    assert s.genus == 1
