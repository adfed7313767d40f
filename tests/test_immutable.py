import pytest

from starkit import atlas, multi, transport
from starkit.moyal import StarProduct
from starkit.poisson import PoissonBivector, SymplecticForm
from starkit.poly import SparsePoly
from starkit.reports import CheckEntry, Report
from starkit.scalars import ExactComplex
from starkit.series import HbarSeries

from conftest import fixture_path

# one value of each immutable type, built on demand
VALUES = {
    "SparsePoly": lambda: SparsePoly.variable(2, 1),
    "HbarSeries": lambda: HbarSeries.from_poly(SparsePoly.variable(2, 1), 2),
    "ExactComplex": lambda: ExactComplex(1, 2),
    "SymplecticForm": lambda: SymplecticForm.standard(1),
    "PoissonBivector": lambda: PoissonBivector([[0, 1], [-1, 0]]),
    "StarProduct": lambda: StarProduct.standard(1),
    "ProductSpace": lambda: multi.ProductSpace(2),
    "Permutation": lambda: multi.Permutation([1, 0]),
    "PolygonGluing": lambda: atlas.PolygonGluing.from_file(
        fixture_path("square.json")),
    "ChartMap": lambda: atlas.ChartMap.translation(1),
    "TranslationSurface": lambda: atlas.ingest_polygon(
        atlas.PolygonGluing.from_file(fixture_path("square.json"))),
    "SymplectoMap": lambda: transport.SymplectoMap.from_file(
        fixture_path("shear_map.json")),
    "CheckEntry": lambda: CheckEntry("unit[0]", True),
    "Chart": lambda: atlas.Chart("e0", "edge", (0, 2)),
    "Overlap": lambda: atlas.Overlap("base", "e0", "side0",
                                     atlas.ChartMap.translation(1)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_refuse_assignment(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    # a field the type has, and a name it does not
    for attr in (type(value).__slots__[0], "extra"):
        before = getattr(value, attr, None)
        with pytest.raises(AttributeError) as info:
            setattr(value, attr, 0)
        assert str(info.value) == f"{name} is immutable"
        assert getattr(value, attr, None) is before


def test_records_compare_hash_and_print_by_value():
    # equal fields make equal records with equal hashes; any one field
    # differing makes them unequal
    entry = CheckEntry("unit[0]", False, "got 1")
    assert entry == CheckEntry("unit[0]", False, "got 1")
    assert hash(entry) == hash(CheckEntry("unit[0]", False, "got 1"))
    assert entry != CheckEntry("unit[0]", True, "got 1")
    assert entry != CheckEntry("unit[1]", False, "got 1")
    assert CheckEntry("x", True) == CheckEntry("x", True, "")
    assert repr(entry) == (
        "CheckEntry(name='unit[0]', passed=False, detail='got 1')")

    chart = atlas.Chart("e0", "edge", (0, 2))
    assert chart == atlas.Chart("e0", "edge", (0, 2))
    assert hash(chart) == hash(atlas.Chart("e0", "edge", (0, 2)))
    assert chart != atlas.Chart("e0", "edge", (1, 3))
    assert atlas.Chart("base", "base").sides == ()
    assert repr(chart) == "Chart(name='e0', kind='edge', sides=(0, 2))"

    shift = atlas.ChartMap.translation(1)
    overlap = atlas.Overlap("base", "e0", "side0", shift)
    assert overlap == atlas.Overlap("base", "e0", "side0",
                                    atlas.ChartMap.translation(1))
    assert overlap != atlas.Overlap("base", "e0", "side0",
                                    atlas.ChartMap.translation(2))
    assert overlap.constant == ExactComplex(1)
    assert repr(overlap) == (
        "Overlap(src='base', dst='e0', component='side0', "
        "transition=ChartMap([['1', '0'], ['0', '1']], ['1', '0']))")
    # an overlap hashes by its fields, and a chart map has no hash
    with pytest.raises(TypeError, match="unhashable type: 'ChartMap'"):
        hash(overlap)

    # records of different types never compare equal
    assert chart != CheckEntry("e0", "edge", (0, 2))


def test_reports_compare_by_value_and_do_not_hash():
    report = Report("x", [CheckEntry("a", True)])
    assert report == Report("x", [CheckEntry("a", True)])
    assert report != Report("y", [CheckEntry("a", True)])
    assert report != Report("x", [CheckEntry("a", False)])
    built = Report("x")
    built.add("a", 1)
    assert built == report
    # Report(title) gets a fresh list each time
    assert Report("t").entries is not Report("t").entries
    assert Report() == Report("", [])
    with pytest.raises(TypeError, match="unhashable type: 'Report'"):
        hash(report)
    assert repr(report) == (
        "Report(title='x', entries=[CheckEntry(name='a', passed=True, "
        "detail='')])")
