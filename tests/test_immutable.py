import pytest

from starkit import atlas, multi, transport
from starkit.moyal import StarProduct
from starkit.poisson import PoissonBivector, SymplecticForm
from starkit.poly import SparsePoly
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
    "Configuration": lambda: multi.Configuration([(1, 2)]),
    "PolygonGluing": lambda: atlas.PolygonGluing.from_file(
        fixture_path("square.json")),
    "ChartMap": lambda: atlas.ChartMap.translation(1),
    "TranslationSurface": lambda: atlas.ingest_polygon(
        atlas.PolygonGluing.from_file(fixture_path("square.json"))),
    "SymplectoMap": lambda: transport.SymplectoMap.from_file(
        fixture_path("shear_map.json")),
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
