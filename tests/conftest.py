import pathlib

import pytest

from starkit import atlas

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def symmetric_polygon(pairs: int) -> dict:
    """Surface JSON of a convex polygon with 2 * pairs edges, each glued to
    its opposite: the edges (1, k) turn counterclockwise, then repeat
    reversed."""
    half = [(1, k - pairs // 2) for k in range(pairs)]
    edges = half + [(-x, -y) for x, y in half]
    return {"edges": [[str(x), str(y)] for x, y in edges],
            "pairing": [[k, k + pairs] for k in range(pairs)]}


@pytest.fixture(scope="session")
def square_surface():
    return atlas.ingest_polygon(atlas.PolygonGluing.from_file(
        fixture_path("square.json")))


@pytest.fixture(scope="session")
def octagon_surface():
    return atlas.ingest_polygon(atlas.PolygonGluing.from_file(
        fixture_path("octagon.json")))


@pytest.fixture(scope="session")
def all_surfaces(square_surface, octagon_surface):
    extra = {
        name: atlas.ingest_polygon(atlas.PolygonGluing.from_file(
            fixture_path(f"{name}.json")))
        for name in ("lshape", "decagon", "hexagon")
    }
    return {"square": square_surface, "octagon": octagon_surface, **extra}
