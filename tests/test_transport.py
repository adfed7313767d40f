import json

import pytest

from starkit import transport
from starkit.corpus import (random_poly, random_poly_triples,
                            random_symplectomorphisms)
from starkit.errors import InputError
from starkit.moyal import StarProduct, verify_star_axioms
from starkit.parsing import parse_poly
from starkit.poisson import SymplecticForm, standard_bivector
from starkit.poly import SparsePoly

from conftest import fixture_path

FORM = SymplecticForm.standard(1)


def make_map(fwd, inv, bound, dim=2):
    return transport.SymplectoMap(
        [parse_poly(t, dim) for t in fwd],
        [parse_poly(t, dim) for t in inv], bound)


FIBER_SHEAR = make_map(["z1", "z2 + z1^2"], ["z1", "z2 - z1^2"], 2)


def test_constructor_validates_shape_only():
    # a wrong inverse is accepted here; check_symplecto is the judge
    m = make_map(["z1", "z2 + z1^2"], ["z1", "z2 + z1^2"], 2)
    assert not transport.check_symplecto(m, FORM).passed
    with pytest.raises(InputError):
        make_map(["z1", "z2 + z1^3"], ["z1", "z2 - z1^3"], 2)  # over bound
    with pytest.raises(InputError, match="component 0"):
        transport.SymplectoMap([parse_poly("z1", 2)],
                               [parse_poly("z1", 2)], 1)


def test_verify_transported_dq_refuses_a_failed_round_trip():
    m = make_map(["z1", "z2 + z1^2"], ["z1", "z2 + z1^2"], 2)
    sp = StarProduct.standard(1, order=4)
    triples = random_poly_triples(2, 1, 3, seed=20)
    with pytest.raises(InputError,
                       match="map rejected: coordinate 2 round trip failed"):
        transport.verify_transported_dq(m, sp, triples, order=4)


def test_a_failed_round_trip_is_refused_on_every_call():
    # the verdict is kept on the map; a kept verdict must still refuse
    m = make_map(["z1", "z2 + z1^2"], ["z1", "z2 + z1^2"], 2)
    sp = StarProduct.standard(1, order=4)
    triples = random_poly_triples(2, 1, 3, seed=20)
    f = SparsePoly.variable(2, 1)
    for _ in range(3):
        with pytest.raises(InputError, match="map rejected: coordinate 2 "
                                             "round trip failed"):
            transport.verify_transported_dq(m, sp, triples, order=4)
        with pytest.raises(InputError, match="map rejected"):
            transport.transported_star(m, sp, f, f)
        assert not transport.check_symplecto(m, FORM).passed


def test_check_symplecto_report_is_the_same_on_every_call():
    sp = StarProduct.standard(1, order=4)
    triples = random_poly_triples(2, 1, 3, seed=20)
    want = {"title": "symplectomorphism check", "passed": True, "checks": [
        {"name": "coordinate 1 round trip", "passed": True, "detail": ""},
        {"name": "coordinate 2 round trip", "passed": True, "detail": ""},
        {"name": "Jacobian conjugates the form to itself", "passed": True,
         "detail": ""}]}
    m = make_map(["z1", "z2 + z1^2"], ["z1", "z2 - z1^2"], 2)
    assert transport.check_symplecto(m, FORM).to_dict() == want
    assert transport.verify_transported_dq(m, sp, triples, order=4).passed
    assert transport.check_symplecto(m, FORM).to_dict() == want
    # a fresh map of the same components runs its own round trips
    again = make_map(["z1", "z2 + z1^2"], ["z1", "z2 - z1^2"], 2)
    assert transport.check_symplecto(again, FORM).to_dict() == want


def test_verify_transported_dq_refuses_an_empty_batch():
    # zero triples would be a pass with no check run
    sp = StarProduct.standard(1, order=3)
    with pytest.raises(InputError, match="at least one triple"):
        transport.verify_transported_dq(transport.SymplectoMap.identity(2),
                                        sp, [], 3)


def test_verify_transported_dq_along_identity_is_the_star_suite():
    sp = StarProduct.standard(1, order=4)
    triples = random_poly_triples(2, 3, 3, seed=22)
    got = transport.verify_transported_dq(
        transport.SymplectoMap.identity(2), sp, triples, order=4).to_dict()
    want = verify_star_axioms(sp, triples, 4).to_dict()
    assert got.pop("title") == "transported deformation quantization axioms"
    want.pop("title")
    assert got == want


def test_check_symplecto_passes_shears_and_translations():
    assert transport.check_symplecto(FIBER_SHEAR, FORM).passed
    t = transport.SymplectoMap.translation(["1/2", "-3"])
    assert transport.check_symplecto(t, FORM).passed
    ident = transport.SymplectoMap.identity(2)
    assert transport.check_symplecto(ident, FORM).passed


def test_check_symplecto_rejects_scaling_with_residual():
    m = make_map(["2*z1", "z2"], ["1/2*z1", "z2"], 1)
    rep = transport.check_symplecto(m, FORM)
    assert not rep.passed
    bad = rep.failures()
    assert len(bad) == 1
    assert "residual" in bad[0].detail
    # doubling one coordinate scales the form by 2: residual is Theta
    assert "(1,2): -1" in bad[0].detail and "(2,1): 1" in bad[0].detail


def test_check_symplecto_dim4_residual_detail_is_row_major():
    # a base-to-base shear across the two blocks: both round trips hold,
    # and the congruence misses in exactly the (1,4)/(4,1) pair
    m = make_map(["z1", "z2", "z3 + z1^2", "z4"],
                 ["z1", "z2", "z3 - z1^2", "z4"], 2, dim=4)
    rep = transport.check_symplecto(m, SymplecticForm.standard(2))
    assert [(e.name, e.detail) for e in rep.failures()] == [
        ("Jacobian conjugates the form to itself",
         "residual entries (1,4): -2*z1; (4,1): 2*z1")]


def test_round_trip_failure_is_reported_per_coordinate():
    m = make_map(["z1", "z2 + z1^2"], ["z1", "z2 + z1^2"], 2)
    rep = transport.check_symplecto(m, FORM)
    names = [e.name for e in rep.failures()]
    assert names == ["coordinate 2 round trip"]


def test_transported_star_along_identity_and_translation():
    sp = StarProduct.standard(1, order=4)
    f = random_poly(2, 3, 31)
    g = random_poly(2, 3, 32)
    for m in (transport.SymplectoMap.identity(2),
              transport.SymplectoMap.translation(["1", "-2/3"])):
        got = transport.transported_star(m, sp, f, g)
        assert got == sp.star(f, g)


def test_transported_star_pinned_value():
    sp = StarProduct.standard(1, order=3)
    z1 = SparsePoly.variable(2, 1)
    z2 = SparsePoly.variable(2, 2)
    got = transport.transported_star(FIBER_SHEAR, sp, z1, z2)
    assert str(got) == "z1*z2 - 1/2*i*h"


def test_transported_star_gate():
    sp = StarProduct.standard(1, order=3)
    m = make_map(["2*z1", "z2"], ["1/2*z1", "z2"], 1)
    f = SparsePoly.variable(2, 1)
    with pytest.raises(InputError, match="map rejected"):
        transport.transported_star(m, sp, f, f)
    # verify=False computes anyway, for callers probing bad maps
    got = transport.transported_star(m, sp, f, f, verify=False)
    assert got[0] == f * f


def test_verify_transported_dq_for_seeded_maps():
    sp = StarProduct.standard(1, order=4)
    triples = random_poly_triples(2, 3, 3, seed=20)
    for m in random_symplectomorphisms(3, seed=21):
        assert transport.check_symplecto(m, FORM).passed
        rep = transport.verify_transported_dq(m, sp, triples, order=4)
        assert rep.passed, rep.failures()


def test_non_symplectic_map_fails_only_the_bracket_axiom():
    sp = StarProduct.standard(1, order=4)
    m = make_map(["2*z1", "z2"], ["1/2*z1", "z2"], 1)
    triples = [(SparsePoly.variable(2, 1), SparsePoly.variable(2, 2),
                SparsePoly.variable(2, 1))]
    rep = transport.verify_transported_dq(m, sp, triples, order=4)
    assert not rep.passed
    names = [e.name for e in rep.failures()]
    assert names == ["first-order-bracket[0]"]


def test_pullback_bracket_matches_reference_for_symplectic_maps():
    biv = standard_bivector(1)
    f = random_poly(2, 3, 41)
    g = random_poly(2, 3, 42)
    got = transport.pullback_bracket(FIBER_SHEAR, biv, f, g)
    assert got == biv.bracket(f, g)


def test_compose_and_jacobian():
    t = transport.SymplectoMap.translation(["1", "0"])
    m = FIBER_SHEAR.compose(t)
    assert transport.check_symplecto(m, FORM).passed
    jac = FIBER_SHEAR.jacobian()
    assert str(jac[1][0]) == "2*z1"
    assert str(jac[0][0]) == "1"


def test_json_round_trip_and_file_loading():
    data = FIBER_SHEAR.to_json()
    again = transport.SymplectoMap.from_json(json.loads(json.dumps(data)))
    assert again.to_json() == data
    loaded = transport.SymplectoMap.from_file(fixture_path("shear_map.json"))
    assert loaded.to_json() == data


def test_from_json_requires_all_keys():
    with pytest.raises(InputError, match="degree_bound"):
        transport.SymplectoMap.from_json(
            {"dim": 2, "forward": ["z1", "z2"], "inverse": ["z1", "z2"]})
