"""Tests of the benchmark's references and checks.

    python3 -m pytest perfbench/test_references.py
    python3 -m unittest discover -s perfbench -p 'test_*.py'

The references are checked against cases worked by hand; each
workload's verify() must pass the program's real outputs and reject a
perturbed output and a wrong verdict.
"""

from __future__ import annotations

import json
import math
import os
import sys
import unittest
from fractions import Fraction as Q

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402

ONE = ref.ONE


def g(re, im=0):
    return (Q(re), Q(im))


class MoyalClosedForm(unittest.TestCase):
    def test_coordinate_pair(self):
        # z1 * z2 = z1 z2 - (i/2) h and z2 * z1 = z1 z2 + (i/2) h
        self.assertEqual(ref.moyal_pair(1, 0, 0, 1, 8),
                         {0: ONE, 1: g(0, Q(-1, 2))})
        self.assertEqual(ref.moyal_pair(0, 1, 1, 0, 8),
                         {0: ONE, 1: g(0, Q(1, 2))})

    def test_squares(self):
        # zeta^2 * lambda^2: B_1 = pi12 * 2 zeta * 2 lambda = -4 zeta lambda,
        # B_2 = pi12^2 * 2 * 2 = 4; times (i/2) and (i/2)^2 / 2
        self.assertEqual(ref.moyal_pair(2, 0, 0, 2, 8),
                         {0: ONE, 1: g(0, -2), 2: g(Q(-1, 2))})
        self.assertEqual(ref.moyal_pair(2, 0, 0, 2, 1),
                         {0: ONE, 1: g(0, -2)})

    def test_mixed_monomials_cancel(self):
        # (zeta lambda) * (zeta lambda): the two first-order terms cancel,
        # B_2 = 2 pi12 pi21 * 1 * 1 = -2, times (i/2)^2 / 2 = -1/8
        self.assertEqual(ref.moyal_pair(1, 1, 1, 1, 8),
                         {0: ONE, 2: g(Q(1, 4))})

    def test_product_space_is_blockwise(self):
        # P_{1,0} * P_{0,1} on two copies: only zeta_i * lambda_i has an
        # h term, -(i/2) h each, so the h^1 coefficient is the constant -i
        f = ref.power_sum(2, 1, 0)
        h = ref.power_sum(2, 0, 1)
        series = ref.product_star(f, h, 2, 8)
        self.assertEqual(series[0], {(1, 1, 0, 0): ONE, (1, 0, 0, 1): ONE,
                                     (0, 1, 1, 0): ONE, (0, 0, 1, 1): ONE})
        self.assertEqual(series[1], {(0, 0, 0, 0): g(0, -1)})
        self.assertTrue(all(not c for c in series[2:]))

    def test_bracket_convention(self):
        z1, z2 = {(1, 0): ONE}, {(0, 1): ONE}
        self.assertEqual(ref.bracket(z1, z2, 1), {(0, 0): g(-1)})
        self.assertEqual(ref.bracket(z2, z1, 1), {(0, 0): g(1)})

    def test_moduli_copies(self):
        self.assertEqual([ref.moduli_copies(2, 2), ref.moduli_copies(3, 2)],
                         [5, 10])


class OrbitAverage(unittest.TestCase):
    def test_single_variable(self):
        q1 = {(1, 0, 0, 0): ONE}
        half = g(Q(1, 2))
        self.assertEqual(ref.orbit_average(q1),
                         {(1, 0, 0, 0): half, (0, 0, 1, 0): half})

    def test_two_copies_of_three(self):
        # q1 p2 has the six images q_a p_b, a != b, each with weight 1/6
        got = ref.orbit_average({(1, 0, 0, 1, 0, 0): g(3)})
        self.assertEqual(len(got), 6)
        self.assertEqual(set(got.values()), {g(Q(1, 2))})
        self.assertTrue(ref.fixed_by_adjacent_swaps(got, 3))

    def test_symmetric_monomial_is_fixed(self):
        f = {(1, 0, 1, 0, 1, 0): g(2, 1)}
        self.assertEqual(ref.orbit_average(f), f)

    def test_adjacent_swaps_detect_asymmetry(self):
        self.assertFalse(ref.fixed_by_adjacent_swaps({(1, 0, 0, 0): ONE}, 2))


class CanonicalText(unittest.TestCase):
    def test_reads_every_coefficient_form(self):
        text = "(1/2-3*i)*z1^2*z3 + z1 + (-2+i)*z2 - 3/4*i*z4 + (-5/3+i)"
        self.assertEqual(ref.read_poly(text, 4), {
            (2, 0, 1, 0): g(Q(1, 2), -3), (1, 0, 0, 0): ONE,
            (0, 1, 0, 0): g(-2, 1), (0, 0, 0, 1): g(0, Q(-3, 4)),
            (0, 0, 0, 0): g(Q(-5, 3), 1)})

    def test_product_names(self):
        self.assertEqual(ref.read_poly("-i*q1*p2 - 2", 4),
                         {(1, 0, 0, 1): g(0, -1), (0, 0, 0, 0): g(-2)})
        self.assertEqual(ref.read_poly("0", 2), {})


def _stratum(path):
    """Genus and zero orders from the gluing, with float corner angles."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edges = [complex(float(Q(x)), float(Q(y))) for x, y in data["edges"]]
    m = len(edges)
    partner = {}
    for i, j in data["pairing"]:
        partner[i], partner[j] = j, i
    # the corner before edge t is glued to the corner before edge
    # partner[t - 1]; interior angle at corner t, between edges t-1 and t
    angle = [math.pi - math.atan2((edges[t] / edges[t - 1]).imag,
                                  (edges[t] / edges[t - 1]).real)
             for t in range(m)]
    seen, totals = set(), []
    for start in range(m):
        if start in seen:
            continue
        t, total = start, 0.0
        while t not in seen:
            seen.add(t)
            total += angle[t]
            t = partner[(t - 1) % m]
        totals.append(total)
    chi = len(totals) - m // 2 + 1
    orders = sorted((round(a / (2 * math.pi)) - 1 for a in totals
                     if round(a / (2 * math.pi)) > 1), reverse=True)
    return (2 - chi) // 2, orders


class FixtureStrata(unittest.TestCase):
    def test_hand_table_matches_the_gluings(self):
        for name, (genus, orders) in ref.STRATA.items():
            path = os.path.join(HERE, "inputs", f"{name}.json")
            self.assertEqual(_stratum(path), (genus, orders), name)
            self.assertEqual(sum(orders), 2 * genus - 2, name)


def _outputs(workload):
    from worker import Failed, run_round
    _, outputs, _ = run_round(workload.ops())
    return {k: v for k, v in outputs.items() if not isinstance(v, Failed)}


class Checks(unittest.TestCase):
    """verify() passes real outputs and rejects wrong ones."""

    @classmethod
    def setUpClass(cls):
        import workloads
        cls.w = workloads
        cls.built = {}

    def workload(self, name):
        if name not in self.built:
            wl = self.w.WORKLOADS[name](7)
            self.built[name] = (wl, _outputs(wl))
        wl, outputs = self.built[name]
        self.assertEqual(wl.verify(outputs), [])
        return wl, dict(outputs)

    def rejects(self, wl, outputs):
        self.assertNotEqual(wl.verify(outputs), [])

    def test_transport_deep(self):
        from starkit import HbarSeries, transport
        from starkit.reports import CheckEntry, Report
        wl, outs = self.workload("transport-deep")
        passing = Report("x")
        for name in ("associativity[0]", "unit[0]", "classical-limit[0]",
                     "first-order-bracket[0]"):
            passing.add(name, True)
        self.rejects(wl, {**outs, "5:control": passing})
        failing = Report("x", list(passing.entries))
        failing.entries[0] = CheckEntry("associativity[0]", False)
        self.rejects(wl, {**outs, "0:m1": failing})
        self.rejects(wl, {**outs, "0:m1": Report("x")})
        original = transport.transported_star

        def perturbed(m, star, f, g, order, verify):
            s = original(m, star, f, g, order, verify=verify)
            return s + HbarSeries.from_poly(f, order).shift(1)
        transport.transported_star = perturbed
        try:
            self.rejects(wl, outs)
        finally:
            transport.transported_star = original

    def test_moduli_product(self):
        from starkit.reports import CheckEntry, Report
        wl, outs = self.workload("moduli-product")
        series = outs["star2:10"]
        self.rejects(wl, {**outs, "star2:10": series + series.shift(8)})
        rep = outs["hitchin:10:4,6"]
        wrong = Report(rep.title, rep.entries[:-1]
                       + [CheckEntry(rep.entries[-1].name, False)])
        self.rejects(wl, {**outs, "hitchin:10:4,6": wrong})
        wl.deltas[(3, 2)] = 9
        try:
            self.rejects(wl, self.built["moduli-product"][1])
        finally:
            wl.deltas[(3, 2)] = 10

    def test_chart_patching(self):
        from starkit import atlas
        from starkit.reports import Report
        wl, outs = self.workload("chart-patching")
        code, text = outs["ingest:decagon"]
        data = json.loads(text)
        data["outputs"]["zero_orders"] = [2]
        self.rejects(wl, {**outs, "ingest:decagon": (code, json.dumps(data))})
        code, text = outs["patch:square"]
        data = json.loads(text)
        data["checks"]["checks"].pop()
        self.rejects(wl, {**outs, "patch:square": (code, json.dumps(data))})
        data = json.loads(text)
        data["checks"]["checks"][-1]["passed"] = False
        self.rejects(wl, {**outs, "patch:square": (1, json.dumps(data))})
        original = atlas.overlap_agreement_check
        atlas.overlap_agreement_check = lambda *a, **k: Report("agree")
        try:
            self.rejects(wl, outs)
        finally:
            atlas.overlap_agreement_check = original

    def test_symmetrize(self):
        wl, outs = self.workload("symmetrize")
        code, text = outs["symmetrize:7"]
        data = json.loads(text)
        poly = data["outputs"]["poly"]
        data["outputs"]["poly"] = poly + " + q1"
        self.rejects(wl, {**outs, "symmetrize:7": (code, json.dumps(data))})
        self.rejects(wl, {**outs, "is_symmetric:average": False})
        self.rejects(wl, {**outs, "is_symmetric:control": True})


if __name__ == "__main__":
    unittest.main()
