"""The four workloads: inputs drawn from the seed, operations, checks.

Constructing a workload is its set-up: it draws the inputs and builds
everything an API user builds once (star products, product spaces,
composed and gated maps).  ops() lists the operations of one round;
every round runs the same list.  verify() checks one round's outputs
against the references in reference.py, never against stored output.

Inputs keep a fixed shape (supports, degrees, map words, fixtures) and
draw their values from the seed: coefficient signs, seeded arguments,
permutations.  Costs on these inputs grow with coefficient size and
term count, so fixed shapes with fixed coefficient magnitudes keep the
work of a round the same from seed to seed, and the verdict rate
compares across seeds.

Call sites reach starkit through module and class attributes, so the
traced run (spans.install) sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from starkit import (ExactComplex, SparsePoly, StarProduct, atlas, cli,
                     multi, transport)
from starkit.poisson import SymplecticForm

import reference as ref

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

# coefficient magnitudes, taken in turn; the seed picks only the signs
MAGNITUDES = [(Fraction(1, 2), Fraction(2)), (Fraction(2), Fraction(1, 3)),
              (Fraction(1, 3), Fraction(3, 2)), (Fraction(3, 2), Fraction(1))]


class Draw:
    """Seeded Gaussian rationals of fixed magnitudes and random signs."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.turn = 0

    def coeff(self) -> ExactComplex:
        re_, im = MAGNITUDES[self.turn % len(MAGNITUDES)]
        self.turn += 1
        return ExactComplex(self.rng.choice((-1, 1)) * re_,
                            self.rng.choice((-1, 1)) * im)

    def poly(self, arity: int, support) -> SparsePoly:
        return SparsePoly(arity, {exps: self.coeff() for exps in support})

    def permutation(self, n: int) -> multi.Permutation:
        images = list(range(n))
        self.rng.shuffle(images)
        return multi.Permutation(images)


class ContractBroken(Exception):
    """A command left the exit-code contract for malformed input."""


def run_cli(state, argv):
    """cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    state.cli_bytes += len(text.encode())
    return code, text


def expect_exit_2(state, argv):
    """Malformed input must exit 2; anything else fails the operation."""
    code, _ = run_cli(state, argv)
    if code != 2:
        raise ContractBroken(f"exit {code}, expected 2")
    return code


class Workload:
    name = ""
    cli_bytes = 0

    def ops(self) -> list:
        raise NotImplementedError

    def verify(self, outputs: dict) -> list:
        raise NotImplementedError


# -- transport-deep -----------------------------------------------------------

TRIPLE_SHAPES = {
    "lin": [(1, 0), (0, 1)],
    "quad": [(2, 0), (1, 1), (0, 0)],
    "cub2": [(3, 0), (0, 1)],
    "cub3": [(2, 1), (1, 0), (0, 2)],
    "cub4": [(3, 0), (1, 2), (0, 1), (0, 0)],
}


class TransportDeep(Workload):
    """verify_transported_dq at order 6 along composed plane maps.

    Map words (composite degree 3), each shear drawn with its own
    seeded coefficients:
      m1 = F[2,3] o B[1]          m2 = B[3] o F[1] o T
      m3 = T o F[1,3]             m4 = F[0,1,2,3]
    where F[ds] is (z1, z2 + p(z1)) and B[ds] is (z1 + p(z2), z2) with p
    supported on the degrees ds, and T a translation.  The control map
    (2 z1, z2) scales the form, so it must be rejected.
    """

    name = "transport-deep"
    order = 6
    plan = [("m1", ("quad", "quad", "cub2")), ("m1", ("cub3", "lin", "quad")),
            ("m2", ("cub3", "lin", "quad")), ("m3", ("cub4", "cub4", "cub4")),
            ("m4", ("cub4", "cub4", "cub4")),
            ("control", ("cub3", "lin", "quad"))]

    def __init__(self, seed: int):
        draw = Draw(self.name, seed)
        self.form = SymplecticForm.standard(1)
        self.star = StarProduct.from_form(self.form, self.order)
        self.maps = {
            "m1": self._shear(draw, True, (2, 3)).compose(
                self._shear(draw, False, (1,))),
            "m2": self._shear(draw, False, (3,)).compose(
                self._shear(draw, True, (1,))).compose(self._shift(draw)),
            "m3": self._shift(draw).compose(self._shear(draw, True, (1, 3))),
            "m4": self._shear(draw, True, (0, 1, 2, 3)),
        }
        z1 = SparsePoly.variable(2, 1)
        z2 = SparsePoly.variable(2, 2)
        self.maps["control"] = transport.SymplectoMap(
            (z1.scale(2), z2), (z1.scale(Fraction(1, 2)), z2), 1)
        self.gates = {key: transport.check_symplecto(m, self.form)
                      for key, m in self.maps.items()}
        self.triples = [tuple(draw.poly(2, TRIPLE_SHAPES[s]) for s in shapes)
                        for _, shapes in self.plan]

    @staticmethod
    def _shear(draw, fiber, degrees):
        base = SparsePoly.variable(2, 1 if fiber else 2)
        p = SparsePoly.zero(2)
        for d in degrees:
            p = p + (base ** d).scale(draw.coeff())
        z1 = SparsePoly.variable(2, 1)
        z2 = SparsePoly.variable(2, 2)
        if fiber:
            return transport.SymplectoMap((z1, z2 + p), (z1, z2 - p),
                                          max(degrees + (1,)))
        return transport.SymplectoMap((z1 + p, z2), (z1 - p, z2),
                                      max(degrees + (1,)))

    @staticmethod
    def _shift(draw):
        return transport.SymplectoMap.translation([draw.coeff(), draw.coeff()])

    def ops(self):
        out = []
        for idx, ((key, _), triple) in enumerate(zip(self.plan, self.triples)):
            m = self.maps[key]
            out.append((f"{idx}:{key}", lambda m=m, t=triple:
                        transport.verify_transported_dq(m, self.star, [t],
                                                        self.order)))
        return out

    def verify(self, outputs):
        problems = []
        for key, gate in self.gates.items():
            if gate.passed != (key != "control"):
                problems.append(f"gate on {key}: passed={gate.passed}")
        for idx, ((key, _), (f, g, _h)) in enumerate(
                zip(self.plan, self.triples)):
            label = f"{idx}:{key}"
            if label not in outputs:
                continue
            rep = outputs[label]
            names = [e.name for e in rep.entries]
            if names != ["associativity[0]", "unit[0]", "classical-limit[0]",
                         "first-order-bracket[0]"]:
                problems.append(f"{label}: checks run {names}")
                continue
            failing = [e.name for e in rep.failures()]
            if key == "control":
                # conjugation keeps the product axioms; the form is lost
                if failing != ["first-order-bracket[0]"]:
                    problems.append(f"{label}: control failed {failing}")
                continue
            if failing:
                problems.append(f"{label}: failed {failing}")
            m = self.maps[key]
            fg = transport.transported_star(m, self.star, f, g, 1,
                                            verify=False)
            gf = transport.transported_star(m, self.star, g, f, 1,
                                            verify=False)
            comm1 = ref.from_sparse((fg - gf)[1])
            expected = ref.poly_scale(
                ref.bracket(ref.from_sparse(f), ref.from_sparse(g), 1), ref.I)
            if comm1 != expected:
                problems.append(f"{label}: h^1 commutator is not i{{f, g}}")
        return problems


# -- moduli-product -----------------------------------------------------------


class ModuliProduct(Workload):
    """Sym^delta(T*X) for (r, g) = (2, 2) and (3, 2), order 8.

    Star operations multiply seeded multiples of the polarized power
    sums P_{a,b} = sum_i zeta_i^a lambda_i^b (or of a product of two);
    the equivariance operations star fixed-support polynomials spread
    over the first three copies, under a seeded permutation.
    """

    name = "moduli-product"
    order = 8
    surfaces = [(2, 2), (3, 2)]
    EQUI_F = [((2, 0), (0, 1), (0, 0)), ((0, 1), (0, 0), (0, 2)),
              ((0, 0), (1, 0), (0, 0))]
    EQUI_G = [((1, 2), (0, 0), (0, 0)), ((0, 0), (0, 1), (2, 0)),
              ((0, 0), (0, 0), (0, 1))]

    def __init__(self, seed: int):
        draw = Draw(self.name, seed)
        self.deltas = {}
        self.spaces = {}
        for rank, genus in self.surfaces:
            delta = multi.moduli_copies(rank, genus)
            self.deltas[(rank, genus)] = delta
            self.spaces[delta] = multi.ProductSpace(delta, self.order)
        d5, d10 = (self.deltas[s] for s in self.surfaces)
        self.stars = [
            (d5, self._psum(draw, d5, [(3, 3)]),
             self._psum(draw, d5, [(3, 3)])),
            (d5, self._psum(draw, d5, [(1, 1), (0, 1)], (2, 0)),
             self._psum(draw, d5, [(1, 2)])),
            (d10, self._psum(draw, d10, [(2, 3)]),
             self._psum(draw, d10, [(3, 2)])),
            (d10, self._psum(draw, d10, [(2, 2)]),
             self._psum(draw, d10, [(2, 2)])),
            (d10, self._psum(draw, d10, [(3, 1)]),
             self._psum(draw, d10, [(1, 3)])),
        ]
        self.hitchin = [(d5, 3, 5), (d10, 4, 6)]
        self.equivariance = [
            (d, draw.permutation(d), self._spread(draw, d, self.EQUI_F),
             self._spread(draw, d, self.EQUI_G)) for d in (d5, d10)]

    @staticmethod
    def _psum(draw, delta, factors, extra=None):
        """c * prod P_factors, plus c' * P_extra when given."""
        p = SparsePoly.const(2 * delta, 1)
        for a, b in factors:
            p = p * SparsePoly(2 * delta, {e: 1 for e in
                                           ref.power_sum(delta, a, b)})
        p = p.scale(draw.coeff())
        if extra is not None:
            p = p + SparsePoly(2 * delta, {e: 1 for e in ref.power_sum(
                delta, *extra)}).scale(draw.coeff())
        return p

    @staticmethod
    def _spread(draw, delta, shape):
        """A polynomial whose monomials set copies 1..3 as in shape."""
        support = []
        for blocks in shape:
            exps = [0] * (2 * delta)
            for i, (a, b) in enumerate(blocks):
                exps[2 * i], exps[2 * i + 1] = a, b
            support.append(tuple(exps))
        return draw.poly(2 * delta, support)

    def ops(self):
        out = []
        for idx, (d, f, g) in enumerate(self.stars):
            ps = self.spaces[d]
            out.append((f"star{idx}:{d}", lambda ps=ps, f=f, g=g:
                        ps.star.star(f, g, self.order)))
        for d, j, k in self.hitchin:
            ps = self.spaces[d]
            out.append((f"hitchin:{d}:{j},{k}", lambda ps=ps, j=j, k=k:
                        multi.hitchin_commutation_check(ps, j, k, self.order)))
        for d, sigma, f, g in self.equivariance:
            ps = self.spaces[d]
            out.append((f"equivariance:{d}", lambda ps=ps, s=sigma, f=f, g=g:
                        multi.equivariance_check(ps, s, f, g, self.order)))
        return out

    def verify(self, outputs):
        problems = []
        for (rank, genus), delta in self.deltas.items():
            if delta != ref.moduli_copies(rank, genus):
                problems.append(f"delta({rank}, {genus}) = {delta}")
        for idx, (d, f, g) in enumerate(self.stars):
            label = f"star{idx}:{d}"
            if label not in outputs:
                continue
            want = ref.product_star(ref.from_sparse(f), ref.from_sparse(g),
                                    d, self.order)
            if ref.from_series(outputs[label]) != want:
                problems.append(f"{label}: differs from the closed form")
        for label, rep in outputs.items():
            if label.startswith(("hitchin", "equivariance")):
                if not rep.entries or not rep.passed:
                    problems.append(f"{label}: passed={rep.passed}, "
                                    f"{len(rep.entries)} checks")
        return problems


# -- chart-patching -----------------------------------------------------------

FIXTURES = ["square", "hexagon", "octagon", "decagon", "lshape"]


class ChartPatching(Workload):
    """patch-check and surface-ingest --json on the five polygon gluings,
    plus three malformed commands that must exit 2."""

    name = "chart-patching"
    order = 8
    count = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.cli_bytes = 0
        # relative paths: the commands echo them, and cli.output_bytes
        # must not depend on where the checkout lies
        self.paths = {name: os.path.relpath(os.path.join(INPUTS,
                                                         f"{name}.json"))
                      for name in FIXTURES}
        self.edges = {}
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                self.edges[name] = len(json.load(fh)["edges"])
        self.malformed = {
            "bad-map-int": ["verify-transport", "--map", os.path.relpath(
                os.path.join(INPUTS, "bad_map_int.json"))],
            "bad-pairing": ["patch-check", "--surface", os.path.relpath(
                os.path.join(INPUTS, "bad_pairing.json"))],
            "zero-count": ["verify-dq", "--count", "0"],
        }

    def ops(self):
        out = []
        for k, (name, path) in enumerate(self.paths.items()):
            ingest = ["surface-ingest", path, "--json"]
            patch = ["patch-check", "--surface", path, "--json",
                     "--order", str(self.order), "--count", str(self.count),
                     "--seed", str(1000 * self.seed + k)]
            out.append((f"ingest:{name}", lambda a=ingest: run_cli(self, a)))
            out.append((f"patch:{name}", lambda a=patch: run_cli(self, a)))
        for label, argv in self.malformed.items():
            out.append((label, lambda a=argv: expect_exit_2(self, a)))
        return out

    def verify(self, outputs):
        problems = []
        for name in FIXTURES:
            genus, orders = ref.STRATA[name]
            if f"ingest:{name}" in outputs:
                code, text = outputs[f"ingest:{name}"]
                got = json.loads(text)["outputs"] if code == 0 else {}
                if (code, got.get("genus"), got.get("zero_orders")) != (
                        0, genus, orders) or sum(orders) != 2 * genus - 2:
                    problems.append(f"ingest {name}: exit {code}, {got}")
            if f"patch:{name}" in outputs:
                code, text = outputs[f"patch:{name}"]
                checks = json.loads(text)["checks"]["checks"] if text else []
                m = self.edges[name]
                # 2m overlaps (m sides, m corners): one form check each,
                # one cocycle check per corner, count pairs per overlap
                want = 2 * m + m + 2 * m * self.count
                bad = [c["name"] for c in checks if not c["passed"]]
                if code != 0 or bad or len(checks) != want:
                    problems.append(f"patch {name}: exit {code}, "
                                    f"{len(checks)}/{want} checks, {bad}")
        problems += self._non_translation_fails()
        return problems

    def _non_translation_fails(self):
        """A chart change that is not a translation must not patch."""
        surface = atlas.ingest_polygon(
            atlas.PolygonGluing.from_file(self.paths["octagon"]))
        overlap = surface.overlaps[0]
        f = SparsePoly(2, {(2, 1): 1, (0, 1): 3})
        g = SparsePoly(2, {(1, 2): 2, (1, 0): 1})
        shear = atlas.ChartMap([[1, 1], [0, 1]], overlap.transition.shift)
        rep = atlas.overlap_agreement_check(surface, overlap, f, g,
                                            self.order, transition=shear)
        return [] if not rep.passed else ["a shear transition patched"]


# -- symmetrize ---------------------------------------------------------------


def _product_names(n):
    return [x for i in range(1, n + 1) for x in (f"q{i}", f"p{i}")]


class Symmetrize(Workload):
    """The S_n average through `symmetrize --json` at n = 7 and 8, and
    multi.is_symmetric at n = 7 on an average and on a control."""

    name = "symmetrize"
    SHAPES = {
        7: [(1, 0, 0, 1), (2, 0), (0, 1, 0, 1, 1, 0)],
        8: [(1, 0, 0, 1), (0, 2, 1, 0)],
    }

    def __init__(self, seed: int):
        draw = Draw(self.name, seed)
        self.cli_bytes = 0
        self.inputs = {}
        for n, shape in self.SHAPES.items():
            support = [e + (0,) * (2 * n - len(e)) for e in shape]
            self.inputs[n] = {e: (c.re, c.im) for e, c in
                              draw.poly(2 * n, support).terms()}
        avg = ref.orbit_average(self.inputs[7])
        self.symmetric = SparsePoly(14, {e: ExactComplex(*c)
                                         for e, c in avg.items()})
        self.control = self.symmetric + draw.poly(14, [(1,) + (0,) * 13])

    def ops(self):
        out = []
        for n, f in self.inputs.items():
            argv = ["symmetrize", "--n", str(n), "--json",
                    ref.format_poly(f, _product_names(n))]
            out.append((f"symmetrize:{n}", lambda a=argv: run_cli(self, a)))
        out.append(("is_symmetric:average", lambda:
                    multi.is_symmetric(self.symmetric)))
        out.append(("is_symmetric:control", lambda:
                    multi.is_symmetric(self.control)))
        return out

    def verify(self, outputs):
        problems = []
        for n, f in self.inputs.items():
            label = f"symmetrize:{n}"
            if label not in outputs:
                continue
            code, text = outputs[label]
            if code != 0:
                problems.append(f"{label}: exit {code}")
                continue
            got = ref.read_poly(json.loads(text)["outputs"]["poly"], 2 * n)
            if got != ref.orbit_average(f):
                problems.append(f"{label}: not the orbit average")
            if not ref.fixed_by_adjacent_swaps(got, n):
                problems.append(f"{label}: moved by an adjacent swap")
        for label, want in (("is_symmetric:average", True),
                            ("is_symmetric:control", False)):
            if label in outputs and outputs[label] is not want:
                problems.append(f"{label}: {outputs[label]}")
        return problems


WORKLOADS = {w.name: w for w in (TransportDeep, ModuliProduct, ChartPatching,
                                 Symmetrize)}
