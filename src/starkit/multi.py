"""Products of quantized planes and the symmetric-group action.

A product space has n copies of the standard (zeta, lambda) pair, with
coordinates interleaved: copy i owns variables z_{2i-1} = zeta_i and
z_{2i} = lambda_i (1-based).  Its bivector is block-diagonal, so distinct
copies star-commute exactly, and the symmetric group acts by relabelling
whole (zeta_i, lambda_i) pairs at once.  The action is on the left:
sigma sends the content of copy i to copy sigma(i), and composing actions
matches composing permutations.  One-body factors, such as power sums,
are multiplied copy by copy (``starkit.moyal``).
"""

from __future__ import annotations

from itertools import combinations, permutations as _all_images
from math import comb, lcm
from operator import lshift

from . import _kernel as K
from .errors import ArityError, Immutable, InputError
from .moyal import StarProduct
from .poisson import SymplecticForm
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex
from .series import HbarSeries


class ProductSpace(Immutable):
    """n interleaved (zeta, lambda) pairs with the block-diagonal form."""

    __slots__ = ("copies", "dim", "form", "star")

    def __init__(self, copies: int, order: int = 8):
        if copies < 1:
            raise InputError("need at least one copy")
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "dim", 2 * copies)
        form = SymplecticForm.standard(copies)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "star", StarProduct.from_form(form, order))

    def zeta(self, i: int) -> SparsePoly:
        """Base coordinate of copy i (1-based)."""
        if not 1 <= i <= self.copies:
            raise InputError(f"copy index {i} out of range")
        return SparsePoly.variable(self.dim, 2 * i - 1)

    def lam(self, i: int) -> SparsePoly:
        """Fiber coordinate of copy i (1-based)."""
        if not 1 <= i <= self.copies:
            raise InputError(f"copy index {i} out of range")
        return SparsePoly.variable(self.dim, 2 * i)


class Permutation(Immutable):
    """Bijection of {0..n-1}, stored as the image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise InputError(f"not a permutation: {imgs}")
        object.__setattr__(self, "images", imgs)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"transposition indices must lie in 0..{n - 1}")
        imgs = list(range(n))
        imgs[i], imgs[j] = imgs[j], imgs[i]
        return cls(imgs)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other."""
        if self.n != other.n:
            raise InputError("permutation sizes differ")
        return Permutation(tuple(self.images[other.images[i]]
                                 for i in range(self.n)))

    def inverse(self) -> "Permutation":
        imgs = [0] * self.n
        for i, v in enumerate(self.images):
            imgs[v] = i
        return Permutation(imgs)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    @staticmethod
    def all_of(n: int):
        for imgs in _all_images(range(n)):
            yield Permutation(imgs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def permute_poly(sigma: Permutation, f):
    """Send the (zeta_i, lambda_i) pair of copy i to copy sigma(i); a
    series (HbarSeries) moves whole, h's field above the copies kept."""
    if f.arity != 2 * sigma.n:
        raise ArityError(
            f"permutation of {sigma.n} copies needs arity {2 * sigma.n}, "
            f"got {f.arity}")
    p = f.packed if isinstance(f, HbarSeries) else f
    width, den, terms = p._form
    step = 2 * width  # copy i is the block of two fields from bit step * i
    block, top = (1 << step) - 1, f.arity * width
    moves = [(step * i, step * t) for i, t in enumerate(sigma.images)]
    out = SparsePoly._make(p.arity, width, den, {
        key >> top << top | sum((key >> src & block) << dst
                                for src, dst in moves): c
        for key, c in terms.items()}, False)
    return out if p is f else HbarSeries._of(out, f.order)


def equivariance_check(ps: ProductSpace, sigma: Permutation,
                       f: SparsePoly, g: SparsePoly,
                       order: int | None = None) -> Report:
    """Relabelling copies commutes with the product, exactly."""
    rep = Report("symmetric-group equivariance")
    lhs = ps.star.star(permute_poly(sigma, f), permute_poly(sigma, g), order)
    rhs = permute_poly(sigma, ps.star.star(f, g, order))
    rep.add_equal(f"sigma={list(sigma.images)}", lhs, rhs)
    return rep


def _arrangements(blocks):
    """The distinct orderings of blocks, in lexicographic order.

    Steps by next permutation, so equal blocks never repeat an ordering;
    yields one list, reordered in place between yields.
    """
    a = sorted(blocks)
    last = len(a) - 1
    while True:
        yield a
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _orbit_size(blocks) -> int:
    """n! / (m_1! m_2! ...) for the multiplicities m_b of the blocks."""
    size, seen = 1, 0
    for b in set(blocks):
        m = blocks.count(b)
        seen += m
        size *= comb(seen, m)
    return size


def _blocks(f: SparsePoly):
    """Each term's (zeta_i, lambda_i) blocks, by copy, as the ints of two
    fields of its packed key, with the term's numerators."""
    width, _, p = f._form
    step = 2 * width
    block, shifts = (1 << step) - 1, range(0, f.arity * width, step)
    for key, c in p.items():
        yield [key >> s & block for s in shifts], c


def orbit_images(f: SparsePoly) -> int:
    """The images symmetrize(f) writes: its terms' orbit sizes, summed."""
    return sum(_orbit_size(blocks) for blocks, _ in _blocks(f))


def symmetrize(f: SparsePoly) -> SparsePoly:
    """Average of f over all relabellings; a projection onto invariants.

    Each monomial is spread evenly over its orbit, the distinct
    arrangements of its (zeta_i, lambda_i) blocks, with weight 1/|orbit|.
    A monomial fixed by a stabilizer of m_1! m_2! ... relabellings has
    n!/(m_1! m_2! ...) images, so this equals (1/n!) sum over sigma of
    sigma(f) without walking the n! relabellings.  Every share sits over
    den times the lcm of the orbit sizes.

    The images are placed by position: the term's nonzero blocks go to
    each combination of copies, in each distinct arrangement of those
    blocks alone, and the zero blocks fill the other copies.
    """
    if f.arity % 2 != 0:
        raise ArityError("symmetrize needs an even arity (pairs of variables)")
    orbits = [(blocks, _orbit_size(blocks), c) for blocks, c in _blocks(f)]
    scale = lcm(*(size for _, size, _ in orbits))
    width, den, _ = f._form
    copies = range(0, f.arity * width, 2 * width)  # the shift of each copy
    acc: dict = {}
    get = acc.get
    for blocks, size, (a, b) in orbits:
        a, b = a * (scale // size), b * (scale // size)
        nonzero = [x for x in blocks if x]
        arrangements = [tuple(x) for x in _arrangements(nonzero)]
        for where in combinations(copies, len(nonzero)):
            for image in arrangements:
                e = sum(map(lshift, image, where))
                old = get(e)
                acc[e] = (a, b) if old is None else (old[0] + a, old[1] + b)
    return SparsePoly._make(f.arity, width, den * scale, acc)


def is_symmetric(f: SparsePoly) -> bool:
    """Fixed by every relabelling; the swap of copies 1 and 2 and the
    cyclic shift sending copy i to copy i+1 (mod n) generate S_n.

    Each generator is a bijection on exponent vectors, so it fixes f
    exactly when every term's image under it is a term of f with the
    same coefficient; each image is looked up, and the first miss
    decides.
    """
    if f.arity % 2 != 0:
        raise ArityError("symmetry is defined for even arity")
    if f.arity < 4:
        return True
    width, _, terms = f._form
    step = 2 * width
    block = (1 << step) - 1
    get = terms.get
    for key, c in terms.items():  # the swap exchanges the lowest two blocks
        x = (key ^ key >> step) & block
        if x and get(key ^ x ^ x << step) != c:
            return False
    if f.arity > 4:
        # for n = 2 the shift is the swap; the last block comes first
        last = step * (f.arity // 2 - 1)
        full = (1 << last) - 1
        for key, c in terms.items():
            if get((key & full) << step | key >> last) != c:
                return False
    return True


def power_sum(ps: ProductSpace, k: int) -> SparsePoly:
    """p_k = sum over copies of lambda_i^k."""
    if k < 1:
        raise InputError("power sums start at k = 1")
    # one key per copy: k in the lambda_i field, of the narrowest width
    width = K.field_width(k.bit_length(), True)
    return SparsePoly._make(ps.dim, width, 1, {
        k << width * (2 * i + 1): (1, 0) for i in range(ps.copies)}, False)


def hitchin_commutation_check(ps: ProductSpace, j: int, k: int,
                              order: int | None = None) -> Report:
    """Fiber power sums must commute in both senses, exactly."""
    rep = Report("power-sum commutation")
    pj = power_sum(ps, j)
    pk = power_sum(ps, k)
    br = ps.star.bracket(pj, pk)
    rep.add(f"bracket p{j},p{k} vanishes", br.is_zero(),
            "" if br.is_zero() else f"bracket {br}")
    comm = ps.star.commutator(pj, pk, order)
    rep.add(f"star commutator p{j},p{k} vanishes", comm.is_zero(),
            "" if comm.is_zero() else f"commutator {comm}")
    return rep


class Configuration(Immutable):
    """n labelled points of the (zeta, lambda) plane with exact entries."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple((ExactComplex.coerce(z), ExactComplex.coerce(l))
                    for z, l in points)
        if not pts:
            raise InputError("configuration needs at least one point")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


def configuration_check(config: Configuration) -> Report:
    """Pairwise distinctness of the points, flagging any violating pair.

    A single point is refused: it has no pair to check.
    """
    pts = config.points
    if len(pts) < 2:
        raise InputError("distinctness checks need at least two points")
    rep = Report("configuration distinctness")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            ok = pts[i] != pts[j]
            rep.add(f"points {i} and {j} distinct", ok,
                    "" if ok else f"both equal ({pts[i][0]}, {pts[i][1]})")
    return rep


def moduli_copies(rank: int, genus: int) -> int:
    """Number of copies delta = rank^2 (genus - 1) + 1."""
    if rank < 1 or genus < 1:
        raise InputError("rank and genus must be positive integers")
    return rank * rank * (genus - 1) + 1
