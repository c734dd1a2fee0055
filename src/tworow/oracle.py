"""Brute-force tensor-space ground truth at desk scale.

The weight-lambda slice of the r-fold tensor power of a 2-dimensional space
has a basis indexed by the lambda2-element subsets of {1..r} (the positions
carrying the second basis vector).  Divided powers of the raising/lowering
operators act by subset sums, with no division: the i-th divided power of
the raising operator sends a subset S to the sum over its i-subsets T of
S minus T, and the lowering one fills i positions of the complement, which
makes its matrix the transpose of the raising one.  So b(i) = F^(i)E^(i) is
realized as E^(i)^T E^(i), an explicit matrix mod 3 against which the
abstract algebra is checked.

Basis subsets are ordered colexicographically, so matrices are reproducible
byte for byte.  A weight vector is a dense array of residues mod 3 in that
order.  Every sparse operator is an index table that lists the images of
each basis subset S by colex rank: `_incidence` gives the tables of E^(i),
with one row per S, and `_j_incidence` that of the column-adding map j, with
one column per S and one row per value of j, defined once for `j_map`,
`j_matrix` and the equivariance check to read.

The cross-validation sweeps form no matrices.  Every realized b(i) commutes
with the place permutations, and M^lambda is generated by the basis vector
of one subset S0 = {1..lambda2}, so two such endomorphisms are equal exactly
when they agree on e_S0.  The checks therefore apply b(i) = E^(i)^T E^(i) to
thin blocks of vectors through the index tables of E^(i) (a subset-sum
kernel), and they check the equivariance the reduction rests on: the table
of every E^(i) they use, and that of j, must commute with the generators
(1 2) and (1 2 ... r) of the symmetric group.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from types import MappingProxyType

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, mul
from .decompose import _require_two_row, partitions_up_to, summands
from .errors import ContextMismatchError
from .padic import _require_natural

__all__ = [
    "WeightVector", "OperatorMatrix", "divided_e", "divided_f", "realize_b",
    "element_matrix", "apply_element", "specht_generator", "j_map", "j_matrix",
    "OracleReport", "cross_validate", "check_basis_products",
    "check_idempotent_matrices", "check_j_commutation", "check_specht_labels",
]

# A weight slice is addressed by (r, (w1, w2)).
Slice = tuple[int, tuple[int, int]]


@lru_cache(maxsize=None)
def _pascal(r: int) -> np.ndarray:
    """C(n, j) for n < r and j <= r, as int64."""
    table = [[comb(n, j) for j in range(r + 1)] for n in range(r)]
    return np.array(table, dtype=np.int64).reshape(r, r + 1)


def _colex_rank(r: int, subsets: np.ndarray) -> np.ndarray:
    """Colex indices of the ascending 0-based subsets of {0..r-1} in the last
    axis: the subset c_1 < ... < c_t has index sum_u C(c_u, u)."""
    return _pascal(r)[subsets, np.arange(1, subsets.shape[-1] + 1)].sum(axis=-1)


@lru_cache(maxsize=None)
def _combos(r: int, k: int) -> np.ndarray:
    """The k-subsets of {0..r-1} in colexicographic order, one ascending row each."""
    n = comb(r, k)
    flat = chain.from_iterable(combinations(range(r), k))
    lex = np.fromiter(flat, dtype=np.int64, count=n * k).reshape(n, k)
    out = np.empty_like(lex)
    out[_colex_rank(r, lex)] = lex
    out.flags.writeable = False
    return out


def _weight_dim(r: int, weight: tuple[int, int]) -> int:
    """Dimension of the weight slice; 0 when the weight is not a composition."""
    if weight[0] < 0 or weight[1] < 0 or weight[0] + weight[1] != r:
        return 0
    return comb(r, weight[1])


@lru_cache(maxsize=None)
def _incidence(r: int, k: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Incidence of E^(i) out of the k-subsets of {1..r}, as gather tables.

    E^(i) sends subset S to the sum of the subsets left when i of its
    positions are emptied; distinct choices leave distinct subsets, so every
    entry is 0 or 1.  Each column holds C(k, i) entries and each row
    C(r-k+i, i).  `down[S]` lists the rows of column S and `up[T]` the
    columns of row T, by colex index; the codomain has len(up) subsets.
    """
    if i > k:
        down, up = np.zeros((comb(r, k), 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
    else:
        down = _colex_rank(r, _combos(r, k)[:, _combos(k, k - i)])
        up = np.argsort(down, axis=None, kind="stable") // down.shape[1]
        up = up.reshape(comb(r, k - i), comb(r - k + i, i))
    down.flags.writeable = up.flags.writeable = False
    return down, up


def _apply_b(r: int, k: int, i: int, block: np.ndarray) -> np.ndarray:
    """b(i) = E^(i)^T E^(i) applied to the columns of an int64 residue block
    on the k-subsets of {1..r}: exact subset sums, reduced mod 3."""
    down, up = _incidence(r, k, i)
    raised = block[up].sum(axis=1) % 3
    return raised[down].sum(axis=1) % 3


def _images(r: int, k: int, block: np.ndarray) -> np.ndarray:
    """b(h)·block for h = 0..k, stacked along the first axis."""
    return np.stack([_apply_b(r, k, h, block) for h in range(k + 1)])


@lru_cache(maxsize=None)
def _generator_images(r: int, k: int) -> np.ndarray:
    """Columns b(h)·e_S0 for h = 0..k, where S0 = {1..k} has colex index 0."""
    out = _images(r, k, np.eye(comb(r, k), 1, dtype=np.int64))[:, :, 0].T
    out.flags.writeable = False
    return out


def _generators(n: int, shift: int = 0) -> list[tuple[int, ...]]:
    """The place permutations (1 2) and (1 2 ... n) of the positions
    shift+1..shift+n, as 0-based image tuples on shift+n positions."""
    if n < 2:
        return []
    fixed = tuple(range(shift))
    swap = fixed + tuple(shift + x for x in (1, 0, *range(2, n)))
    cycle = fixed + tuple(shift + (x + 1) % n for x in range(n))
    return [swap, cycle]


@lru_cache(maxsize=None)
def _permuted(r: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """Colex index of perm(S), indexed by the colex index of the k-subset S."""
    moved = np.array(perm, dtype=np.int64)[_combos(r, k)]
    return _colex_rank(r, np.sort(moved, axis=1))


def _commutes(table: np.ndarray, dom: tuple[int, int], cod: tuple[int, int]) -> bool:
    """Whether the operator whose entries are 1 at the index table `table`
    commutes with the place permutations (1 2) and (1 2 ... r).

    Row S of the table lists the image rows of column S.  The operator maps
    the k-subsets of {1..r}, dom = (r, k), to the k'-subsets of {1..r'},
    cod = (r', k'); on the codomain the permutations act on the last r
    positions, which covers j as well as E^(i).  It commutes with sigma
    exactly when, for every S, the images of sigma(S) are those of S moved
    by sigma, as multisets; every row has the same width, so comparing the
    rows sorted decides it.  E^(i) is a 0/1 matrix, so its table is the
    whole operator.  j has entries 1 and 2, so it is passed one value row
    at a time, each a one-column table.
    """
    (r, k), (r_cod, k_cod) = dom, cod
    for perm, perm_cod in zip(_generators(r), _generators(r, r_cod - r)):
        moved = np.sort(_permuted(r_cod, k_cod, perm_cod)[table], axis=1)
        if not np.array_equal(moved, np.sort(table[_permuted(r, k, perm)], axis=1)):
            return False
    return True


@lru_cache(maxsize=None)
def _equivariant(r: int, k: int, i: int) -> bool:
    """Whether E^(i) out of the k-subsets of {1..r} commutes with S_r."""
    return _commutes(_incidence(r, k, i)[0], (r, k), (r, k - i))


def _equivariance_failures(lam: tuple[int, int]) -> list[str]:
    """E^(i), i <= lambda2, on the weight-lam slice must commute with S_r."""
    r, k = sum(lam), lam[1]
    return [
        f"lambda={lam}: E^({i}) not equivariant"
        for i in range(k + 1)
        if not _equivariant(r, k, i)
    ]


@lru_cache(maxsize=None)
def _j_incidence(r: int, lam: tuple[int, int]) -> np.ndarray:
    """j on the weight-lam slice as a (2, n) index table of colex ranks: the
    subset S shifts by two and gains position 2 with value 1 (row 0), or
    position 1 with value -1 = 2 (row 1).  The 2n images are distinct."""
    shifted = _combos(r, lam[1]) + 2
    out = np.stack([_colex_rank(r + 2, np.insert(shifted, 0, added, axis=1)) for added in (1, 0)])
    out.flags.writeable = False
    return out


def _j_equivariant(r: int, k: int) -> bool:
    """Whether j out of the k-subsets of {1..r} commutes with S_r, compared
    one value row of its table at a time."""
    return all(_commutes(t[:, None], (r, k), (r + 2, k + 1)) for t in _j_incidence(r, (r - k, k)))


def _apply_j(r: int, lam: tuple[int, int], block: np.ndarray) -> np.ndarray:
    """j applied to the columns of an int64 residue block on the weight-lam
    slice, reduced mod 3: the images are distinct, so one scatter places it."""
    out = np.zeros((comb(r + 2, lam[1] + 1), *block.shape[1:]), dtype=np.int64)
    out[_j_incidence(r, lam)] = block, 2 * block
    return out % 3


class WeightVector:
    """Element of a weight slice: the read-only int64 array `dense` of residues
    mod 3 in colex order, built from a dict {frozenset of positions: int} or
    from an integer array with `dense=`."""

    def __init__(self, r: int, lam: tuple[int, int], coeffs=None, *, dense=None):
        lam = tuple(lam)
        if len(lam) != 2 or min(lam) < 0 or sum(lam) != r:
            raise ValueError(f"weight {lam} is not a composition of r={r} into two parts")
        n = comb(r, lam[1])
        if (coeffs is None) == (dense is None):
            raise ValueError("give the residues either as a dict or as dense=")
        if dense is None:
            positions = frozenset(range(1, r + 1))
            for s, c in coeffs.items():
                if not (isinstance(s, frozenset) and len(s) == lam[1] and s <= positions):
                    raise ValueError(f"{s!r} is not a weight-{lam} basis subset of 1..{r}")
                if type(c) is not int:
                    raise ValueError(f"coefficient {c!r} is not an int")
            keys = np.array([sorted(s) for s in coeffs], dtype=np.int64)
            dense = np.zeros(n, dtype=np.int64)
            ranks = _colex_rank(r, keys.reshape(len(coeffs), lam[1]) - 1)
            dense[ranks] = [c % 3 for c in coeffs.values()]
        dense = np.asarray(dense)
        if dense.shape != (n,) or dense.dtype.kind not in "iu":
            raise ValueError(f"dense residues must be an integer array of shape ({n},)")
        self.r, self.lam = r, lam
        self.dense = (dense % 3).astype(np.int64)
        self.dense.flags.writeable = False

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only view of the non-zero residues, keyed by frozenset of positions."""
        nz = np.flatnonzero(self.dense)
        subsets = map(frozenset, (_combos(self.r, self.lam[1])[nz] + 1).tolist())
        return MappingProxyType(dict(zip(subsets, self.dense[nz].tolist())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        same_slice = (self.r, self.lam) == (other.r, other.lam)
        return same_slice and np.array_equal(self.dense, other.dense)

    def __repr__(self) -> str:
        return f"WeightVector({self.r}, {self.lam}, {dict(self.coeffs)!r})"

    def is_zero(self) -> bool:
        return not self.dense.any()

    def scale(self, c: int) -> "WeightVector":
        return WeightVector(self.r, self.lam, dense=c % 3 * self.dense)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if (self.r, self.lam) != (other.r, other.lam):
            raise ContextMismatchError("weight vectors live in different slices")
        return WeightVector(self.r, self.lam, dense=self.dense + other.dense)

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return self + other.scale(-1)

    def transposed(self, a: int, b: int) -> "WeightVector":
        """Image under the place transposition (a b) of positions in 1..r."""
        if not (1 <= a <= self.r and 1 <= b <= self.r):
            raise ValueError(f"({a} {b}) is not a transposition of 1..{self.r}")
        perm = list(range(self.r))
        perm[a - 1], perm[b - 1] = b - 1, a - 1
        moved = _permuted(self.r, self.lam[1], tuple(perm))
        return WeightVector(self.r, self.lam, dense=self.dense[moved])

    @staticmethod
    def basis(r: int, lam: tuple[int, int], positions) -> "WeightVector":
        return WeightVector(r, lam, {frozenset(positions): 1})


@dataclass
class OperatorMatrix:
    """Matrix of an operator between weight slices, entries mod 3.

    `mat` has shape (dim codomain, dim domain) and acts on column vectors.
    """

    domain: Slice
    codomain: Slice
    mat: np.ndarray

    def apply(self, v: WeightVector) -> WeightVector:
        if (v.r, v.lam) != self.domain:
            raise ContextMismatchError("vector does not live in the operator domain")
        return WeightVector(*self.codomain, dense=self.mat.astype(np.int64) @ v.dense)

    def to_json(self) -> dict:
        return {
            "domain": [self.domain[0], list(self.domain[1])],
            "codomain": [self.codomain[0], list(self.codomain[1])],
            "basis_order": "colex",
            "rows": self.mat.astype(int).tolist(),
        }


def _require_weight(r: int, lam) -> tuple[int, int]:
    """lam as a tuple, when its two parts sum to r; a part may be negative,
    which addresses an empty slice."""
    lam = tuple(lam)
    if len(lam) != 2 or lam[0] + lam[1] != r:
        raise ValueError(f"weight {lam} does not sum to r={r}")
    return lam


def divided_e(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    """i-th divided power of the raising operator on the weight-lam slice."""
    if i < 0:
        raise ValueError(f"divided power index i={i} must be non-negative")
    lam = _require_weight(r, lam)
    cod = (lam[0] + i, lam[1] - i)
    mat = np.zeros((_weight_dim(r, cod), _weight_dim(r, lam)), dtype=np.int8)
    if mat.shape[0]:
        down = _incidence(r, lam[1], i)[0]
        mat[down, np.arange(len(down))[:, None]] = 1
    return OperatorMatrix((r, lam), (r, cod), mat)


def divided_f(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    """i-th divided power of the lowering operator on the weight-lam slice.

    Filling i positions of the complement of S reaches T exactly when
    emptying i positions of T reaches S, so on 0/1 incidence matrices the
    lowering operator is the transpose of the raising one out of the target.
    """
    lam = _require_weight(r, lam)
    up = divided_e(r, (lam[0] - i, lam[1] + i), i)
    return OperatorMatrix(up.codomain, up.domain, up.mat.T)


def realize_b(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    """The canonical basis endomorphism as an explicit weight-space matrix."""
    # b(i) = F^(i) E^(i), and F^(i) out of the raised slice is E^(i) transposed.
    # Inner dimensions at desk scale keep the exact integer products well
    # below 2**53, so BLAS on float64 is exact.
    up = divided_e(r, lam, i)
    mat = up.mat.astype(np.float64)
    return OperatorMatrix(up.domain, up.domain, (mat.T @ mat % 3).astype(np.int8))


def element_matrix(x: AlgebraElement) -> np.ndarray:
    """Dense matrix realization of an algebra element on its weight slice."""
    ctx = x.context
    r, lam = ctx.r, (ctx.lambda1, ctx.lambda2)
    dim = _weight_dim(r, lam)
    acc = np.zeros((dim, dim), dtype=np.int64)
    for i in x.support():
        acc += x.coeffs[i] * realize_b(r, lam, i).mat.astype(np.int64)
    return acc % 3


def apply_element(x: AlgebraElement, v: WeightVector) -> WeightVector:
    """Apply an algebra element to a weight vector through the subset-sum kernel."""
    ctx = x.context
    if ctx.p != 3:
        raise ContextMismatchError("the tensor oracle works mod 3")
    lam = (ctx.lambda1, ctx.lambda2)
    if v.lam != lam:
        raise ContextMismatchError(f"element in {lam} applied to vector in {v.lam}")
    image = np.tensordot(x.coeffs, _images(v.r, v.lam[1], v.dense[:, None]), 1)
    return WeightVector(v.r, v.lam, dense=image[:, 0])


def specht_generator(r: int, lam: tuple[int, int], mu: tuple[int, int]) -> WeightVector:
    """Polytabloid generating the unique copy of the mu Specht module.

    Convention: the mu-tableau has column pairs (2k-1, 2k) for k <= mu2, so
    positions 2, 4, ..., 2*mu2 are forced to carry the second symbol, and the
    generator is the signed column average of the row-invariant sum: the
    subsets holding all forced positions, 0-based the odd ones below 2*mu2.
    """
    lam, mu = tuple(lam), tuple(mu)
    _require_two_row(lam, mu)
    if sum(lam) != r or sum(mu) != r:
        raise ValueError(f"{lam} and {mu} must be partitions of r={r}")
    if mu[1] > lam[1]:
        raise ValueError(f"mu={mu} does not dominate lambda={lam}")

    combos = _combos(r, lam[1])
    forced = ((combos % 2 == 1) & (combos < 2 * mu[1])).sum(axis=1)
    vec = WeightVector(r, lam, dense=(forced == mu[1]).astype(np.int64))
    for k in range(1, mu[1] + 1):
        vec = vec - vec.transposed(2 * k - 1, 2 * k)
    return vec


def j_map(v: WeightVector) -> WeightVector:
    """Column-adding injection: prepend an antisymmetrized two-box column.

    Sends the slice at (r, lam) to (r+2, lam+(1,1)): every subset shifts by
    two and gains position 2 with sign +, position 1 with sign -.
    """
    return WeightVector(v.r + 2, (v.lam[0] + 1, v.lam[1] + 1), dense=_apply_j(v.r, v.lam, v.dense))


def j_matrix(r: int, lam: tuple[int, int]) -> OperatorMatrix:
    """Matrix of the column-adding injection on the weight-lam slice."""
    lam = _require_weight(r, lam)
    big = (lam[0] + 1, lam[1] + 1)
    mat = np.zeros((_weight_dim(r + 2, big), _weight_dim(r, lam)), dtype=np.int8)
    if mat.shape[1]:
        mat[_j_incidence(r, lam), np.arange(mat.shape[1])] = [[1], [2]]
    return OperatorMatrix((r, lam), (r + 2, big), mat)


def check_basis_products(r_max: int) -> list[str]:
    """Realized basis products vs the abstract multiply, on the generator e_S0."""
    _require_natural(r_max=r_max)
    failures = []
    for lam in partitions_up_to(r_max):
        r, k = sum(lam), lam[1]
        ctx = AlgebraContext(lam[0], lam[1], 3)
        failures += _equivariance_failures(lam)
        gen = _generator_images(r, k)
        products = _images(r, k, gen)
        for i in range(k + 1):
            for j in range(k + 1):
                expected = gen @ mul(ctx.basis(i), ctx.basis(j)).coeffs % 3
                if not np.array_equal(products[i][:, j], expected):
                    failures.append(f"lambda={lam}: b({i})b({j}) mismatch")
    return failures


def check_idempotent_matrices(r_max: int) -> list[str]:
    """Realized idempotents are idempotent, on the generator e_S0."""
    _require_natural(r_max=r_max)
    failures = []
    for lam in partitions_up_to(r_max):
        r, k = sum(lam), lam[1]
        ctx = AlgebraContext(lam[0], lam[1], 3)
        failures += _equivariance_failures(lam)
        recs = summands(ctx)
        coeffs = np.array([rec.idempotent.coeffs for rec in recs], dtype=np.int64).T
        once = _generator_images(r, k) @ coeffs % 3
        twice = np.einsum("hn,hdn->dn", coeffs, _images(r, k, once)) % 3
        for col, rec in enumerate(recs):
            if not np.array_equal(twice[:, col], once[:, col]):
                failures.append(f"lambda={lam}, g={rec.g}: matrix not idempotent")
    return failures


def check_j_commutation(r_max: int) -> list[str]:
    """The column-adding injection commutes with every idempotent, on e_S0."""
    _require_natural(r_max=r_max)
    failures = []
    for lam in partitions_up_to(r_max):
        r, k = sum(lam), lam[1]
        big = (lam[0] + 1, lam[1] + 1)
        failures += _equivariance_failures(lam) + _equivariance_failures(big)
        if not _j_equivariant(r, k):
            failures.append(f"lambda={lam}: j not equivariant")
        recs = summands(AlgebraContext(lam[0], lam[1], 3))
        # both partitions have the same m, so every small label is a big one
        big_rows = {rec.g: rec.idempotent.coeffs for rec in summands(AlgebraContext(*big, 3))}
        small = np.array([rec.idempotent.coeffs for rec in recs], dtype=np.int64).T
        large = np.array([big_rows[rec.g] for rec in recs], dtype=np.int64).T
        left = _apply_j(r, lam, _generator_images(r, k) @ small)
        j0 = _apply_j(r, lam, np.eye(comb(r, k), 1, dtype=np.int64))
        right = _images(r + 2, k + 1, j0)[:, :, 0].T @ large % 3
        for col, rec in enumerate(recs):
            if not np.array_equal(left[:, col], right[:, col]):
                failures.append(f"lambda={lam}, g={rec.g}: j does not commute")
    return failures


def check_specht_labels(r_max: int) -> list[str]:
    """Idempotents hit the Specht generator exactly for the matching label."""
    _require_natural(r_max=r_max)
    failures = []
    for lam in partitions_up_to(r_max):
        r = sum(lam)
        ctx = AlgebraContext(lam[0], lam[1], 3)
        recs = summands(ctx)
        gens = [specht_generator(r, lam, rec.mu) for rec in recs]
        block = np.stack([eps.dense for eps in gens], axis=1)
        images = _images(r, lam[1], block)
        hits = [
            (np.tensordot(other.idempotent.coeffs, images, 1) % 3).any(axis=0)
            for other in recs
        ]
        for col, (rec, eps) in enumerate(zip(recs, gens)):
            if eps.is_zero():
                failures.append(f"lambda={lam}, mu={rec.mu}: zero polytabloid")
                continue
            for other, hit in zip(recs, hits):
                if hit[col] != (other.g == rec.g):
                    failures.append(
                        f"lambda={lam}, mu={rec.mu}: e(g={other.g}) "
                        f"{'hits' if hit[col] else 'kills'} the generator"
                    )
    return failures


@dataclass
class OracleReport:
    """Aggregated outcome of the cross-validation sweep."""

    r_max: int
    checks: dict[str, bool]
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return asdict(self)


def cross_validate(r_max: int = 8) -> OracleReport:
    """Run every oracle check for all two-row partitions with r <= r_max."""
    _require_natural(r_max=r_max)
    named = {
        "basis_products": check_basis_products,
        "idempotent_matrices": check_idempotent_matrices,
        "j_commutation": check_j_commutation,
        "specht_labels": check_specht_labels,
    }
    found = {name: fn(r_max) for name, fn in named.items()}
    checks = {name: not lines for name, lines in found.items()}
    return OracleReport(r_max, checks, [line for lines in found.values() for line in lines])
