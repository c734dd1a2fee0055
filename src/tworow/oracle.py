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
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, mul
from .decompose import _require_two_row, partitions_up_to, summands
from .errors import ContextMismatchError
from .idempotents import build

__all__ = [
    "WeightVector",
    "OperatorMatrix",
    "divided_e",
    "divided_f",
    "realize_b",
    "element_matrix",
    "apply_element",
    "specht_generator",
    "j_map",
    "j_matrix",
    "OracleReport",
    "cross_validate",
    "check_basis_products",
    "check_idempotent_matrices",
    "check_j_commutation",
    "check_specht_labels",
]

# A weight slice is addressed by (r, (w1, w2)).
Slice = tuple[int, tuple[int, int]]


@lru_cache(maxsize=None)
def _subsets(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of {1..r} in colexicographic order."""
    combos = combinations(range(1, r + 1), k)
    return tuple(sorted(combos, key=lambda s: tuple(reversed(s))))


@lru_cache(maxsize=None)
def _subset_index(r: int, k: int) -> dict[frozenset, int]:
    return {frozenset(s): i for i, s in enumerate(_subsets(r, k))}


def _weight_dim(r: int, weight: tuple[int, int]) -> int:
    """Dimension of the weight slice; 0 when the weight is not a composition."""
    if weight[0] < 0 or weight[1] < 0 or weight[0] + weight[1] != r:
        return 0
    return comb(r, weight[1])


def _mm3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Inner dimensions at desk scale keep the exact integer products well
    # below 2**53, so BLAS on float64 is exact.
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % 3


@dataclass
class WeightVector:
    """Element of a weight slice: residues mod 3 keyed by position subsets."""

    r: int
    lam: tuple[int, int]
    coeffs: dict[frozenset, int]

    def __post_init__(self):
        self.lam = tuple(self.lam)
        self.coeffs = {s: c % 3 for s, c in self.coeffs.items() if c % 3}

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c: int) -> "WeightVector":
        return WeightVector(self.r, self.lam, {s: c * v for s, v in self.coeffs.items()})

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if (self.r, self.lam) != (other.r, other.lam):
            raise ContextMismatchError("weight vectors live in different slices")
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return WeightVector(self.r, self.lam, out)

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return self + other.scale(-1)

    def transposed(self, a: int, b: int) -> "WeightVector":
        """Image under the place transposition (a b)."""
        swap = {a: b, b: a}
        out = {}
        for s, c in self.coeffs.items():
            t = frozenset(swap.get(x, x) for x in s)
            out[t] = out.get(t, 0) + c
        return WeightVector(self.r, self.lam, out)

    def to_dense(self) -> np.ndarray:
        index = _subset_index(self.r, self.lam[1])
        vec = np.zeros(len(index), dtype=np.int64)
        for s, c in self.coeffs.items():
            vec[index[s]] = c
        return vec

    @staticmethod
    def from_dense(r: int, lam: tuple[int, int], vec) -> "WeightVector":
        subsets = _subsets(r, lam[1])
        return WeightVector(
            r, lam, {frozenset(s): int(c) for s, c in zip(subsets, vec)}
        )

    @staticmethod
    def basis(r: int, lam: tuple[int, int], positions) -> "WeightVector":
        s = frozenset(positions)
        if len(s) != lam[1] or not s <= set(range(1, r + 1)):
            raise ValueError(f"{sorted(s)} is not a weight-{tuple(lam)} basis subset")
        return WeightVector(r, lam, {s: 1})


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
        r, lam = self.codomain
        out = (self.mat.astype(np.int64) @ v.to_dense()) % 3
        return WeightVector.from_dense(r, lam, out)

    def to_json(self) -> dict:
        return {
            "domain": [self.domain[0], list(self.domain[1])],
            "codomain": [self.codomain[0], list(self.codomain[1])],
            "basis_order": "colex",
            "rows": self.mat.astype(int).tolist(),
        }


def divided_e(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    """i-th divided power of the raising operator on the weight-lam slice."""
    lam = tuple(lam)
    cod = (lam[0] + i, lam[1] - i)
    dom_subsets = _subsets(r, lam[1])
    n_cod = _weight_dim(r, cod)
    mat = np.zeros((n_cod, len(dom_subsets)), dtype=np.int8)
    if n_cod:
        index = _subset_index(r, cod[1])
        for col, s in enumerate(dom_subsets):
            for removed in combinations(s, i):
                row = index[frozenset(s) - frozenset(removed)]
                mat[row, col] = (mat[row, col] + 1) % 3
    return OperatorMatrix((r, lam), (r, cod), mat)


def divided_f(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    """i-th divided power of the lowering operator on the weight-lam slice.

    Filling i positions of the complement of S reaches T exactly when
    emptying i positions of T reaches S, so on 0/1 incidence matrices the
    lowering operator is the transpose of the raising one out of the target.
    """
    lam = tuple(lam)
    up = divided_e(r, (lam[0] - i, lam[1] + i), i)
    return OperatorMatrix(up.codomain, up.domain, up.mat.T)


@lru_cache(maxsize=None)
def _realize_b_cached(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    # b(i) = F^(i) E^(i), and F^(i) out of the raised slice is E^(i) transposed.
    up = divided_e(r, lam, i).mat
    return OperatorMatrix((r, lam), (r, lam), _mm3(up.T, up).astype(np.int8))


def realize_b(r: int, lam: tuple[int, int], i: int) -> OperatorMatrix:
    """The canonical basis endomorphism as an explicit weight-space matrix."""
    return _realize_b_cached(r, tuple(lam), i)


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
    """Apply an algebra element to a weight vector through its realization."""
    ctx = x.context
    if ctx.p != 3:
        raise ContextMismatchError("the tensor oracle works mod 3")
    if v.r != ctx.r or tuple(v.lam) != (ctx.lambda1, ctx.lambda2):
        raise ContextMismatchError(
            f"element in {(ctx.lambda1, ctx.lambda2)} applied to vector in {v.lam}"
        )
    here = (v.r, v.lam)
    return OperatorMatrix(here, here, element_matrix(x)).apply(v)


def specht_generator(r: int, lam: tuple[int, int], mu: tuple[int, int]) -> WeightVector:
    """Polytabloid generating the unique copy of the mu Specht module.

    Convention: the mu-tableau has column pairs (2k-1, 2k) for k <= mu2, so
    positions 2, 4, ..., 2*mu2 are forced to carry the second symbol and the
    generator is the signed column average of the row-invariant sum.
    """
    lam, mu = tuple(lam), tuple(mu)
    _require_two_row(lam, mu)
    if sum(lam) != r or sum(mu) != r:
        raise ValueError(f"{lam} and {mu} must be partitions of r={r}")
    if mu[1] > lam[1]:
        raise ValueError(f"mu={mu} does not dominate lambda={lam}")

    forced = frozenset(range(2, 2 * mu[1] + 1, 2))
    free = sorted(set(range(1, r + 1)) - forced)
    extra = lam[1] - mu[1]
    omega = {forced | frozenset(chosen): 1 for chosen in combinations(free, extra)}
    vec = WeightVector(r, lam, omega)
    for k in range(1, mu[1] + 1):
        vec = vec - vec.transposed(2 * k - 1, 2 * k)
    return vec


def j_map(v: WeightVector) -> WeightVector:
    """Column-adding injection: prepend an antisymmetrized two-box column.

    Sends the slice at (r, lam) to (r+2, lam+(1,1)): every subset shifts by
    two and gains position 2 with sign +, position 1 with sign -.
    """
    out = {}
    for s, c in v.coeffs.items():
        shifted = frozenset(x + 2 for x in s)
        out[shifted | {2}] = out.get(shifted | {2}, 0) + c
        out[shifted | {1}] = out.get(shifted | {1}, 0) - c
    return WeightVector(v.r + 2, (v.lam[0] + 1, v.lam[1] + 1), out)


def j_matrix(r: int, lam: tuple[int, int]) -> OperatorMatrix:
    """Matrix of the column-adding injection on the weight-lam slice."""
    lam = tuple(lam)
    big = (lam[0] + 1, lam[1] + 1)
    dom_subsets = _subsets(r, lam[1])
    mat = np.zeros((_weight_dim(r + 2, big), len(dom_subsets)), dtype=np.int8)
    for col, s in enumerate(dom_subsets):
        mat[:, col] = j_map(WeightVector.basis(r, lam, s)).to_dense()
    return OperatorMatrix((r, lam), (r + 2, big), mat)


def check_basis_products(r_max: int) -> list[str]:
    """Matrix products of realized basis elements vs the abstract multiply."""
    failures = []
    for lam in partitions_up_to(r_max):
        r = sum(lam)
        ctx = AlgebraContext(lam[0], lam[1], 3)
        mats = [realize_b(r, lam, i).mat.astype(np.int64) for i in range(lam[1] + 1)]
        for i in range(lam[1] + 1):
            for j in range(lam[1] + 1):
                product = _mm3(mats[i], mats[j])
                expected = element_matrix(mul(ctx.basis(i), ctx.basis(j)))
                if not np.array_equal(product, expected):
                    failures.append(f"lambda={lam}: b({i})b({j}) mismatch")
    return failures


def check_idempotent_matrices(r_max: int) -> list[str]:
    """Realized idempotents square to themselves as matrices."""
    failures = []
    for lam in partitions_up_to(r_max):
        ctx = AlgebraContext(lam[0], lam[1], 3)
        for rec in summands(ctx):
            mat = element_matrix(rec.idempotent)
            if not np.array_equal(_mm3(mat, mat), mat):
                failures.append(f"lambda={lam}, g={rec.g}: matrix not idempotent")
    return failures


def check_j_commutation(r_max: int) -> list[str]:
    """The column-adding injection commutes with every idempotent."""
    failures = []
    for lam in partitions_up_to(r_max):
        r = sum(lam)
        big = (lam[0] + 1, lam[1] + 1)
        jm = j_matrix(r, lam).mat.astype(np.int64)
        ctx = AlgebraContext(lam[0], lam[1], 3)
        big_ctx = AlgebraContext(big[0], big[1], 3)
        for rec in summands(ctx):
            small = element_matrix(rec.idempotent)
            large = element_matrix(build(big_ctx, rec.g))
            if not np.array_equal(_mm3(jm, small), _mm3(large, jm)):
                failures.append(f"lambda={lam}, g={rec.g}: j does not commute")
    return failures


def check_specht_labels(r_max: int) -> list[str]:
    """Idempotents hit the Specht generator exactly for the matching label."""
    failures = []
    for lam in partitions_up_to(r_max):
        r = sum(lam)
        ctx = AlgebraContext(lam[0], lam[1], 3)
        recs = summands(ctx)
        for rec in recs:
            eps = specht_generator(r, lam, rec.mu)
            if eps.is_zero():
                failures.append(f"lambda={lam}, mu={rec.mu}: zero polytabloid")
                continue
            vec = eps.to_dense()
            for other in recs:
                image = (element_matrix(other.idempotent) @ vec) % 3
                hit = bool(image.any())
                if hit != (other.g == rec.g):
                    failures.append(
                        f"lambda={lam}, mu={rec.mu}: e(g={other.g}) "
                        f"{'hits' if hit else 'kills'} the generator"
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
        return {
            "r_max": self.r_max,
            "checks": dict(self.checks),
            "failures": list(self.failures),
        }


def cross_validate(r_max: int = 8) -> OracleReport:
    """Run every oracle check for all two-row partitions with r <= r_max."""
    named = {
        "basis_products": check_basis_products,
        "idempotent_matrices": check_idempotent_matrices,
        "j_commutation": check_j_commutation,
        "specht_labels": check_specht_labels,
    }
    checks, failures = {}, []
    for name, fn in named.items():
        found = fn(r_max)
        checks[name] = not found
        failures.extend(found)
    return OracleReport(r_max=r_max, checks=checks, failures=failures)
