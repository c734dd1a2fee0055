"""Tensor-space realization checks: divided powers, polytabloids, the j-map."""

import dataclasses
import hashlib
import json
import random
import re
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

import tworow.oracle as oracle
from tworow.algebra import AlgebraContext, AlgebraElement, mul
from tworow.decompose import summands, two_row_partitions
from tworow.errors import ContextMismatchError
from tworow.idempotents import build
from tworow.oracle import (
    OperatorMatrix,
    WeightVector,
    apply_element,
    check_basis_products,
    check_idempotent_matrices,
    check_j_commutation,
    check_specht_labels,
    cross_validate,
    divided_e,
    divided_f,
    element_matrix,
    j_map,
    j_matrix,
    realize_b,
    specht_generator,
)


# sha256 of every operator's to_json() and dtype for r <= 9 (see
# TestByteIdentity), and of cross_validate(12).to_json(), as recorded while
# weight vectors were still dicts keyed by frozenset.
OPERATORS_R9_DIGEST = "0fb0fe5ca893aa22b55a8e11e182c546a292002198b50ea1380a0b805939dde4"
CROSS_VALIDATE_12_DIGEST = "81ecccf8309a78c879be494dc42c2c0ab56463b4edb2d6279638ad48f8be7ede"


def vec(wv):
    """Readable dict form of a weight vector."""
    return {tuple(sorted(s)): c for s, c in wv.coeffs.items()}


def colex(r, k):
    """k-subsets of {1..r} in colexicographic order, as frozensets."""
    subsets = sorted(combinations(range(1, r + 1), k), key=lambda s: s[::-1])
    return [frozenset(s) for s in subsets]


def rank_mod3(mat):
    """Row-echelon rank over the field with three elements."""
    work = mat.astype(np.int64) % 3
    rank = 0
    rows, cols = work.shape
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if work[i, col] % 3), None)
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        inv = 1 if work[rank, col] % 3 == 1 else 2
        work[rank] = work[rank] * inv % 3
        for i in range(rows):
            if i != rank and work[i, col] % 3:
                work[i] = (work[i] - work[i, col] * work[rank]) % 3
        rank += 1
    return rank


class TestDividedPowers:
    def test_raising_on_two_letters(self):
        op = divided_e(2, (1, 1), 1)
        # basis {1}, {2} both map to the empty subset
        assert op.mat.tolist() == [[1, 1]]
        assert op.codomain == (2, (2, 0))

    def test_zeroth_power_is_identity(self):
        op = divided_e(5, (3, 2), 0)
        assert np.array_equal(op.mat, np.eye(10, dtype=op.mat.dtype))

    def test_lowering_on_two_letters(self):
        op = divided_f(2, (2, 0), 1)
        assert op.mat.tolist() == [[1], [1]]

    def test_invalid_target_weight(self):
        op = divided_e(2, (1, 1), 2)
        assert op.mat.shape == (0, 2)

    def test_lowering_fills_positions_of_the_complement(self):
        # Built here from the definition, with no use of the raising operator.
        for r in range(9):
            for w2 in range(r + 1):
                dom = colex(r, w2)
                for i in range(r - w2 + 2):
                    cod = colex(r, w2 + i)
                    index = {s: row for row, s in enumerate(cod)}
                    expected = np.zeros((len(cod), len(dom)), dtype=np.int64)
                    for col, s in enumerate(dom):
                        rest = sorted(set(range(1, r + 1)) - s)
                        for added in combinations(rest, i):
                            expected[index[s | frozenset(added)], col] += 1
                    op = divided_f(r, (r - w2, w2), i)
                    assert op.domain == (r, (r - w2, w2))
                    assert op.codomain == (r, (r - w2 - i, w2 + i))
                    assert op.mat.shape == expected.shape
                    assert np.array_equal(op.mat, expected % 3)

    def test_negative_index_is_named(self):
        for op in (divided_e, divided_f, realize_b):
            with pytest.raises(ValueError, match="i=-1"):
                op(4, (2, 2), -1)

    def test_weight_must_sum_to_r(self):
        with pytest.raises(ValueError, match=r"weight \(5, 1\) does not sum to r=3"):
            divided_e(3, (5, 1), 1)
        with pytest.raises(ValueError, match="does not sum to r=3"):
            divided_f(3, (5, 1), 1)

    def test_lowering_names_the_weight_it_was_given(self):
        with pytest.raises(ValueError, match=r"weight \(5, 1\) does not sum to r=3"):
            divided_f(3, (5, 1), 1)
        with pytest.raises(ValueError, match=r"weight \(2, 2\) does not sum to r=3"):
            divided_f(3, [2, 2], 0)

    def test_empty_codomain_shapes_still_accepted(self):
        # divided_f passes the negative part -1 to divided_e: no subsets, no error
        assert divided_f(3, (1, 2), 2).mat.shape == (0, 3)
        assert divided_e(3, (1, 2), 3).mat.shape == (0, 3)

    def test_negative_part_addresses_an_empty_slice(self):
        # a negative part of the domain weight leaves no columns
        assert divided_e(3, (4, -1), 0).mat.shape == (0, 0)
        assert realize_b(3, (4, -1), 0).mat.shape == (0, 0)
        assert j_matrix(3, (4, -1)).mat.shape == (1, 0)
        assert divided_e(3, (-1, 4), 1).mat.shape == (1, 0)
        assert divided_f(3, (4, -1), 1).mat.shape == (1, 0)

    def test_iterated_single_step_is_factorial_multiple(self):
        # composing i single raisings equals i! times the i-th divided power
        from math import factorial

        r, lam = 7, (3, 4)
        for i in (1, 2, 3):
            step = np.eye(len(realize_b(r, lam, 0).mat), dtype=np.int64)
            weight = lam
            for _ in range(i):
                step = divided_e(r, weight, 1).mat.astype(np.int64) @ step
                weight = (weight[0] + 1, weight[1] - 1)
            direct = divided_e(r, lam, i).mat.astype(np.int64)
            assert np.array_equal(step % 3, factorial(i) * direct % 3)


class TestRealizeB:
    def test_identity_on_a_slice_that_does_not_exist(self):
        # (5, 1) is not a weight of r = 3; b(0) would be a 3x3 zero matrix
        with pytest.raises(ValueError, match=r"weight \(5, 1\)"):
            realize_b(3, (5, 1), 0)

    def test_short_weight_is_rejected(self):
        # (1, 1) sums to 2, not 4; b(1) would be a 4x4 zero matrix
        with pytest.raises(ValueError, match=r"weight \(1, 1\)"):
            realize_b(4, (1, 1), 1)

    def test_rank_one_example(self):
        assert realize_b(2, (1, 1), 1).mat.tolist() == [[1, 1], [1, 1]]

    def test_zeroth_is_identity(self):
        mat = realize_b(6, (4, 2), 0).mat
        assert np.array_equal(mat, np.eye(15, dtype=mat.dtype))

    def test_square_matches_structure(self):
        a = realize_b(2, (1, 1), 1).mat.astype(np.int64)
        assert np.array_equal(a @ a % 3, 2 * a % 3)

    def test_truncated_index_is_zero(self):
        assert not realize_b(4, (3, 1), 2).mat.any()

    def test_johnson_scheme_closed_form(self):
        # b(i) sends S to the sum over T of C(lambda2-k, i-k) T, k = |S \ T|:
        # of the i positions emptied, the k in S \ T are forced.
        for r in range(10):
            for lam in two_row_partitions(r):
                subsets = colex(r, lam[1])
                for i in range(lam[1] + 2):
                    expected = np.array([
                        [
                            comb(lam[1] - len(s - t), i - len(s - t)) % 3
                            if i >= len(s - t) else 0
                            for s in subsets
                        ]
                        for t in subsets
                    ])
                    assert np.array_equal(realize_b(r, lam, i).mat, expected)


class TestWeightVector:
    def test_rejects_subset_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="basis subset"):
            WeightVector(4, (2, 2), {frozenset({1, 2, 3}): 1})

    def test_rejects_positions_outside_the_range(self):
        for bad in (frozenset({1, 5}), frozenset({0, 1}), (1, 2)):
            with pytest.raises(ValueError, match="basis subset"):
                WeightVector(4, (2, 2), {bad: 1})

    def test_rejects_weight_that_is_not_a_composition(self):
        for lam in ((3, 2), (5, -1), (2, 1, 1)):
            with pytest.raises(ValueError, match="composition"):
                WeightVector(4, lam, {})

    def test_rejects_a_coefficient_that_is_not_an_int(self):
        for c in (1.5, 1.0, True, np.int64(1), "1"):
            with pytest.raises(ValueError, match="coefficient"):
                WeightVector(4, (2, 2), {frozenset({1, 2}): c})

    def test_dense_rejects_the_wrong_length(self):
        for shape in (5, 7, (6, 1)):
            with pytest.raises(ValueError, match=r"shape \(6,\)"):
                WeightVector(4, (2, 2), dense=np.zeros(shape, dtype=np.int64))

    def test_dense_rejects_a_non_integer_dtype(self):
        for dtype in (np.float64, bool, object):
            with pytest.raises(ValueError, match="integer array"):
                WeightVector(4, (2, 2), dense=np.zeros(6, dtype=dtype))

    def test_dense_reduces_any_integer_dtype(self):
        for dtype in (np.int8, np.int32, np.uint16):
            v = WeightVector(2, (1, 1), dense=np.array([4, 5], dtype=dtype))
            assert v.dense.dtype == np.int64 and v.dense.tolist() == [1, 2]

    def test_takes_exactly_one_source(self):
        with pytest.raises(ValueError, match="either"):
            WeightVector(2, (1, 1))
        with pytest.raises(ValueError, match="either"):
            WeightVector(2, (1, 1), {}, dense=np.zeros(2, dtype=np.int64))

    def test_views_are_read_only(self):
        v = WeightVector(2, (1, 1), {frozenset({1}): 1})
        with pytest.raises(TypeError):
            v.coeffs[frozenset({2})] = 1
        with pytest.raises(ValueError):
            v.dense[1] = 1

    def test_dict_round_trip_keeps_the_nonzero_residues(self):
        rng = random.Random(15)
        for r in range(8):
            for w2 in range(r + 1):
                lam, subsets = (r - w2, w2), colex(r, w2)
                raw = {s: rng.randrange(-7, 8) for s in subsets}
                v = WeightVector(r, lam, raw)
                assert v.dense.tolist() == [raw[s] % 3 for s in subsets]
                assert dict(v.coeffs) == {s: c % 3 for s, c in raw.items() if c % 3}
                assert WeightVector(r, lam, dict(v.coeffs)) == v
                assert WeightVector(r, lam, dense=v.dense) == v

    def test_transposition_must_move_positions_of_the_slice(self):
        v = WeightVector(3, (2, 1), {frozenset({1}): 1})
        for a, b in ((0, 1), (1, 4), (-1, 2)):
            with pytest.raises(ValueError, match="transposition"):
                v.transposed(a, b)


class TestDefinitions:
    """The array code against the definitions, written here with frozensets."""

    def test_j_map_shifts_and_adds_a_column(self):
        # every subset shifts by two and gains {2} with sign +, {1} with sign -
        rng = random.Random(13)
        for r in range(9):
            for w2 in range(r + 1):
                lam = (r - w2, w2)
                for _ in range(3):
                    v = {s: rng.randrange(3) for s in colex(r, w2)}
                    expected = {}
                    for s, c in v.items():
                        shifted = frozenset(x + 2 for x in s)
                        expected[shifted | {2}] = expected.get(shifted | {2}, 0) + c
                        expected[shifted | {1}] = expected.get(shifted | {1}, 0) - c
                    out = j_map(WeightVector(r, lam, v))
                    assert (out.r, out.lam) == (r + 2, (lam[0] + 1, lam[1] + 1))
                    assert dict(out.coeffs) == {t: c % 3 for t, c in expected.items() if c % 3}

    def test_transposed_swaps_the_positions_in_each_subset(self):
        rng = random.Random(14)
        for r in range(1, 8):
            for w2 in range(r + 1):
                v = {s: rng.randrange(1, 3) for s in colex(r, w2)}
                wv = WeightVector(r, (r - w2, w2), v)
                for a in range(1, r + 1):
                    for b in range(1, r + 1):
                        swap = {a: b, b: a}
                        moved = {frozenset(swap.get(x, x) for x in s): c for s, c in v.items()}
                        assert dict(wv.transposed(a, b).coeffs) == moved

    def test_specht_generator_is_the_signed_column_sum(self):
        # sum over the column group {1, (1 2)} x {1, (3 4)} x ... of the sign
        # times the image of the sum of the subsets holding 2, 4, ..., 2*mu2
        for r in range(11):
            for lam in two_row_partitions(r):
                for g in range(lam[1] + 1):
                    mu = (lam[0] + g, lam[1] - g)
                    forced = frozenset(range(2, 2 * mu[1] + 1, 2))
                    expected = {}
                    for s in colex(r, lam[1]):
                        if not forced <= s:
                            continue
                        for flips in product((False, True), repeat=mu[1]):
                            t, sign = set(s), 1
                            for k, flip in enumerate(flips, start=1):
                                if flip:
                                    swap = {2 * k - 1: 2 * k, 2 * k: 2 * k - 1}
                                    t, sign = {swap.get(x, x) for x in t}, -sign
                            key = frozenset(t)
                            expected[key] = expected.get(key, 0) + sign
                    residues = {t: c % 3 for t, c in expected.items() if c % 3}
                    assert dict(specht_generator(r, lam, mu).coeffs) == residues, (lam, mu)


class TestKernel:
    """The subset-sum kernel against the dense realized matrices."""

    def test_block_apply_matches_realized_matrix(self):
        rng = np.random.default_rng(8)
        for r in range(10):
            for lam in two_row_partitions(r):
                block = rng.integers(0, 3, size=(comb(r, lam[1]), 3))
                for i in range(lam[1] + 2):
                    expected = realize_b(r, lam, i).mat.astype(np.int64) @ block % 3
                    assert np.array_equal(oracle._apply_b(r, lam[1], i, block), expected)

    def test_apply_element_matches_element_matrix(self):
        rng = random.Random(4)
        for lam in [(1, 1), (4, 1), (3, 3), (5, 2), (6, 4)]:
            r, here = sum(lam), (sum(lam), lam)
            ctx = AlgebraContext(lam[0], lam[1], 3)
            for _ in range(4):
                x = ctx.from_coeffs([rng.randrange(3) for _ in range(ctx.dim)])
                v = WeightVector(r, lam, {s: rng.randrange(3) for s in colex(r, lam[1])})
                dense = OperatorMatrix(here, here, element_matrix(x)).apply(v)
                assert apply_element(x, v) == dense


@pytest.fixture
def fresh_kernel_caches():
    """Drop verdicts and images computed from a kernel a test replaces."""
    caches = (oracle._equivariant, oracle._generator_images)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestFaultsAreCaught:
    """The checks on the generator e_S0 still see a wrong input."""

    def test_corrupted_product_is_named(self, monkeypatch):
        def corrupted(x, y):
            z = mul(x, y)
            ctx = x.context
            if (ctx.lambda1, ctx.lambda2) == (5, 3) and (x, y) == (ctx.basis(2), ctx.basis(3)):
                return AlgebraElement(ctx, ((z.coeffs[0] + 1) % 3, *z.coeffs[1:]))
            return z

        monkeypatch.setattr(oracle, "mul", corrupted)
        assert check_basis_products(8) == ["lambda=(5, 3): b(2)b(3) mismatch"]

    def test_moved_incidence_pair_breaks_equivariance(self, monkeypatch, fresh_kernel_caches):
        honest = oracle._incidence

        def moved(r, k, i):
            down, up = honest(r, k, i)
            if (r, k, i) == (8, 3, 2):
                down = down.copy()
                down[5, 0] = (down[5, 0] + 1) % len(up)
            return down, up

        monkeypatch.setattr(oracle, "_incidence", moved)
        line = "lambda=(5, 3): E^(2) not equivariant"
        assert line in check_basis_products(8)
        assert line in check_idempotent_matrices(8)

    def test_swapped_idempotents_fail_the_labels(self, monkeypatch):
        def swapped(ctx):
            recs = summands(ctx)
            if len(recs) < 2:
                return recs
            a, b, *rest = recs
            return [
                dataclasses.replace(a, idempotent=b.idempotent),
                dataclasses.replace(b, idempotent=a.idempotent),
                *rest,
            ]

        monkeypatch.setattr(oracle, "summands", swapped)
        failures = check_specht_labels(6)
        assert any(line.startswith("lambda=(2, 2), mu=(2, 2)") for line in failures)

    def test_skewed_injection_breaks_equivariance(self, monkeypatch):
        honest = oracle._j_incidence

        def skewed(r, lam):
            # forgets the images of subsets holding position 1
            rows, cols, vals = honest(r, lam)
            subsets = colex(r, lam[1])
            keep = np.array([1 not in subsets[c] for c in cols], dtype=bool)
            return rows[keep], cols[keep], vals[keep]

        monkeypatch.setattr(oracle, "_j_incidence", skewed)
        assert "lambda=(3, 2): j not equivariant" in check_j_commutation(5)


class TestApplyElement:
    def test_identity(self):
        ctx = AlgebraContext(2, 1, 3)
        v = WeightVector.basis(3, (2, 1), {2})
        assert apply_element(ctx.one(), v) == v

    def test_basis_action(self):
        ctx = AlgebraContext(1, 1, 3)
        v = WeightVector.basis(2, (1, 1), {2})
        image = apply_element(ctx.basis(1), v)
        assert vec(image) == {(1,): 1, (2,): 1}

    def test_zero_element(self):
        ctx = AlgebraContext(2, 2, 3)
        v = WeightVector.basis(4, (2, 2), {1, 2})
        assert apply_element(ctx.zero(), v).is_zero()

    def test_slice_mismatch(self):
        ctx = AlgebraContext(2, 1, 3)
        v = WeightVector.basis(4, (2, 2), {1, 2})
        with pytest.raises(ContextMismatchError):
            apply_element(ctx.one(), v)


class TestSpechtGenerator:
    def test_single_column(self):
        eps = specht_generator(2, (1, 1), (1, 1))
        assert vec(eps) == {(2,): 1, (1,): 2}

    def test_trivial_column_group(self):
        eps = specht_generator(4, (4, 0), (4, 0))
        assert vec(eps) == {(): 1}

    def test_four_letter_example(self):
        eps = specht_generator(4, (2, 2), (3, 1))
        assert vec(eps) == {(2, 3): 1, (2, 4): 1, (1, 3): 2, (1, 4): 2}

    def test_never_zero(self):
        for r in range(11):
            for lam in two_row_partitions(r):
                for g in range(lam[1] + 1):
                    mu = (lam[0] + g, lam[1] - g)
                    assert not specht_generator(r, lam, mu).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            specht_generator(4, (2, 2), (2, 1))
        with pytest.raises(ValueError):
            specht_generator(4, (3, 1), (2, 2))
        with pytest.raises(ValueError):
            specht_generator(4, (1, 3), (4, 0))


class TestJMap:
    def test_basis_image(self):
        v = WeightVector.basis(1, (1, 0), ())
        out = j_map(v)
        assert (out.r, out.lam) == (3, (2, 1))
        assert vec(out) == {(2,): 1, (1,): 2}

    def test_zero(self):
        z = WeightVector(2, (1, 1), {})
        assert j_map(z).is_zero()

    def test_sends_polytabloid_to_polytabloid(self):
        for r, lam, mu in [
            (2, (1, 1), (1, 1)),
            (4, (2, 2), (3, 1)),
            (5, (3, 2), (4, 1)),
            (6, (3, 3), (3, 3)),
        ]:
            big_lam = (lam[0] + 1, lam[1] + 1)
            big_mu = (mu[0] + 1, mu[1] + 1)
            assert j_map(specht_generator(r, lam, mu)) == specht_generator(
                r + 2, big_lam, big_mu
            )

    def test_weight_must_be_two_parts_summing_to_r(self):
        for lam in ((1, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match="does not sum to r=3"):
                j_matrix(3, lam)

    def test_injective(self):
        for r in range(7):
            for lam in two_row_partitions(r):
                mat = j_matrix(r, lam).mat
                assert rank_mod3(mat) == mat.shape[1]

    def test_matrix_matches_map(self):
        for lam in [(2, 1), (3, 2)]:
            r = sum(lam)
            op = j_matrix(r, lam)
            for s in colex(r, lam[1]):
                v = WeightVector.basis(r, lam, s)
                assert op.apply(v) == j_map(v)

    def test_commutes_with_idempotents_elementwise(self):
        for lam in [(2, 1), (2, 2), (3, 2)]:
            r = sum(lam)
            ctx = AlgebraContext(lam[0], lam[1], 3)
            big_ctx = AlgebraContext(lam[0] + 1, lam[1] + 1, 3)
            for rec in summands(ctx):
                e_big = build(big_ctx, rec.g)
                for s in colex(r, lam[1]):
                    x = WeightVector.basis(r, lam, s)
                    assert j_map(apply_element(rec.idempotent, x)) == apply_element(
                        e_big, j_map(x)
                    )


class TestCrossValidation:
    def test_tiny_spaces(self):
        assert cross_validate(2).ok

    def test_desk_scale(self):
        report = cross_validate(8)
        assert report.ok, report.failures
        assert set(report.checks) == {
            "basis_products",
            "idempotent_matrices",
            "j_commutation",
            "specht_labels",
        }

    @pytest.mark.parametrize("r_max", [-1, 1.5, True, "8"])
    def test_rejects_r_max_that_is_not_a_natural_number(self, r_max):
        # -1 would be a vacuous PASS over no partitions
        with pytest.raises(ValueError, match=re.escape(f"r_max={r_max!r} ")):
            cross_validate(r_max)

    def test_basis_products_medium(self):
        assert check_basis_products(8) == []

    def test_command_line_scale(self):
        report = cross_validate(12)
        assert report.ok, report.failures
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CROSS_VALIDATE_12_DIGEST

    def test_basis_products_past_the_dense_scale(self):
        assert check_basis_products(14) == []

    def test_j_commutation_example(self):
        assert check_j_commutation(6) == []

    def test_two_two_label_separation(self):
        lam = (2, 2)
        ctx = AlgebraContext(2, 2, 3)
        eps = specht_generator(4, lam, (3, 1))
        hit = apply_element(build(ctx, 1), eps)
        miss = apply_element(build(ctx, 0), eps)
        assert not hit.is_zero()
        assert miss.is_zero()

    def test_matrix_product_equals_algebra_product(self):
        ctx = AlgebraContext(4, 3, 3)
        for i in range(4):
            for j in range(4):
                left = element_matrix(ctx.basis(i)).astype(np.int64)
                right = element_matrix(ctx.basis(j)).astype(np.int64)
                assert np.array_equal(
                    left @ right % 3, element_matrix(mul(ctx.basis(i), ctx.basis(j)))
                )

    def test_idempotent_matrices_by_hand(self):
        for lam in [(3, 3), (5, 2), (4, 4)]:
            ctx = AlgebraContext(lam[0], lam[1], 3)
            for rec in summands(ctx):
                mat = element_matrix(rec.idempotent).astype(np.int64)
                assert np.array_equal(mat @ mat % 3, mat)


class TestMatrixJson:
    def test_dump_shape(self):
        op = realize_b(3, (2, 1), 1)
        data = op.to_json()
        assert data["domain"] == [3, [2, 1]]
        assert data["codomain"] == [3, [2, 1]]
        assert data["basis_order"] == "colex"
        assert np.array_equal(np.array(data["rows"]), op.mat)


class TestByteIdentity:
    """Every operator matrix with r <= 9 keeps its JSON and dtype byte for byte."""

    def test_operator_matrices_up_to_r_9(self):
        digest, count = hashlib.sha256(), 0
        for r in range(10):
            for w2 in range(r + 1):
                lam = (r - w2, w2)
                ops = [
                    f(r, lam, i) for i in range(r + 2) for f in (divided_e, divided_f, realize_b)
                ]
                for op in [*ops, j_matrix(r, lam)]:
                    digest.update(json.dumps(op.to_json()).encode())
                    digest.update(str(op.mat.dtype).encode())
                    count += 1
        assert count == 1375
        assert digest.hexdigest() == OPERATORS_R9_DIGEST
