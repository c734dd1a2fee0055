"""Summand enumeration, Kostka multiplicities, and the complete-set report."""

import dataclasses
import hashlib
import json
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tworow.decompose as decompose
from tworow.algebra import AlgebraContext, mul
from tworow.decompose import (
    character_table,
    kostka,
    partitions_up_to,
    summands,
    two_row_partitions,
    verify_complete_set,
    verify_family,
)
from tworow.errors import InvalidPrimeError, UnsupportedCharacteristicError
from tworow.idempotents import build
from tworow.padic import big_b


def ctx3(l1, l2):
    return AlgebraContext(l1, l2, 3)


class TestSummands:
    def test_labels_and_b_are_the_binomials_up_to_r_100(self):
        for l1, l2 in partitions_up_to(100):
            m = l1 - l2
            binomials = [comb(m + 2 * g, g) % 3 for g in range(l2 + 1)]
            recs = summands(ctx3(l1, l2))
            assert [(rec.g, rec.b_value) for rec in recs] == [
                (g, b) for g, b in enumerate(binomials) if b
            ], (l1, l2)
            assert all(rec.mu == (l1 + rec.g, l2 - rec.g) for rec in recs)

    def test_top_summand_example(self):
        recs = summands(ctx3(36, 13))
        top = [rec for rec in recs if rec.g == 13]
        assert len(top) == 1
        assert top[0].mu == (49, 0)
        assert top[0].idempotent == 2 * ctx3(36, 13).basis(13)
        assert top[0].b_value == 2

    def test_row_module(self):
        recs = summands(ctx3(5, 0))
        assert len(recs) == 1
        assert recs[0].g == 0 and recs[0].mu == (5, 0)
        assert recs[0].idempotent == ctx3(5, 0).one()

    def test_two_two(self):
        recs = summands(ctx3(2, 2))
        assert [(rec.g, rec.mu) for rec in recs] == [(0, (2, 2)), (1, (3, 1))]

    def test_ordering_and_labels(self):
        recs = summands(ctx3(20, 9))
        assert [rec.g for rec in recs] == sorted(rec.g for rec in recs)
        for rec in recs:
            assert rec.mu == (20 + rec.g, 9 - rec.g)
            assert sum(rec.mu) == 29
            # labelling round-trips: g recovers from mu
            assert rec.g == 9 - rec.mu[1]

    def test_char3_gate(self):
        with pytest.raises(UnsupportedCharacteristicError):
            summands(AlgebraContext(4, 2, 5))


class TestKostka:
    def test_worked_example(self):
        assert kostka((36, 13), (49, 0), 3) == 1

    def test_diagonal(self):
        assert kostka((7, 4), (7, 4), 3) == 1
        assert kostka((5, 0), (5, 0), 2) == 1

    def test_divisible_binomial(self):
        assert kostka((2, 1), (3, 0), 3) == 0

    def test_dominance_direction(self):
        # mu strictly below lambda in dominance: multiplicity 0
        assert kostka((4, 2), (3, 3), 3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            kostka((2, 3), (4, 1), 3)
        with pytest.raises(ValueError):
            kostka((4, 1), (3, 1), 3)
        with pytest.raises(ValueError):
            kostka((4, 1), (3, 2, 1), 3)

    def test_prime_is_checked_before_the_dominance_shortcut(self):
        # mu[1] > lambda[1] answers 0 without a binomial; p is checked first
        with pytest.raises(InvalidPrimeError):
            kostka((4, 0), (2, 2), 4)
        with pytest.raises(InvalidPrimeError):
            kostka((4, 2), (4, 2), 4)

    @pytest.mark.parametrize(
        "part", [(3.5, 1.5), (True, False), (np.int64(3), 1)], ids=["float", "bool", "numpy"]
    )
    def test_rejects_parts_that_are_not_int(self, part):
        with pytest.raises(ValueError, match="not an integer"):
            kostka(part, part, 3)
        with pytest.raises(ValueError, match="not an integer"):
            kostka((5, 0), part, 3)

    def test_matches_binomial_rule(self):
        for r in range(16):
            for lam in two_row_partitions(r):
                for mu in two_row_partitions(r):
                    expected = 0
                    if mu[1] <= lam[1]:
                        m, g = lam[0] - lam[1], lam[1] - mu[1]
                        expected = 1 if comb(m + 2 * g, g) % 3 else 0
                    assert kostka(lam, mu, 3) == expected


class TestVerifyCompleteSet:
    def test_worked_example(self):
        assert verify_complete_set(ctx3(36, 13)).ok

    def test_one_dimensional(self):
        report = verify_complete_set(ctx3(9, 0))
        assert report.ok and len(report.records) == 1

    def test_two_two_explicit_sum(self):
        ctx = ctx3(2, 2)
        report = verify_complete_set(ctx)
        assert report.ok and len(report.records) == 2
        total = report.records[0].idempotent + report.records[1].idempotent
        assert total == ctx.one()

    def test_sweep_small(self):
        for lam in partitions_up_to(30):
            report = verify_complete_set(ctx3(lam[0], lam[1]))
            assert report.ok, (lam, report.failures)
            expected = sum(
                1 for g in range(lam[1] + 1) if comb(lam[0] - lam[1] + 2 * g, g) % 3
            )
            assert len(report.records) == expected

    def test_large_lambda2_fallback_path(self):
        # a large lambda2, whose indices run to five base-3 digits
        ctx = ctx3(130, 128)
        recs = summands(ctx)
        total = ctx.zero()
        for rec in recs:
            assert rec.idempotent * rec.idempotent == rec.idempotent
            total = total + rec.idempotent
        assert total == ctx.one()

    def test_squares_are_the_products_of_mul(self, monkeypatch):
        # _reports squares every summand in one _squares() call; each row
        # verify reads must be mul(e, e) for that summand
        kernel, seen = decompose._squares, []

        def recorded(ctx, gs, xs):
            out = kernel(ctx, gs, xs)
            seen.append((ctx, xs, out))
            return out

        monkeypatch.setattr(decompose, "_squares", recorded)
        for lam in partitions_up_to(60):
            ctx = ctx3(*lam)
            report = verify_complete_set(ctx)
            ((got, xs, squares),) = seen
            seen.clear()
            assert got == ctx and len(squares) == len(report.records)
            for rec, x, square in zip(report.records, xs.tolist(), squares.tolist()):
                e = rec.idempotent
                assert x == list(e.coeffs) and square == list(mul(e, e).coeffs), (lam, rec.g)

    def test_genuine_records_need_no_structure_constants(self):
        for lam in partitions_up_to(40) + [(3**10 + 150, 150), (2**64 + 60, 60)]:
            ctx = ctx3(*lam)
            assert verify_complete_set(ctx).ok
            assert "_table" not in ctx.__dict__, lam

    def test_changed_row_is_squared_by_products(self, monkeypatch):
        # e(13) doubled is no longer the expansion of its factors, so its row,
        # and only it, goes through products; the others are squared from
        # their factors
        kernel, seen = decompose.products, []

        def recorded(ctx, xs, ys):
            seen.append((xs.tolist(), ys.tolist()))
            return kernel(ctx, xs, ys)

        monkeypatch.setattr(decompose, "products", recorded)
        mutated_build(monkeypatch, lambda c, g, e: e.scale(2) if g == 13 else e)
        ctx = ctx3(36, 13)
        report = verify_complete_set(ctx)
        doubled = list(build(ctx, 13).scale(2).coeffs)
        assert seen == [([doubled], [doubled])]
        assert report.failures[0] == "e(g=13) is not idempotent"

    @pytest.mark.parametrize(
        "m, count, digest",
        [(5, 106, "f93c972f32ce33bc"), (3**10 + 5, 106, "9698ece8364ca082"),
         (2**64, 80, "463daa2cb0ebcfd1")],
    )
    def test_pinned_reports_at_lambda2_1000(self, m, count, digest):
        # seven base-3 digits of the characters and idempotents; the digests
        # pin each report's JSON
        report = verify_complete_set(ctx3(m + 1000, 1000))
        assert report.ok and len(report.records) == count
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_json_schema(self):
        report = verify_complete_set(ctx3(6, 3))
        data = json.loads(json.dumps(report.to_json()))
        assert set(data) == {"lambda", "p", "summands", "checks"}
        assert data["lambda"] == [6, 3] and data["p"] == 3
        assert set(data["checks"]) == {
            "idempotent",
            "orthogonal",
            "sum_to_one",
            "count_match",
        }
        assert all(isinstance(v, bool) for v in data["checks"].values())
        for rec in data["summands"]:
            assert set(rec) == {"g", "mu", "B", "idempotent"}
            assert len(rec["idempotent"]) == 4


def mutated_build(monkeypatch, change):
    """Make summands() return each record's idempotent e(g) as change(ctx, g, e)."""
    original = decompose.summands

    def summands(ctx):
        return [dataclasses.replace(rec, idempotent=change(ctx, rec.g, rec.idempotent))
                for rec in original(ctx)]

    monkeypatch.setattr(decompose, "summands", summands)


def labels(ctx):
    return [g for g in range(ctx.lambda2 + 1) if big_b(ctx.m, g, 3)]


MUTATED = [ctx3(lam[0], lam[1]) for lam in partitions_up_to(24)]


class TestCharacterCertificate:
    """The certificate against the direct pairwise products it replaced."""

    def test_direct_products_vanish_and_certificate_agrees(self):
        for lam in partitions_up_to(60):
            ctx = ctx3(lam[0], lam[1])
            report = verify_complete_set(ctx)
            assert report.checks["orthogonal"], (lam, report.failures)
            idems = [rec.idempotent for rec in report.records]
            for a, ea in enumerate(idems):
                for eb in idems[a + 1 :]:
                    assert (ea * eb).is_zero(), lam

    def test_repeated_idempotent_is_not_orthogonal(self, monkeypatch):
        # e(g0) also returned for g1: every square still passes
        for ctx in MUTATED:
            gs = labels(ctx)
            for g0 in gs:
                for g1 in gs:
                    if g0 == g1:
                        continue
                    monkeypatch.undo()
                    e0 = build(ctx, g0)
                    mutated_build(monkeypatch, lambda c, g, e: e0 if g == g1 else e)
                    report = verify_complete_set(ctx)
                    assert report.checks["idempotent"]
                    assert not report.checks["orthogonal"]
                    low, high = sorted((g0, g1))
                    assert f"e(g={low})*e(g={high}) != 0" in report.failures

    def test_dropped_summand_fails(self, monkeypatch):
        for ctx in MUTATED:
            for dropped in labels(ctx):
                monkeypatch.undo()
                mutated_build(
                    monkeypatch, lambda c, g, e: c.zero() if g == dropped else e
                )
                checks = verify_complete_set(ctx).checks
                assert not (checks["count_match"] and checks["sum_to_one"]), ctx

    def test_swapped_labels_fail_count_match(self, monkeypatch):
        # orthogonal, summing to 1, as many as the characters: only the
        # labels are wrong, which the products could not see
        ctx = ctx3(36, 13)
        e0, e13 = build(ctx, 0), build(ctx, 13)
        swap = {0: e13, 13: e0}
        mutated_build(monkeypatch, lambda c, g, e: swap.get(g, e))
        report = verify_complete_set(ctx)
        assert report.checks == {
            "idempotent": True,
            "orthogonal": True,
            "sum_to_one": True,
            "count_match": False,
        }
        assert "e(g=0) has lowest character chi_13, not chi_0" in report.failures

    def test_failed_square_leaves_orthogonality_undecided(self, monkeypatch):
        ctx = ctx3(36, 13)
        mutated_build(monkeypatch, lambda c, g, e: e.scale(2) if g == 13 else e)
        report = verify_complete_set(ctx)
        assert not report.checks["idempotent"]
        assert not report.checks["orthogonal"]
        assert [line for line in report.failures if "orthogonal" in line] == [
            "orthogonality not certified: an e(g) is not idempotent"
        ]
        assert not any("!= 0" in line for line in report.failures)


TURNOVER_MS = [0, 1, 3**5 - 1, 2**64 + 5, 10**25 + 7]


class TestCharacterTable:
    @pytest.mark.parametrize(
        "m, lambda2, name",
        [(-2, 3, "m=-2"), (2.5, 3, "m=2.5"), (True, 3, "m=True"), (5, 1.0, "lambda2=1.0"),
         (5, -1, "lambda2=-1"), (5, np.int64(3), f"lambda2={np.int64(3)!r}")],
        ids=["m-negative", "m-float", "m-bool", "lambda2-float", "lambda2-negative",
             "lambda2-numpy"],
    )
    def test_rejects_what_is_not_a_natural_number(self, m, lambda2, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} is not an integer >= 0")):
            character_table(m, lambda2)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**12), st.integers(0, 60))
    def test_matches_defining_formula(self, m, lambda2):
        table = character_table(m, lambda2)
        assert table.shape == (lambda2 + 1, lambda2 + 1)
        assert table.dtype == np.int8
        expected = [
            [comb(k, i) * comb(m + k + i, i) % 3 for i in range(lambda2 + 1)]
            for k in range(lambda2 + 1)
        ]
        assert table.tolist() == expected
        assert np.diagonal(table).tolist() == [
            big_b(m, k, 3) for k in range(lambda2 + 1)
        ]
        assert not np.triu(table, 1).any()

    @pytest.mark.parametrize("lambda2", [2, 3, 8, 9, 26, 27, 53, 54, 80, 81])
    @pytest.mark.parametrize("m", TURNOVER_MS)
    def test_matches_defining_formula_where_digits_turn_over(self, m, lambda2):
        # lambda2 = 3^w - 1 and 3^w, and their doubles, change the width of
        # the expansion or fill its top digit
        expected = [[comb(k, i) * comb(m + k + i, i) % 3 for i in range(lambda2 + 1)]
                    for k in range(lambda2 + 1)]
        assert character_table(m, lambda2).tolist() == expected

    @pytest.mark.parametrize("lambda2", [728, 729, 1000])
    def test_sampled_entries_of_wide_tables(self, lambda2):
        rng = np.random.default_rng(lambda2)
        for m in TURNOVER_MS:
            table = character_table(m, lambda2)
            assert table.dtype == np.int8 and not np.triu(table, 1).any()
            ks = rng.integers(0, lambda2 + 1, 100)
            for k, i in zip(ks.tolist(), rng.integers(0, ks + 1).tolist()):
                assert table[k, i] == comb(k, i) * comb(m + k + i, i) % 3, (m, k, i)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**12), st.integers(0, 30), st.data())
    def test_rows_are_ring_maps(self, m, lambda2, data):
        # chi_k(b(i)b(j)) = chi_k(b(i)) chi_k(b(j)) through the algebra's mul
        ctx = ctx3(m + lambda2, lambda2)
        i = data.draw(st.integers(0, lambda2))
        j = data.draw(st.integers(0, lambda2))
        table = character_table(m, lambda2).astype(np.int64)
        product = np.array((ctx.basis(i) * ctx.basis(j)).coeffs)
        assert (table @ product % 3).tolist() == (table[:, i] * table[:, j] % 3).tolist()


# Mutations of build that truncation keeps, so every rung of verify_family
# holds the records verify_complete_set builds, each with its number of
# failing rungs over the families with m + 2*top <= 60.
RUNG_MUTATIONS = {
    "none": (lambda c, g, e: e, 0),
    "e1_plus_one": (lambda c, g, e: e + c.one() if g == 1 else e, 600),
    "e3_doubled": (lambda c, g, e: e.scale(2) if g == 3 else e, 523),
    "e2_dropped": (lambda c, g, e: c.zero() if g == 2 else e, 280),
    "e4_is_e0": (lambda c, g, e: build(c, 0) if g == 4 else e, 315),
    "e0_e9_swapped": (lambda c, g, e: build(c, 9 - g) if g in (0, 9) else e, 961),
}


class TestVerifyFamily:
    """Each m verified once, at its largest lambda2, against every context."""

    @pytest.mark.parametrize(
        "m, top, name",
        [(-5, 3, "m=-5"), (1.5, 2, "m=1.5"), (True, 2, "m=True"), (5, 2.0, "top=2.0"),
         (5, -1, "top=-1"), (5, np.int64(3), f"top={np.int64(3)!r}")],
        ids=["m-negative", "m-float", "m-bool", "top-float", "top-negative", "top-numpy"],
    )
    def test_rejects_what_is_not_a_natural_number(self, m, top, name):
        # named here, not passed on to AlgebraContext as lambda1 = m + top
        with pytest.raises(ValueError, match=re.escape(f"{name} is not an integer >= 0")):
            verify_family(m, top)

    @pytest.mark.parametrize("mutation", list(RUNG_MUTATIONS))
    def test_every_rung_matches_verify_complete_set(self, monkeypatch, mutation):
        change, expected = RUNG_MUTATIONS[mutation]
        mutated_build(monkeypatch, change)
        failing = 0
        for m in range(61):
            top = (60 - m) // 2
            family = verify_family(m, top)
            assert [rep.context for rep in family] == [ctx3(m + l, l) for l in range(top + 1)]
            for l, rep in enumerate(family):
                alone = verify_complete_set(ctx3(m + l, l))
                assert rep.to_json() == alone.to_json(), (m, l)
                assert rep.failures == alone.failures, (m, l)
                failing += not rep.ok
        assert failing == expected

    def test_change_cut_by_truncation_fails_only_the_top_rung(self, monkeypatch):
        # e(5) gains b(top), which every smaller rung truncates away, so the
        # rungs of verify_family no longer match verify_complete_set: only the
        # top rung of each family with a g=5 summand sees the change
        mutated_build(monkeypatch, lambda c, g, e: e + c.basis(c.lambda2) if g == 5 else e)
        failing = []
        for m in range(61):
            top = (60 - m) // 2
            failing += [(m, l) for l, rep in enumerate(verify_family(m, top)) if not rep.ok]
        expected = [(m, (60 - m) // 2) for m in range(51) if big_b(m, 5, 3)]
        assert failing == expected and len(failing) == 11

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**12), st.integers(0, 60), st.data())
    def test_rungs_read_prefixes_of_the_top_characters(self, m, top, data):
        # V = X E^T mod 3 and the number of distinct characters at (m+l, l)
        # are a block of V and a count over a prefix of X at (m+top, top)
        l = data.draw(st.integers(0, top))

        def values(lambda2):
            recs = summands(ctx3(m + lambda2, lambda2))
            coeffs = np.array([rec.idempotent.coeffs for rec in recs])
            return character_table(m, lambda2) @ coeffs.T % 3

        small = values(l)
        assert np.array_equal(values(top)[: l + 1, : small.shape[1]], small)
        rows = set(map(bytes, character_table(m, top)[: l + 1]))
        assert len(rows) == len(set(map(bytes, character_table(m, l))))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**12), st.integers(0, 60), st.data())
    def test_smaller_lambda2_is_a_truncation(self, m, top, data):
        l = data.draw(st.integers(0, top))
        g = data.draw(st.integers(0, top + 1))
        big, small = ctx3(m + top, top), ctx3(m + l, l)
        assert build(small, g).coeffs == build(big, g).coeffs[: l + 1]
        block = character_table(m, top)[: l + 1, : l + 1]
        assert np.array_equal(character_table(m, l), block)


class TestPartitionHelpers:
    def test_two_row(self):
        assert two_row_partitions(4) == [(4, 0), (3, 1), (2, 2)]
        assert two_row_partitions(0) == [(0, 0)]

    def test_up_to_count(self):
        # sum over r of (floor(r/2)+1)
        assert len(partitions_up_to(10)) == sum(r // 2 + 1 for r in range(11))

    @pytest.mark.parametrize("bad", [-3, 2.5, True, np.int64(4)], ids=repr)
    def test_rejects_what_is_not_a_natural_number(self, bad):
        # an empty list would read as a sweep over nothing that passed
        with pytest.raises(ValueError, match=re.escape(f"r={bad!r} is not an integer >= 0")):
            two_row_partitions(bad)
        with pytest.raises(ValueError, match=re.escape(f"n={bad!r} is not an integer >= 0")):
            partitions_up_to(bad)
