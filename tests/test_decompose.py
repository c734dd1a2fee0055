"""Summand enumeration, Kostka multiplicities, and the complete-set report."""

import json
from math import comb

import pytest

from tworow.algebra import AlgebraContext
from tworow.decompose import (
    kostka,
    partitions_up_to,
    summands,
    two_row_partitions,
    verify_complete_set,
)
from tworow.errors import UnsupportedCharacteristicError


def ctx3(l1, l2):
    return AlgebraContext(l1, l2, 3)


class TestSummands:
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


class TestPartitionHelpers:
    def test_two_row(self):
        assert two_row_partitions(4) == [(4, 0), (3, 1), (2, 2)]
        assert two_row_partitions(0) == [(0, 0)]

    def test_up_to_count(self):
        # sum over r of (floor(r/2)+1)
        assert len(partitions_up_to(10)) == sum(r // 2 + 1 for r in range(11))
