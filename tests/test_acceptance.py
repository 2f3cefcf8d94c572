"""Acceptance gate: every numbered criterion of `pwlab.checks` at its full
budget, one pass/fail line each.  Run with -s to see the lines as they
complete; `pwlab verify` runs the same criteria at the fast budget."""

import pytest

from pwlab import checks


def gate(num: int) -> None:
    res = checks.CRITERIA[num](fast=False)
    print(res.line())
    assert res.passed, res.line()


def test_criterion_01_omega_exactness(): gate(1)
def test_criterion_02_ball_autocorrelation(): gate(2)
def test_criterion_03_sublevel_exponents(): gate(3)
def test_criterion_04_hs_identity(): gate(4)
def test_criterion_05_orthogonal_sum(): gate(5)
def test_criterion_06_russo_bound(): gate(6)
def test_criterion_07_nehari_trend(): gate(7)
def test_criterion_08_tent_anchors(): gate(8)
def test_criterion_09_halfline_constant(): gate(9)
def test_criterion_10_adjusted_hardy(): gate(10)
def test_criterion_11_simplicial_pipeline(): gate(11)
def test_criterion_12_polar_duality(): gate(12)
def test_criterion_13_geometry_lemmas(): gate(13)


@pytest.mark.parametrize("num", [1, 6, 9])
def test_fast_budget(num):
    # The only code paths the full gate does not run.
    res = checks.CRITERIA[num](fast=True)
    assert res.passed, res.line()
