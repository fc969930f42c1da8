"""Acceptance gate: every exit criterion at its stated tolerance.

Each test runs one criterion of the battery in ``cstar_rank.acceptance``,
prints its pass/fail line (visible with ``pytest -s`` or in the
``verify-suite`` CLI command) and asserts the verdict.  The whole battery
takes on the order of half a minute.
"""

import pytest

from cstar_rank import acceptance

pytestmark = pytest.mark.acceptance


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, f"{result.name}: {result.details}"


def test_criterion_1_formula_grid():
    _run(acceptance.criterion_formula_grid)


def test_criterion_2_dual_witness():
    _run(acceptance.criterion_dual_witness)


def test_criterion_3_um_equals_gen():
    _run(acceptance.criterion_um_equals_gen)


def test_criterion_4_warfield():
    _run(acceptance.criterion_warfield)


def test_criterion_5_herman_vaserstein():
    _run(acceptance.criterion_herman_vaserstein)


def test_criterion_6_negative_control():
    _run(acceptance.criterion_negative_control)


def test_criterion_7_kernel_numerics():
    _run(acceptance.criterion_kernel_numerics)


def test_criterion_8_reproducibility():
    _run(acceptance.criterion_reproducibility)
