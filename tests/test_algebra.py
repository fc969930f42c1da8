"""Blockwise arithmetic, norms and functional calculus of algebra elements."""

import numpy as np
import pytest

from cstar_rank import (
    Algebra,
    DomainError,
    InvertibilityError,
    ShapeMismatchError,
)

BASES = [(1,), (2,), (3,), (1, 2), (2, 3)]


def test_unit_blocks():
    assert np.array_equal(Algebra((1,)).unit().blocks[0], np.eye(1))
    assert np.array_equal(Algebra((2,)).unit().blocks[0], np.eye(2))
    u = Algebra((1, 2)).unit()
    assert np.array_equal(u.blocks[0], np.eye(1))
    assert np.array_equal(u.blocks[1], np.eye(2))


def test_construction_rejects_degenerate_algebras():
    with pytest.raises(ValueError):
        Algebra(())
    with pytest.raises(ValueError):
        Algebra((0,))
    with pytest.raises(ValueError):
        Algebra((2, -1))


def test_element_shape_validation():
    alg = Algebra((2,))
    with pytest.raises(ShapeMismatchError):
        alg.element([np.eye(3)])
    with pytest.raises(ShapeMismatchError):
        alg.element([np.eye(2), np.eye(2)])


def test_adjoint_of_unit_and_unit_product():
    alg = Algebra((1, 2))
    u = alg.unit()
    rng = np.random.default_rng(0)
    a = alg.random_element(rng)
    assert (u.adjoint() - u).norm() == 0.0
    assert ((a * u) - a).norm() == 0.0
    assert ((u * a) - a).norm() == 0.0


def test_adjoint_is_exact_involution():
    rng = np.random.default_rng(1)
    for base in BASES:
        alg = Algebra(base)
        for _ in range(40):
            a = alg.random_element(rng)
            back = a.adjoint().adjoint()
            assert all(
                np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks)
            )


def test_adjoint_reverses_products():
    # Both sides computed blockwise with raw numpy as the oracle.
    rng = np.random.default_rng(2)
    alg = Algebra((2, 3))
    for _ in range(50):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        lhs = (a * b).adjoint()
        for blk, ab, bb in zip(lhs.blocks, a.blocks, b.blocks):
            expected = bb.conj().T @ ab.conj().T
            assert np.linalg.norm(blk - expected) < 1e-12 * max(
                1.0, np.linalg.norm(expected)
            )


def test_norm_trivial_values():
    alg = Algebra((1, 2))
    assert alg.unit().norm() == 1.0
    assert alg.zero().norm() == 0.0


def test_cstar_identity():
    rng = np.random.default_rng(3)
    for base in BASES:
        alg = Algebra(base)
        for _ in range(100):
            a = alg.random_element(rng)
            # Independent route: largest singular value per raw block, squared.
            direct = max(
                np.linalg.svd(blk, compute_uv=False)[0] for blk in a.blocks
            ) ** 2
            assert abs((a.adjoint() * a).norm() - direct) <= 1e-10 * direct


def test_is_invertible_trivial():
    alg = Algebra((2,))
    assert alg.unit().is_invertible(1e-9)
    assert not alg.zero().is_invertible(1e-9)


def test_is_invertible_small_singular_value():
    alg = Algebra((2,))
    a = alg.element([np.diag([1.0, 1e-15])])
    # Oracle: the smallest singular value is 1e-15, far below 1e-9 * 1.
    assert np.linalg.svd(a.blocks[0], compute_uv=False)[-1] < 1e-9
    assert not a.is_invertible(1e-9)


def test_margin_is_relative_and_refuses_non_finite_values():
    alg = Algebra((1, 2))
    a = alg.element([np.array([[4.0]]), np.diag([2.0, 0.5])])
    assert a.margin() == 0.5 / 4.0
    assert a.is_invertible(0.12) and not a.is_invertible(0.13)
    for bad in (np.inf, np.nan):
        b = alg.element([np.array([[1.0]]), np.diag([bad, 1.0])])
        with pytest.raises(DomainError, match="not finite"):
            b.margin()


def test_is_invertible_rejects_bad_tol():
    with pytest.raises(ValueError):
        Algebra((1,)).unit().is_invertible(0.0)


def test_inverse_trivial():
    alg = Algebra((1, 2))
    u = alg.unit()
    assert (u.inverse() - u).norm() < 1e-14
    assert ((2.0 * u).inverse() - 0.5 * u).norm() < 1e-14


def test_inverse_roundtrip_and_two_sided():
    rng = np.random.default_rng(4)
    for base in BASES:
        alg = Algebra(base)
        unit = alg.unit()
        for _ in range(30):
            g = alg.random_element(rng)
            a = g + (2.0 * g.norm() + 1.0) * unit  # guaranteed well conditioned
            inv = a.inverse()
            assert (a * inv - unit).norm() < 1e-8
            assert (inv * a - unit).norm() < 1e-8
            assert (inv.inverse() - a).norm() < 1e-8 * a.norm()


def test_inverse_of_singular_raises():
    with pytest.raises(InvertibilityError):
        Algebra((2,)).zero().inverse()


def test_positive_part_trivial_cases():
    alg = Algebra((1,))
    u = alg.unit()
    assert (u.positive_part() - u).norm() == 0.0
    assert (-u).positive_part().norm() == 0.0
    alg2 = Algebra((2,))
    b = alg2.element([np.diag([2.0, -3.0])])
    assert np.allclose(b.positive_part().blocks[0], np.diag([2.0, 0.0]))


def test_positive_part_rejects_non_self_adjoint():
    alg = Algebra((2,))
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(DomainError):
        a.positive_part()


def test_functional_calculus_decomposition():
    rng = np.random.default_rng(5)
    for base in BASES:
        alg = Algebra(base)
        for _ in range(40):
            g = alg.random_element(rng)
            b = (g + g.adjoint()) * 0.5
            pos = b.positive_part()
            neg = (-b).positive_part()
            scale = b.norm()
            assert (b - (pos - neg)).norm() <= 1e-10 * scale
            assert (pos * neg).norm() <= 1e-10 * scale
            assert min(w[0] for w in pos.eigenvalues()) >= -1e-10 * scale


def test_spectral_mapping_of_positive_part():
    rng = np.random.default_rng(6)
    alg = Algebra((3, 2))
    for _ in range(40):
        g = alg.random_element(rng)
        b = (g + g.adjoint()) * 0.5
        pos = b.positive_part()
        for pb, bb in zip(pos.blocks, b.blocks):
            # Oracle: clip the raw eigenvalues of the input block.
            expected = np.clip(np.linalg.eigvalsh((bb + bb.conj().T) / 2), 0, None)
            got = np.linalg.eigvalsh((pb + pb.conj().T) / 2)
            assert np.max(np.abs(np.sort(expected) - np.sort(got))) <= 1e-10 * max(
                1.0, b.norm()
            )


def test_inv_sqrt_trivial_and_roundtrip():
    alg = Algebra((1, 2))
    u = alg.unit()
    assert (u.inv_sqrt() - u).norm() < 1e-12
    assert ((4.0 * u).inv_sqrt() - 0.5 * u).norm() < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = alg.random_element(rng)
        a = g.adjoint() * g + u
        s = a.inv_sqrt()
        assert (s * a * s - u).norm() < 1e-8
        assert s.is_self_adjoint()


def test_inv_sqrt_rejects_non_positive():
    alg = Algebra((2,))
    with pytest.raises(DomainError):
        alg.element([np.diag([1.0, -1.0])]).inv_sqrt()
    with pytest.raises(DomainError):
        alg.zero().inv_sqrt()


def test_cross_algebra_operations_fail():
    a = Algebra((2,)).unit()
    b = Algebra((3,)).unit()
    with pytest.raises(ShapeMismatchError):
        a + b
    with pytest.raises(ShapeMismatchError):
        a * b


def test_scalar_operations():
    alg = Algebra((2,))
    u = alg.unit()
    assert ((2 * u) - (u * 2)).norm() == 0.0
    assert ((u / 4) - 0.25 * u).norm() == 0.0
    assert ((1j * u) * (1j * u) + u).norm() < 1e-15


def test_blocks_are_read_only():
    a = Algebra((2,)).unit()
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0
