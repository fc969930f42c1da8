"""Inner products, unimodularity, witnesses, the generator oracle and corners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_rank import (
    DEFAULT_TOL,
    Algebra,
    DegenerateModuleError,
    DomainError,
    ModuleElement,
    ModuleSpace,
    ModuleTuple,
    ShapeMismatchError,
    corner_space,
    dual_witness,
    gen_oracle,
    generation_margin,
    gram,
    inner_left,
    inner_right,
    is_full,
    is_unimodular,
    normalize_tuple,
    pairing,
    stack,
    tuple_from_json_list,
    unimodularity_margin,
)
from cstar_rank.algebra import _lapack


def scalar_space():
    return ModuleSpace(Algebra((1,)), 1, 1)


def random_tuple(space, rng, k):
    return ModuleTuple(tuple(space.random_element(rng) for _ in range(k)))


def random_unimodular(space, rng, k):
    for _ in range(100):
        t = random_tuple(space, rng, k)
        if is_unimodular(t):
            return t
    raise AssertionError("sampling failed")


# -- inner products -----------------------------------------------------------


def test_inner_right_unit_column():
    space = scalar_space()
    x = space.element([np.array([[1.0]])])
    assert (inner_right(x, x) - space.right_algebra_unit()).norm() == 0.0


def test_inner_right_zero():
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    y = space.random_element(np.random.default_rng(0))
    assert inner_right(space.zero(), y).norm() == 0.0
    assert inner_left(space.zero(), y).norm() == 0.0


def test_inner_right_adjoint_symmetry():
    rng = np.random.default_rng(1)
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    for _ in range(200):
        x = space.random_element(rng)
        y = space.random_element(rng)
        lhs = inner_right(x, y).adjoint()
        rhs = inner_right(y, x)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())


def test_inner_left_unit():
    space = scalar_space()
    x = space.element([np.array([[1.0]])])
    assert (inner_left(x, x) - space.left_algebra.unit()).norm() == 0.0


def test_bimodule_compatibility():
    # <x, y>_L . z == x . <y, z>_R on random triples.
    rng = np.random.default_rng(2)
    space = ModuleSpace(Algebra((2, 1)), 2, 3)
    for _ in range(200):
        x, y, z = (space.random_element(rng) for _ in range(3))
        lhs = inner_left(x, y) * z
        rhs = x * inner_right(y, z)
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(3)
    space = ModuleSpace(Algebra((1, 3)), 2, 2)
    for _ in range(100):
        x = space.random_element(rng)
        g = inner_right(x, x)
        smallest = min(np.linalg.eigvalsh((b + b.conj().T) / 2)[0] for b in g.blocks)
        assert smallest >= -1e-10 * x.norm() ** 2


# -- stacking ------------------------------------------------------------------


def test_stack_single_entry_is_identity():
    space = ModuleSpace(Algebra((2,)), 2, 2)
    x = space.random_element(np.random.default_rng(4))
    s = stack(ModuleTuple((x,)))
    assert s.space == space
    assert all(np.array_equal(a, b) for a, b in zip(s.blocks, x.blocks))


def test_stack_with_zero_preserves_gram():
    space = ModuleSpace(Algebra((1, 2)), 1, 2)
    x = space.random_element(np.random.default_rng(5))
    t = ModuleTuple((x, space.zero()))
    g_tuple = gram(t)
    g_single = inner_right(x, x)
    assert (g_tuple - g_single).norm() == 0.0


def test_stack_gram_identity():
    rng = np.random.default_rng(6)
    space = ModuleSpace(Algebra((2, 1)), 1, 2)
    for _ in range(200):
        t = random_tuple(space, rng, 3)
        stacked = stack(t)
        lhs = inner_right(stacked, stacked)
        rhs = gram(t)
        # Same entries, only a different summation order.
        diff = max(
            np.max(np.abs(a - b)) for a, b in zip(lhs.blocks, rhs.blocks)
        )
        assert diff <= 1e-12 * max(1.0, rhs.norm())


# -- unimodularity ----------------------------------------------------------------


def test_unimodular_standard_column():
    space = ModuleSpace(Algebra((1,)), 2, 1)
    x = space.element([np.array([[1.0], [0.0]])])
    # A Python bool, not numpy's, so that a verdict serializes as JSON.
    assert is_unimodular(ModuleTuple((x,))) is True


def test_single_row_never_unimodular():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    x = space.element([np.array([[1.0, 0.0]])])
    assert not is_unimodular(ModuleTuple((x,)))


def test_stacked_rows_unimodular():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    x1 = space.element([np.array([[1.0, 0.0]])])
    x2 = space.element([np.array([[0.0, 1.0]])])
    assert is_unimodular(ModuleTuple((x1, x2)))


def test_rank_obstruction_kills_all_tuples():
    # With n*k < m the stacked matrix cannot have full column rank.
    rng = np.random.default_rng(7)
    for base in [(1,), (2,)]:
        for n, m, k in [(1, 2, 1), (1, 3, 2), (2, 5, 2)]:
            space = ModuleSpace(Algebra(base), n, m)
            assert space.rank_obstruction(k)
            for _ in range(50):
                assert not is_unimodular(random_tuple(space, rng, k))


def test_stacking_compatibility():
    rng = np.random.default_rng(8)
    space = ModuleSpace(Algebra((1, 2)), 1, 2)
    for k in (1, 2, 3):
        for _ in range(30):
            t = random_tuple(space, rng, k)
            singleton = ModuleTuple((stack(t),))
            assert is_unimodular(t) == is_unimodular(singleton)


# -- dual witnesses -----------------------------------------------------------------


def test_dual_witness_of_unit():
    space = scalar_space()
    x = space.element([np.array([[1.0]])])
    w = dual_witness(ModuleTuple((x,)))
    assert (w[0] - x).norm() < 1e-14


def test_dual_witness_scales_by_gram():
    space = scalar_space()
    x = space.element([np.array([[2.0]])])  # <x, x> = 4
    w = dual_witness(ModuleTuple((x,)))
    assert abs(w[0].blocks[0][0, 0] - 0.5) < 1e-14


def test_dual_witness_residuals():
    rng = np.random.default_rng(9)
    shapes = [((1,), 1, 1, 1), ((2,), 2, 1, 1), ((1, 2), 2, 3, 2), ((3,), 1, 2, 3)]
    for base, rows, cols, k in shapes:
        space = ModuleSpace(Algebra(base), rows, cols)
        unit = space.right_algebra_unit()
        for _ in range(125):
            t = random_unimodular(space, rng, k)
            w = dual_witness(t)
            pairing = inner_right(w[0], t[0])
            for j in range(1, k):
                pairing = pairing + inner_right(w[j], t[j])
            assert (pairing - unit).norm() <= 1e-8


def test_pairing_is_the_sum_of_inner_products():
    rng = np.random.default_rng(4)
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    x, y = random_tuple(space, rng, 3), random_tuple(space, rng, 3)
    expected = inner_right(y[0], x[0]) + inner_right(y[1], x[1]) + inner_right(y[2], x[2])
    for got, want in zip(pairing(y, x).blocks, expected.blocks):
        assert np.array_equal(got, want)
    for got, want in zip(pairing(x, x).blocks, gram(x).blocks):
        assert np.array_equal(got, want)
    with pytest.raises(ShapeMismatchError):
        pairing(ModuleTuple(y.entries[:2]), x)
    with pytest.raises(ShapeMismatchError):
        pairing(random_tuple(ModuleSpace(Algebra((1, 2)), 3, 3), rng, 3), x)


def test_dual_witness_rejects_non_unimodular():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    with pytest.raises(DomainError):
        dual_witness(ModuleTuple((space.random_element(np.random.default_rng(0)),)))


def test_dual_witness_refuses_obstructed_tuples_at_any_tol():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    t = ModuleTuple((space.random_element(np.random.default_rng(5)),))
    for tol in (1e-9, 1e-25):
        with pytest.raises(DomainError, match="counting bound"):
            dual_witness(t, tol)


def test_witness_inequality_both_directions():
    # Invertible Gram gives a witness; any pairing witness forces an
    # invertible Gram with the quantitative lower bound 1/||y||^2.
    rng = np.random.default_rng(10)
    space = ModuleSpace(Algebra((2,)), 2, 2)
    unit = space.right_algebra_unit()
    for _ in range(100):
        t = random_unimodular(space, rng, 1)
        x = t[0]
        y = dual_witness(t)[0]
        b = gram(t)
        # Randomize the witness in the pairing kernel.
        w = space.random_element(rng)
        s = inner_right(w, x)
        b_inv = b.inverse()
        y2 = y + (w - x * (b_inv.adjoint() * s.adjoint()))
        assert (inner_right(y2, x) - unit).norm() <= 1e-8
        assert b.is_invertible()
        min_eig = min(np.linalg.eigvalsh((g + g.conj().T) / 2)[0] for g in b.blocks)
        assert min_eig >= 1.0 / y2.norm() ** 2 - 1e-8


def test_normalize_tuple():
    rng = np.random.default_rng(11)
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    t = random_unimodular(space, rng, 2)
    n = normalize_tuple(t)
    assert (gram(n) - space.right_algebra_unit()).norm() < 1e-10


def test_normalize_tuple_takes_each_norm_once(monkeypatch):
    # Gram sum over M_{1x2}(M_1 + M_2), two blocks: one SVD per block for its
    # norm.  Its anti-hermitian residual is exactly zero, so the self-adjointness
    # gate takes no SVD; the inverse square root itself is an eigendecomposition.
    space = ModuleSpace(Algebra((1, 2)), 1, 2)
    t = random_unimodular(space, np.random.default_rng(12), 2)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    normalize_tuple(t)
    assert len(calls) == 2


def test_one_sided_pairing_invertibility_characterizes_unimodularity():
    # An invertible <y, x> for any single y certifies unimodularity of x, and
    # so does an invertible <x, y> (take adjoints).  The converse direction
    # is the dual witness, whose pairing is the unit.
    rng = np.random.default_rng(20)
    space = ModuleSpace(Algebra((2,)), 2, 2)
    hits = 0
    for _ in range(100):
        x = space.random_element(rng)
        y = space.random_element(rng)
        if inner_right(y, x).is_invertible():
            assert is_unimodular(ModuleTuple((x,)))
            hits += 1
        if inner_right(x, y).is_invertible():
            assert is_unimodular(ModuleTuple((y,)))
    assert hits > 50  # generic pairs do land in the invertible group
    # A single row in the 1 x 2 module is never unimodular, so no pairing
    # with it can be invertible.
    thin = ModuleSpace(Algebra((1,)), 1, 2)
    x = thin.random_element(rng)
    assert not is_unimodular(ModuleTuple((x,)))
    for _ in range(50):
        y = thin.random_element(rng)
        assert not inner_right(y, x).is_invertible()


# -- fullness and the generator oracle ------------------------------------------------


def test_is_full_matrix_modules():
    assert is_full(scalar_space())
    assert is_full(ModuleSpace(Algebra((2,)), 2, 3))


def test_gen_oracle_trivial():
    space = scalar_space()
    one = space.element([np.array([[1.0]])])
    assert gen_oracle(ModuleTuple((one,)))
    assert not gen_oracle(ModuleTuple((space.zero(),)))


def test_gen_oracle_agrees_with_unimodularity():
    rng = np.random.default_rng(12)
    count = 0
    for base in [(1,), (2,), (1, 2)]:
        for rows, cols in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]:
            space = ModuleSpace(Algebra(base), rows, cols)
            for k in (1, 2, 3):
                for _ in range(12):
                    t = random_tuple(space, rng, k)
                    assert gen_oracle(t) == is_unimodular(t)
                    count += 1
    assert count >= 500


#: Every kernel and right-algebra call that reaches LAPACK, on an element ``b``
#: of the right algebra of ``space``.
LAPACK_CALLS = {
    "margin": lambda space, b: b.margin(),
    "norm": lambda space, b: b.norm(),
    "inverse": lambda space, b: b.inverse(),
    "inv_sqrt": lambda space, b: b.inv_sqrt(),
    "positive_part": lambda space, b: b.positive_part(),
    "right_inverse": lambda space, b: space.right_inverse(b),
    "right_inv_sqrt": lambda space, b: space.right_inv_sqrt(b),
    "_right_calculus": lambda space, b: space._right_calculus(b.blocks)(np.abs),
    "_gram_spectrum": lambda space, b: space._gram_spectrum(b.blocks),
}


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("corner", [False, True], ids=["matrix", "corner"])
@pytest.mark.parametrize("call", list(LAPACK_CALLS))
def test_lapack_calls_refuse_one_non_finite_entry(bad, corner, call):
    # Each call refuses b before LAPACK sees it; an inverse without the margin test
    # once returned [[0, 0], [0, 1]] for diag(inf, 1), and NaN blocks for a NaN.
    if corner:
        alg = Algebra((1,))
        ambient = alg.matrix_algebra(2)
        space = corner_space(alg, 2, ambient.unit(), ambient.element([np.diag([1.0, 0.0])]))
    else:
        space = ModuleSpace(Algebra((1, 2)), 1, 1)
    blocks = [np.eye(k, dtype=complex) for k in space.right_algebra.block_sizes]
    blocks[-1][0, 0] = bad
    b = space.right_algebra.element(blocks)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="not finite"):
        LAPACK_CALLS[call](space, b)


def test_a_finite_gram_sum_whose_eigenvalues_overflow_is_refused():
    # x = [[a, a], [0, 0]], a = 1e154, has the finite Gram sum a^2 [[1, 1], [1, 1]], whose
    # eigenvalue 2 a^2 overflows: the Gram spectrum refuses it, for one sum and for a stack
    # of them, rather than read the margin 0 / inf = 0.
    space = ModuleSpace(Algebra((1,)), 2, 2)
    t = ModuleTuple((space.element([np.array([[1e154, 1e154], [0.0, 0.0]])]),))
    assert all(np.isfinite(b).all() for b in gram(t).blocks)
    for call in (lambda: unimodularity_margin(t), lambda: is_unimodular(t), lambda: dual_witness(t),
                 lambda: space._gram_spectrum([np.full((3, 2, 2), 1e308 + 0j)])):
        with pytest.raises(DomainError, match="not finite"):
            call()


def test_the_unchecked_inverse_of_an_exactly_singular_element_is_a_domain_error():
    # The boundary itself has no margin gate, so LAPACK refuses; its LinAlgError
    # must arrive as the boundary's DomainError, not escape as a ValueError.
    with pytest.raises(DomainError, match="^LAPACK inv failed"):
        _lapack("inv", [np.diag([1.0, 0.0]).astype(complex)])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("base, rows, cols", [((1,), 1, 1), ((2,), 2, 3), ((1, 2), 1, 2)])
def test_generation_route_refuses_non_finite_entries(bad, base, rows, cols):
    space = ModuleSpace(Algebra(base), rows, cols)
    rng = np.random.default_rng(14)
    blocks = [b.copy() for b in space.random_element(rng).blocks]
    blocks[-1][0, -1] = bad
    t = ModuleTuple((space.random_element(rng), space.element(blocks)))
    for route in (gen_oracle, generation_margin):
        with pytest.raises(DomainError, match="not finite"):
            route(t)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="not finite"):
        is_unimodular(t)


def test_routes_may_differ_on_non_full_corners():
    # Compressed shapes ((0, 1), (2, 2)): the dead first block has nothing to
    # generate, but the Gram sum is singular there.
    alg = Algebra((1, 2))
    rng = np.random.default_rng(15)
    p = alg.element([np.zeros((1, 1)), np.eye(2)])
    q = alg.element([np.eye(1), random_projection(rng, 2, 2)])
    corner = corner_space(alg, 1, p, q)
    assert corner.compressed_shapes == ((0, 1), (2, 2))
    assert not is_full(corner)
    t = random_tuple(corner, rng, 3)
    assert gen_oracle(t)
    assert not is_unimodular(t)


def test_margins_drive_the_verdicts():
    rng = np.random.default_rng(13)
    space = ModuleSpace(Algebra((2,)), 1, 1)
    t = random_unimodular(space, rng, 1)
    assert unimodularity_margin(t) > 1e-9
    zero = ModuleTuple((space.zero(),))
    assert unimodularity_margin(zero) == 0.0


# -- tuples ------------------------------------------------------------------------


def test_tuple_validation():
    with pytest.raises(ValueError):
        ModuleTuple(())
    a = scalar_space().zero()
    b = ModuleSpace(Algebra((1,)), 1, 2).zero()
    with pytest.raises(ShapeMismatchError):
        ModuleTuple((a, b))


@pytest.mark.parametrize("rows, cols", [(0, 1), (1, 0)])
def test_module_space_needs_a_positive_shape(rows, cols):
    with pytest.raises(ValueError, match="rows >= 1 and cols >= 1"):
        ModuleSpace(Algebra((1,)), rows, cols)


def test_an_empty_json_list_is_no_tuple():
    with pytest.raises(ValueError) as refused:
        tuple_from_json_list([])
    assert str(refused.value) == "$ must be a nonempty JSON list"


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_tuples_of_different_lengths_do_not_subtract(kind):
    rng = np.random.default_rng(29)
    t = random_tuple(space_of_kind(kind, rng), rng, 2)
    with pytest.raises(ShapeMismatchError, match="tuples have different lengths"):
        t - ModuleTuple(t.entries[:1])


def test_mixed_space_inner_product_fails():
    a = scalar_space().zero()
    b = ModuleSpace(Algebra((1,)), 1, 2).zero()
    with pytest.raises(ShapeMismatchError):
        inner_right(a, b)


def test_tuple_norm_matches_stack_norm():
    # The norm of a tuple is its norm in M^n; no Gram sum squares it, so it
    # neither underflows near 1e-170 nor overflows near 1e155.
    rng = np.random.default_rng(14)
    alg = Algebra((1,))
    ambient = alg.matrix_algebra(2)
    spaces = [
        ModuleSpace(Algebra((1, 2)), 2, 2),
        ModuleSpace(alg, 1, 2),
        corner_space(alg, 2, ambient.element([np.diag([1.0, 0.0])]), ambient.unit()),
    ]
    for space in spaces:
        for k in (1, 3):
            t = random_tuple(space, rng, k)
            for scale in (1e-170, 1e-160, 1.0, 1e155, 1e160):
                scaled = ModuleTuple(tuple(scale * x for x in t))
                expected = stack(scaled).norm()
                assert expected > 0.0
                assert abs(scaled.norm() - expected) <= 1e-15 * expected


# -- corners -----------------------------------------------------------------------


def diag_projection(big, pattern):
    return big.element([np.diag(np.array(p, dtype=complex)) for p in pattern])


def test_corner_recovers_algebra_as_module():
    # p = q = 1 in the 1 x 1 ambient: unimodularity is plain invertibility.
    alg = Algebra((1,))
    unit = alg.matrix_algebra(1).unit()
    corner = corner_space(alg, 1, unit, unit)
    two = corner.element([np.array([[2.0]])])
    zero = corner.element([np.array([[0.0]])])
    assert is_unimodular(ModuleTuple((two,)))
    assert not is_unimodular(ModuleTuple((zero,)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2), min_size=1, max_size=2).map(tuple), st.integers(1, 3), st.data(),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_corner_matches_matrix_module_verdicts(base, size, data, k, seed):
    # p M_size(A) q, A = M_d1 (+ M_d2), with rank p = r d_i and rank q = s d_i in block i is
    # M_{r x s}(A) on the cores U_i* x V_i, block by block: same verdicts, same stable rank,
    # the same Gram sums on the ranges of q and the same margins.
    r = data.draw(st.integers(1, size), label="r")
    s = data.draw(st.integers(1, size), label="s")
    rng = np.random.default_rng(seed)
    corner = corner_with_ranks(base, size, tuple(r * d for d in base), tuple(s * d for d in base), rng)
    matrix = ModuleSpace(Algebra(base), r, s)
    assert corner.compressed_shapes == matrix.block_shapes
    u, v = corner._row_bases, corner._col_bases
    tc = random_tuple(corner, rng, k)
    tm = ModuleTuple(tuple(matrix.element([ub.conj().T @ xb @ vb for ub, xb, vb in zip(u, x.blocks, v)])
                           for x in tc))
    for vb, gc, gm in zip(v, gram(tc).blocks, gram(tm).blocks):
        np.testing.assert_allclose(vb.conj().T @ gc @ vb, gm, rtol=0, atol=1e-12 * np.abs(gm).max())
    assert corner.predicted_stable_rank() == matrix.predicted_stable_rank()
    assert is_unimodular(tc) == is_unimodular(tm)
    assert gen_oracle(tc) == gen_oracle(tm)
    margins = (unimodularity_margin, generation_margin)
    if not any(DEFAULT_TOL / 10 <= margin(tc) <= DEFAULT_TOL * 10 for margin in margins):
        assert gen_oracle(tc) == is_unimodular(tc)
    # Both margins are relative to max(1, norm), so rounding moves them by
    # about 1e-16 in absolute terms, also where the counting bound puts them at 0.
    for margin in margins:
        assert margin(tc) == pytest.approx(margin(tm), rel=1e-12, abs=1e-12)


def test_projection_is_unimodular_in_its_own_corner():
    alg = Algebra((1, 2))
    big = alg.matrix_algebra(2)
    p = diag_projection(big, [[1, 0], [1, 1, 0, 0]])
    corner = corner_space(alg, 2, p, p)
    x = corner.element(p.blocks)
    assert is_unimodular(ModuleTuple((x,)))
    assert (gram(ModuleTuple((x,))) - corner.right_algebra_unit()).norm() < 1e-12


def test_corner_element_rejects_extra_blocks():
    alg = Algebra((1,))
    unit = alg.matrix_algebra(2).unit()
    corner = corner_space(alg, 2, unit, unit)
    with pytest.raises(ShapeMismatchError, match="expected 1 blocks, got 2"):
        corner.element([np.eye(2), np.eye(3)])


def test_corner_rejects_non_projections_and_zero_q():
    alg = Algebra((1,))
    big = alg.matrix_algebra(3)
    good = diag_projection(big, [[1, 1, 0]])
    bad = big.element([np.diag([0.5, 0.0, 0.0])])
    with pytest.raises(DomainError):
        corner_space(alg, 3, bad, good)
    with pytest.raises(DomainError):
        corner_space(alg, 3, good, bad)
    with pytest.raises(DegenerateModuleError):
        corner_space(alg, 3, good, big.zero())


def test_corner_rejects_a_zero_size_and_projections_outside_its_ambient_algebra():
    alg = Algebra((1,))
    unit = alg.matrix_algebra(2).unit()
    with pytest.raises(ValueError, match="ambient matrix size must be >= 1"):
        corner_space(alg, 0, unit, unit)
    foreign = alg.matrix_algebra(3).unit()
    for p, q, name in ((foreign, unit, "p"), (unit, foreign, "q")):
        with pytest.raises(ShapeMismatchError, match=rf"^{name} must live in the ambient algebra M_2\(A\)$"):
            corner_space(alg, 2, p, q)


def test_corner_fullness_detects_dead_blocks():
    alg = Algebra((1,))
    big = alg.matrix_algebra(2)
    q = diag_projection(big, [[1, 0]])
    live = diag_projection(big, [[1, 1]])
    assert is_full(corner_space(alg, 2, live, q))
    # Zero row projection against a live column projection: nothing pairs.
    assert not is_full(corner_space(alg, 2, big.zero(), q))


def random_projection(rng, dim, rank):
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis = np.linalg.qr(gauss)[0][:, :rank]
    proj = basis @ basis.conj().T
    return (proj + proj.conj().T) / 2.0


def corner_with_ranks(base, size, p_ranks, q_ranks, rng):
    """The corner ``p M_size(A) q`` with randomly oriented projections of the given ranks."""
    big = Algebra(base).matrix_algebra(size)
    p, q = (
        big.element([random_projection(rng, d, r) for d, r in zip(big.block_sizes, ranks)])
        for ranks in (p_ranks, q_ranks)
    )
    return corner_space(Algebra(base), size, p, q)


def space_of_kind(kind, rng):
    """``M_{2x3}(C + M_2)``, or a corner of ``M_2(C + M_2)`` with compressed blocks 1x2 and 2x4."""
    if kind == "matrix":
        return ModuleSpace(Algebra((1, 2)), 2, 3)
    return corner_with_ranks((1, 2), 2, (1, 2), (2, 4), rng)


# (base, size, p ranks, q ranks, (rows, cols) of the matching matrix module)
CORNER_CASES = [
    ((1,), 4, (2,), (3,), (2, 3)),
    ((1, 2), 2, (1, 2), (2, 4), (1, 2)),
    ((1, 2), 2, (1, 1), (0, 2), None),  # q vanishes on the first block
]


@pytest.mark.parametrize("base, size, p_ranks, q_ranks, shape", CORNER_CASES)
def test_corner_right_algebra_ops_match_kernel(base, size, p_ranks, q_ranks, shape):
    # Compressed to the range of q, every corner operation is the kernel's
    # operation on the live blocks; dead blocks stay zero.
    rng = np.random.default_rng(17)
    alg = Algebra(base)
    big = alg.matrix_algebra(size)
    p = big.element([random_projection(rng, d, r) for d, r in zip(big.block_sizes, p_ranks)])
    q = big.element([random_projection(rng, d, r) for d, r in zip(big.block_sizes, q_ranks)])
    corner = corner_space(alg, size, p, q)
    assert corner.compressed_shapes == tuple(zip(p_ranks, q_ranks))
    u_bases, v_bases = corner._row_bases, corner._col_bases
    live = [i for i, s in enumerate(q_ranks) if s]
    core = Algebra(tuple(q_ranks[i] for i in live))

    def compress(b):
        return core.element([v_bases[i].conj().T @ b.blocks[i] @ v_bases[i] for i in live])

    def clipped(w):  # the kernel's positive part
        return np.clip(w, 0.0, None)

    def assert_matches(result, expected):
        for i, qb in enumerate(q.blocks):  # lands in the corner algebra q A q
            np.testing.assert_allclose(qb @ result.blocks[i] @ qb, result.blocks[i], atol=1e-10)
        for got, want in zip(compress(result).blocks, expected.blocks):
            np.testing.assert_allclose(got, want, atol=1e-10 * max(1.0, expected.norm()))

    unit = corner.right_algebra_unit()
    noise = ModuleTuple(tuple(corner.random_element(rng) for _ in range(2)))
    general = q * big.random_element(rng) * q
    positive = unit + gram(noise)
    indefinite = gram(noise) - unit * 1.5
    singular = gram(ModuleTuple((corner.random_element(rng),)))

    assert_matches(corner.right_inverse(general), compress(general).inverse())
    assert_matches(corner.right_inv_sqrt(positive), compress(positive).inv_sqrt())
    assert_matches(big.element(corner._right_calculus(indefinite.blocks)(clipped)),
                   compress(indefinite).positive_part())
    for b in (general, positive, indefinite, singular):
        svals = [np.linalg.svd(c, compute_uv=False) for c in compress(b).blocks]
        expected = min(s[-1] for s in svals) / max(1.0, max(s[0] for s in svals))
        assert corner.right_margin(b) == pytest.approx(expected, rel=1e-9, abs=1e-14)
        for tol in (1e-9, 1e-3):
            assert (corner.right_margin(b) > tol) == compress(b).is_invertible(tol)
    assert not corner.right_margin(singular) > DEFAULT_TOL

    standard = corner.standard_unimodular_tuple()
    assert len(standard) == corner.predicted_stable_rank()
    assert_matches(gram(ModuleTuple(tuple(standard))), core.unit())

    # Module actions by arbitrary ambient operands stay in the corner and act
    # through q b q and p a p; stacking keeps the Gram norm and the verdict.
    def assert_close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    for k in (1, 2, 3):
        t = random_tuple(corner, rng, k)
        a, b = big.random_element(rng), big.random_element(rng)
        for x in t:
            for result, expected in (
                (x * b, [xb @ (qb @ bb @ qb) for xb, bb, qb in zip(x.blocks, b.blocks, q.blocks)]),
                (a * x, [(pb @ ab @ pb) @ xb for ab, xb, pb in zip(a.blocks, x.blocks, p.blocks)]),
            ):
                assert result.space is corner
                for rb, eb, pb, qb in zip(result.blocks, expected, p.blocks, q.blocks):
                    assert_close(pb @ rb @ qb, rb)
                    assert_close(rb, eb)
        stacked = ModuleTuple((stack(t),))
        assert gram(stacked).norm() == pytest.approx(gram(t).norm(), rel=1e-12)
        assert is_unimodular(stacked) == is_unimodular(t)
    if shape is None:
        return
    matrix = ModuleSpace(alg, *shape)
    assert matrix.right_algebra == core
    for b in (general, positive, indefinite, singular):
        assert corner.right_margin(b) == pytest.approx(
            matrix.right_margin(compress(b)), rel=1e-9, abs=1e-14
        )
    assert_matches(corner.right_inverse(general), matrix.right_inverse(compress(general)))
    assert_matches(corner.right_inv_sqrt(positive), matrix.right_inv_sqrt(compress(positive)))
    assert_matches(
        big.element(corner._right_calculus(indefinite.blocks)(clipped)),
        core.element(matrix._right_calculus(compress(indefinite).blocks)(clipped)),
    )
    for xc, xm in zip(standard, matrix.standard_unimodular_tuple(), strict=True):
        for i, (ub, vb) in enumerate(zip(u_bases, v_bases)):
            np.testing.assert_allclose(ub.conj().T @ xc.blocks[i] @ vb, xm.blocks[i], atol=1e-12)


def test_corner_witness_and_stack():
    alg = Algebra((2,))
    big = alg.matrix_algebra(2)
    p = diag_projection(big, [[1, 1, 1, 0]])
    q = diag_projection(big, [[1, 1, 0, 0]])
    corner = corner_space(alg, 2, p, q)
    rng = np.random.default_rng(16)
    t = ModuleTuple(tuple(corner.random_element(rng) for _ in range(2)))
    assert is_unimodular(t)
    w = dual_witness(t)
    pairing = inner_right(w[0], t[0]) + inner_right(w[1], t[1])
    assert (pairing - corner.right_algebra_unit()).norm() <= 1e-8
    stacked = stack(t)
    assert is_unimodular(ModuleTuple((stacked,)))
    assert abs(gram(ModuleTuple((stacked,))).norm() - gram(t).norm()) < 1e-12


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_bad_element_input_is_a_shape_mismatch_on_both_space_kinds(kind):
    # A corner once multiplied a wrongly shaped block by p and q and raised
    # numpy's matmul ValueError; both kinds now share one element path.
    rng = np.random.default_rng(23)
    if kind == "matrix":
        space = ModuleSpace(Algebra((1, 2)), 2, 3)
    else:
        space = corner_with_ranks((1, 2), 2, (1, 2), (2, 4), rng)
    good = [np.ones(shape) for shape in space.block_shapes]
    with pytest.raises(ShapeMismatchError, match=r"block has shape \(3, 5\)"):
        space.element([np.ones((3, 5))] + good[1:])
    with pytest.raises(ShapeMismatchError, match="expected 2 blocks, got 1"):
        space.element(good[:1])
    x = space.element(good)
    foreign = Algebra((3,)).unit()
    for side, act in (("right", lambda: x * foreign), ("left", lambda: foreign * x)):
        message = f"^{side} operand is not in the {side} algebra of the space$"
        with pytest.raises(ShapeMismatchError, match=message):
            act()


def test_is_unimodular_applies_the_counting_bound_first():
    # No 1-tuple of M_{1x3}(C) is unimodular, though rounding noise in the
    # rank-1 Gram sum passes a tol far below it.
    space = ModuleSpace(Algebra((1,)), 1, 3)
    for seed in (3, 4, 5, 6):
        t = ModuleTuple((space.random_element(np.random.default_rng(seed)),))
        assert unimodularity_margin(t) > 1e-25
        assert not is_unimodular(t, 1e-25)
    with pytest.raises(ValueError):
        is_unimodular(t, -1.0)


def test_module_elements_keep_the_block_container_rules():
    rng = np.random.default_rng(21)
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    x = space.random_element(rng)
    y = space.random_element(rng)
    with pytest.raises(ShapeMismatchError):
        space.element([np.zeros((2, 3)), np.zeros((4, 5))])
    with pytest.raises(ShapeMismatchError):
        space.element(x.blocks[:1])
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0
    other = ModuleSpace(Algebra((1, 2)), 3, 3).random_element(rng)
    with pytest.raises(ShapeMismatchError):
        x + other
    with pytest.raises(TypeError):
        x + space.right_algebra_unit()
    # Oracle: the same arithmetic on the raw numpy blocks.
    for result, expected in (
        (2 * x, [2 * b for b in x.blocks]),
        (x * 2, [2 * b for b in x.blocks]),
        (-x, [-b for b in x.blocks]),
        (x - y, [a - b for a, b in zip(x.blocks, y.blocks)]),
    ):
        assert result.space == space
        assert all(np.array_equal(a, b) for a, b in zip(result.blocks, expected))
    for element in (x, space.right_algebra_unit()):
        assert not hasattr(element, "__dict__")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_module_element_repr_never_raises_on_non_finite_entries(bad):
    space = scalar_space()
    assert repr(space.element([[[bad]]])).endswith(", norm=non-finite>")
    assert repr(space.element([[[3.0]]])).endswith(", norm=3>")


def _per_block_gaussian(rng, shape):
    # The draw of every random element before draws were batched: one call
    # for the real parts and one for the imaginary parts of each block.
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_the_constructor_projects_like_space_element():
    # One way into a space: ModuleElement(space, b) is space.element(b) bit for
    # bit, p b q on a corner, even for blocks that lie outside the corner.
    rng = np.random.default_rng(19)
    spaces = [ModuleSpace(Algebra((1, 2)), 2, 3)] + [
        corner_with_ranks(base, size, p_ranks, q_ranks, rng)
        for base, size, p_ranks, q_ranks, _ in CORNER_CASES
    ]
    for space in spaces:
        for _ in range(3):
            drawn = [_per_block_gaussian(rng, shape) for shape in space.block_shapes]
            built = ModuleElement(space, drawn)
            assert all(np.array_equal(a, b) for a, b in zip(built.blocks, space.element(drawn).blocks))
            if isinstance(space, ModuleSpace):
                expected = drawn
            else:
                expected = [pb @ g @ qb for pb, g, qb in zip(space.p.blocks, drawn, space.q.blocks)]
                assert not all(np.array_equal(a, b) for a, b in zip(drawn, expected))
            assert all(np.array_equal(a, b) for a, b in zip(built.blocks, expected))
    # On diag(1, 0) M_2(C), e_22 is outside the corner and projects to 0, so
    # (e_11, e_22) is not unimodular by either route.
    big = Algebra((1,)).matrix_algebra(2)
    corner = corner_space(Algebra((1,)), 2, big.element([np.diag([1.0, 0.0])]), big.unit())
    t = ModuleTuple((corner.element([np.diag([1.0, 0.0])]), ModuleElement(corner, [np.diag([0.0, 1.0])])))
    assert not t[1].blocks[0].any()
    assert not is_unimodular(t)
    assert not gen_oracle(t)


def test_random_elements_keep_the_per_block_draw_order():
    # Seeded reports depend on this stream; it must not move.
    proj_rng = np.random.default_rng(18)
    spaces = [ModuleSpace(Algebra((1, 2)), 2, 3)] + [
        corner_with_ranks(base, size, p_ranks, q_ranks, proj_rng)
        for base, size, p_ranks, q_ranks, _ in CORNER_CASES
    ]
    for space in spaces:
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            x = space.random_element(rng)
            drawn = [_per_block_gaussian(ref, shape) for shape in space.block_shapes]
            if isinstance(space, ModuleSpace):
                expected = drawn
            else:
                expected = [
                    pb @ g @ qb for pb, g, qb in zip(space.p.blocks, drawn, space.q.blocks)
                ]
            assert all(np.array_equal(a, b) for a, b in zip(x.blocks, expected))
    alg = Algebra((1, 2, 3))
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    a = alg.random_element(rng)
    expected = [_per_block_gaussian(ref, (k, k)) for k in alg.block_sizes]
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, expected))
