"""Inner products, unimodularity, witnesses, the generator oracle and corners."""

import numpy as np
import pytest

from cstar_rank import (
    Algebra,
    DegenerateModuleError,
    DomainError,
    ModuleSpace,
    ModuleTuple,
    ShapeMismatchError,
    corner_space,
    dual_witness,
    gen_oracle,
    gram,
    inner_left,
    inner_right,
    is_full,
    is_unimodular,
    normalize_tuple,
    pairing,
    stack,
    unimodularity_margin,
)


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
    assert is_unimodular(ModuleTuple((x,)))


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


def test_mixed_space_inner_product_fails():
    a = scalar_space().zero()
    b = ModuleSpace(Algebra((1,)), 1, 2).zero()
    with pytest.raises(ShapeMismatchError):
        inner_right(a, b)


def test_tuple_norm_matches_stack_norm():
    rng = np.random.default_rng(14)
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    t = random_tuple(space, rng, 3)
    assert abs(t.norm() - stack(t).norm()) < 1e-10 * max(1.0, t.norm())


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


def test_corner_matches_matrix_module_verdicts():
    alg = Algebra((1,))
    big = alg.matrix_algebra(4)
    p = diag_projection(big, [[1, 1, 0, 0]])
    q = diag_projection(big, [[1, 1, 1, 0]])
    corner = corner_space(alg, 4, p, q)
    matrix = ModuleSpace(alg, 2, 3)
    rng = np.random.default_rng(15)
    u_basis = corner._row_bases[0]
    v_basis = corner._col_bases[0]
    for _ in range(100):
        corner_entries = []
        matrix_entries = []
        for _ in range(2):
            raw = np.sqrt(0.5) * (
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )
            xc = corner.element([raw])
            compressed = u_basis.conj().T @ xc.blocks[0] @ v_basis
            corner_entries.append(xc)
            matrix_entries.append(matrix.element([compressed]))
        tc = ModuleTuple(tuple(corner_entries))
        tm = ModuleTuple(tuple(matrix_entries))
        assert is_unimodular(tc) == is_unimodular(tm)
        assert gen_oracle(tc) == gen_oracle(tm) == is_unimodular(tc)


def test_projection_is_unimodular_in_its_own_corner():
    alg = Algebra((1, 2))
    big = alg.matrix_algebra(2)
    p = diag_projection(big, [[1, 0], [1, 1, 0, 0]])
    corner = corner_space(alg, 2, p, p)
    x = corner.element(p.blocks)
    assert is_unimodular(ModuleTuple((x,)))
    assert (gram(ModuleTuple((x,))) - corner.right_algebra_unit()).norm() < 1e-12


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
    assert_matches(corner.right_inverse(general, check=False), compress(general).inverse())
    assert_matches(corner.right_inv_sqrt(positive), compress(positive).inv_sqrt())
    assert_matches(corner.right_positive_part(indefinite), compress(indefinite).positive_part())
    for b in (general, positive, indefinite, singular):
        svals = [np.linalg.svd(c, compute_uv=False) for c in compress(b).blocks]
        expected = min(s[-1] for s in svals) / max(1.0, max(s[0] for s in svals))
        assert corner.right_margin(b) == pytest.approx(expected, rel=1e-9, abs=1e-14)
        for tol in (1e-9, 1e-3):
            assert corner.right_is_invertible(b, tol) == compress(b).is_invertible(tol)
    assert not corner.right_is_invertible(singular)

    standard = corner.standard_unimodular_tuple()
    assert len(standard) == corner.predicted_stable_rank()
    assert_matches(gram(ModuleTuple(tuple(standard))), core.unit())
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
        corner.right_positive_part(indefinite), matrix.right_positive_part(compress(indefinite))
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
