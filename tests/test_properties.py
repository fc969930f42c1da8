"""Property tests over random shapes: fullness, the counting bounds, the
generation oracle against its span-map reference, agreement of the two
unimodularity routes, the dual witness, the C*-identity, the
Herman-Vaserstein perturbation bound, its closed form where the bump is
zero, its refusal below the stable rank,
Warfield's collapse of several trailing entries in one step, both reductions
on inputs scaled up to 1e6, the scale equivariance of the Bass step, the
invariance of both verdicts and the equivariance of both reductions under
unitaries that mix the entries, the invariance of both verdicts under right
invertibles and Bass's elementary matrices, the generation margin and the
dual witness under nonzero scalars (the Gram verdict is an expected failure,
ROADMAP item 3), the batched density trials against their per-trial
reference, a stack of trials paired as each trial's tuple, the rounding
bound on the margins of obstructed density cells,
and ``is_unimodular`` and ``dual_witness`` agreeing one ulp either side of the margin.

Matrix spaces ``M_{rows x cols}(A)`` and corners ``p M_N(A) q`` with randomly
oriented projections of random ranks, dead blocks (``rank q_i = 0`` or
``rank p_i = 0``) included.  The expected per-block shapes ``(r_i, s_i)``
come from the construction parameters, not from the space.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cstar_rank import (
    DEFAULT_TOL,
    Algebra,
    DomainError,
    ModuleNotFullError,
    ModuleSpace,
    ModuleTuple,
    PerturbationParams,
    ReductionFailedError,
    adjointable_norm,
    bass_reduce,
    corner_space,
    density_experiment,
    dual_witness,
    gen_oracle,
    generation_margin,
    gram,
    hv_perturb,
    is_full,
    is_unimodular,
    pairing,
    sr_formula,
    stable_rank,
    unimodularity_margin,
    warfield_forward,
)
from cstar_rank.sampling import _POOL_PASS_TRIALS, derived_seed, draw_size, rng_from_seed, trial_draws
from cstar_rank.hilbert_module import _stacked_dual
from cstar_rank.stable_rank import TELESCOPE_TOL, WITNESS_TOL
from test_hilbert_module import corner_with_ranks, random_projection

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None)

#: Each example runs the whole perturbation pipeline.
HV_EXAMPLES = 30


def span_rank_is_full(shapes, tol=1e-9) -> bool:
    """Reference fullness by brute force: the span of all inner products.

    Per block of shape ``(r, s)`` the products ``e_a* e_b`` of the unit
    matrices of ``M_{r x s}`` are stacked as rows of an ``(r s)^2 x s^2``
    matrix; the module is full when every such matrix has rank ``s^2``.
    """
    for r, s in shapes:
        if s == 0:
            continue
        units = []
        for a in range(r):
            for b in range(s):
                e = np.zeros((r, s), dtype=np.complex128)
                e[a, b] = 1.0
                units.append(e)
        if not units:
            return False
        vectors = np.array([(ea.conj().T @ eb).reshape(-1) for ea in units for eb in units])
        svals = np.linalg.svd(vectors, compute_uv=False)
        rank = int(np.sum(svals > tol * svals[0])) if svals[0] > 0 else 0
        if rank != s * s:
            return False
    return True


def span_map_margin(t) -> float:
    """Reference generation margin from the span map written out in full.

    Per block of shape ``(r, s)`` the map ``(a_1, ..., a_k) -> sum_j a_j x_j``
    is assembled as ``hstack(kron(I_r, core_j^T))``, an ``(r s) x (k r^2)``
    matrix; the block margin is its ``(r s)``-th singular value over its
    largest, and 0 when it has fewer singular values than that.
    """
    space = t.space
    margin = np.inf
    for i, (r, s) in enumerate(space.compressed_shapes):
        dim = r * s
        if dim == 0:
            continue
        columns = np.hstack(
            [np.kron(np.eye(r), space._core(i, x.blocks[i]).T) for x in t.entries]
        )
        svals = np.linalg.svd(columns, compute_uv=False)
        if svals[0] == 0.0:
            return 0.0
        critical = svals[dim - 1] if svals.size >= dim else 0.0
        margin = min(margin, float(critical / svals[0]))
    return margin


def min_eigenvalue_on_unit(space, b) -> float:
    """Smallest eigenvalue of a self-adjoint ``b = q b q`` on the range of the right unit ``q``.

    The complement of ``q`` is lifted above ``norm(b)`` so that it never
    holds the minimum.
    """
    complement = space.right_algebra.unit() - space.right_algebra_unit()
    shifted = b + (b.norm() + 1.0) * complement
    assert shifted.is_self_adjoint()
    return min(float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0]) for c in shifted.blocks)


def random_tuple(space, k, seed, zero_at=None):
    rng = np.random.default_rng(seed)
    entries = [space.random_element(rng) for _ in range(k)]
    if zero_at is not None:
        entries[zero_at % k] = space.zero()
    return ModuleTuple(tuple(entries))


def counting_bound(shapes):
    """``max ceil(s_i / r_i)`` over blocks with ``s_i > 0``; None if some such ``r_i = 0``."""
    live = [(r, s) for r, s in shapes if s > 0]
    if any(r == 0 for r, _ in live):
        return None
    return max(-(-s // r) for r, s in live)


@st.composite
def matrix_spaces(draw):
    base = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes = tuple((rows * k, cols * k) for k in base)
    return ModuleSpace(Algebra(base), rows, cols), shapes


@st.composite
def corner_spaces(draw):
    base = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    size = draw(st.integers(1, 2))
    dims = [size * k for k in base]
    p_ranks = [draw(st.integers(0, d)) for d in dims]
    q_ranks = [draw(st.integers(0, d)) for d in dims]
    if not any(q_ranks):  # q = 0 is a degenerate corner; keep one block alive
        live = draw(st.integers(0, len(dims) - 1))
        q_ranks[live] = draw(st.integers(1, dims[live]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = Algebra(base).matrix_algebra(size)
    p = big.element([random_projection(rng, d, r) for d, r in zip(dims, p_ranks)])
    q = big.element([random_projection(rng, d, r) for d, r in zip(dims, q_ranks)])
    return corner_space(Algebra(base), size, p, q), tuple(zip(p_ranks, q_ranks))


spaces = st.one_of(matrix_spaces(), corner_spaces())
seeds = st.integers(0, 2**32 - 1)
lengths = st.integers(1, 4)


@PROPERTY_SETTINGS
@given(spaces)
def test_closed_form_fullness_matches_span_rank(case):
    space, shapes = case
    assert space.compressed_shapes == shapes
    assert space.dim == sum(r * s for r, s in shapes)
    assert is_full(space) == span_rank_is_full(shapes)


@PROPERTY_SETTINGS
@given(spaces)
def test_stable_rank_helpers_match_the_counting_bound(case):
    space, shapes = case
    bound = counting_bound(shapes)
    assert space.predicted_stable_rank() == bound
    for k in range(1, 8):
        assert space.rank_obstruction(k) == any(k * r < s for r, s in shapes)
    if bound is None:
        with pytest.raises(ModuleNotFullError):
            space.standard_unimodular_tuple()
        return
    # The bound is the shortest length the counting argument allows, and the
    # standard tuple attains it.
    assert not space.rank_obstruction(bound)
    assert bound == 1 or space.rank_obstruction(bound - 1)
    standard = ModuleTuple(tuple(space.standard_unimodular_tuple()))
    assert len(standard) == bound
    assert is_unimodular(standard)
    assert (gram(standard) - space.right_algebra_unit()).norm() < 1e-12


@PROPERTY_SETTINGS
@given(matrix_spaces())
def test_matrix_spaces_follow_the_ceiling_formula(case):
    space, _ = case
    assert is_full(space)
    assert space.predicted_stable_rank() == sr_formula(1, space.rows, space.cols)


ROW_SPACE = (ModuleSpace(Algebra((1,)), 1, 3), ((1, 3),))


@PROPERTY_SETTINGS
@given(spaces, lengths, seeds, st.one_of(st.none(), st.integers(0, 3)))
@example(ROW_SPACE, 2, 0, None)  # k r < s
@example(ROW_SPACE, 3, 0, 1)  # a zero entry
def test_generation_margin_matches_the_span_map(case, k, seed, zero_at):
    space, _ = case
    t = random_tuple(space, k, seed, zero_at)
    assert generation_margin(t) == pytest.approx(span_map_margin(t), rel=0, abs=1e-12)


@PROPERTY_SETTINGS
@given(spaces, lengths, seeds)
def test_routes_agree_on_full_spaces_away_from_the_tolerance(case, k, seed):
    space, _ = case
    assume(is_full(space))
    t = random_tuple(space, k, seed)
    low, high = DEFAULT_TOL / 10, DEFAULT_TOL * 10
    assume(not any(low <= m <= high for m in (unimodularity_margin(t), generation_margin(t))))
    assert is_unimodular(t) == gen_oracle(t)


@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 2), seeds)
def test_dual_witness_pairs_to_the_unit_and_bounds_the_gram_sum(case, extra, seed):
    space, _ = case
    assume(is_full(space))
    t = random_tuple(space, space.predicted_stable_rank() + extra, seed)
    assume(is_unimodular(t))
    y = dual_witness(t)
    assert (pairing(y, t) - space.right_algebra_unit()).norm() <= WITNESS_TOL
    # 1 = <v, sum y_k* x_k v> <= |y| |x v| for unit vectors v in the range of q.
    assert min_eigenvalue_on_unit(space, gram(t)) >= 1.0 / y.norm() ** 2 - 1e-8


@PROPERTY_SETTINGS
@given(spaces, lengths, seeds)
@example(ROW_SPACE, 2, 0)  # k r < s
def test_the_two_decision_paths_agree_exactly_at_their_edge(case, k, seed):
    # dual_witness inverts only once the margin passes tol, and is_unimodular compares
    # that same margin: one ulp below it both accept, one ulp above it both refuse.
    # Below the counting bound both refuse at every tol, even the smallest.
    space, _ = case
    t = random_tuple(space, k, seed)
    m = unimodularity_margin(t)
    obstructed = space.rank_obstruction(k)
    for tol, passes in ((np.nextafter(m, 0.0), not obstructed), (np.nextafter(m, np.inf), False),
                        (5e-324, not obstructed and m > 5e-324)):
        if tol == 0.0:  # m is 0 or the smallest subnormal: no tol lies below it
            continue
        assert is_unimodular(t, tol) == passes
        if passes:
            assert len(dual_witness(t, tol)) == k
        else:
            with pytest.raises(DomainError):
                dual_witness(t, tol)


@PROPERTY_SETTINGS
@given(spaces, lengths, lengths, seeds, st.one_of(st.none(), st.integers(0, 7)))
def test_a_padded_gram_sum_continues_the_gram_sum_of_its_head(case, n, r, seed, zero_at):
    # hv_pad and hv_perturb decide the padded tuple on the Gram sum of its joined
    # stacked form: pairing adds the entries to zeros in order, the head's and then the
    # padding's, so that is the Gram sum of t continued by the padding's terms, bit for bit.
    space, _ = case
    t = random_tuple(space, n + r, seed, zero_at)
    x, padding = ModuleTuple(t.entries[:n])._stacked(), ModuleTuple(t.entries[n:])._stacked()
    padded = [np.concatenate((xb, pb)) for xb, pb in zip(x, padding)]
    for i, whole in enumerate(space._stacked_pairing(padded, padded)):
        summed = np.zeros_like(whole)
        for entry in t.entries:
            summed += entry.blocks[i].conj().T @ entry.blocks[i]
        assert np.array_equal(whole.view(np.uint64), summed.view(np.uint64))


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), seeds, st.integers(-3, 3))
def test_cstar_identity_holds_in_every_algebra(base, seed, exponent):
    a = (10.0**exponent) * Algebra(tuple(base)).random_element(np.random.default_rng(seed))
    assert (a.adjoint() * a).norm() == pytest.approx(a.norm() ** 2, rel=1e-10, abs=0)


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(0, 1), seeds, st.sampled_from([0.01, 0.1, 1.0]))
@example(ROW_SPACE, 0, 0, 0.01)
def test_hv_perturb_lands_on_a_unimodular_tuple_within_the_bound(case, extra, seed, eps):
    # Herman-Vaserstein: any tuple at least as long as the stable rank moves
    # onto a unimodular one by less than sqrt(eps) + eps.
    space, _ = case
    assume(is_full(space))
    t = random_tuple(space, space.predicted_stable_rank() + extra, seed)
    moved = hv_perturb(t, PerturbationParams(eps=eps, seed=seed))
    assert is_unimodular(moved)
    assert (t - moved).norm() < math.sqrt(eps) + eps


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(0, 1), seeds, st.sampled_from([0.01, 0.1, 1.0]),
       st.floats(1.5, 100.0), st.floats(0.01, 0.6))
@example(ROW_SPACE, 0, 0, 0.01, 1.5, 0.6)
def test_hv_perturb_returns_the_input_exactly_when_its_bump_is_zero(
        case, extra, seed, eps, above, below):
    # Scaled by c with c^2 lambda_min(G) >= eps, the bump (eps - c^2 G)^+/eps is
    # 0 and the input comes back as it is; scaled below, the bump is nonzero
    # and the one collapse runs.
    space, _ = case
    assume(is_full(space))
    t = random_tuple(space, space.predicted_stable_rank() + extra, seed)
    assume(is_unimodular(t))
    smallest = min_eigenvalue_on_unit(space, gram(t))
    params = PerturbationParams(eps=eps, seed=seed)

    def scaled(ratio):
        c = math.sqrt(ratio * eps / smallest)
        return ModuleTuple(tuple(c * x for x in t.entries))

    collapses = []
    collapse = stable_rank._collapse

    def spy(*args):
        collapses.append(args)
        return collapse(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stable_rank, "_collapse", spy)
        large = scaled(above)
        assert hv_perturb(large, params) is large
        assert not collapses
        small = scaled(below)
        moved = hv_perturb(small, params)
        assert len(collapses) == 1
        assert moved is not small and is_unimodular(moved)


@PROPERTY_SETTINGS
@given(spaces, seeds, st.sampled_from([DEFAULT_TOL, 1e-25]))
@example(ROW_SPACE, 0, 1e-25)
def test_tuples_below_the_stable_rank_fail_from_the_counting_bound(case, seed, tol):
    # No n-tuple with n < sr is unimodular, so hv_perturb refuses it before it
    # pads, draws or reduces, whatever the tolerance.
    space, _ = case
    bound = space.predicted_stable_rank()
    for n in range(1, (bound or 1) + 3):
        assert space.rank_obstruction(n) == (bound is None or n < bound)
    assume(bound is not None)

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    with pytest.MonkeyPatch.context() as patch:
        # The one reduction hv_perturb runs; the control below shows it is reached.
        patch.setattr(stable_rank, "_collapse", reached)
        for n in range(1, bound):
            t = random_tuple(space, n, seed)
            with pytest.raises(ReductionFailedError, match="counting bound"):
                hv_perturb(t, PerturbationParams(eps=0.1, tol=tol, seed=seed))
        # At norm 0.1 the Gram sum lies below eps, so the bump is nonzero and
        # the collapse runs.
        t = random_tuple(space, bound, seed)
        t = ModuleTuple(tuple(0.1 / t.norm() * x for x in t.entries))
        with pytest.raises(Reached):
            hv_perturb(t, PerturbationParams(eps=0.1, seed=seed))


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(1, 3), st.integers(0, 1), seeds)
@example(ROW_SPACE, 3, 0, 0)
def test_one_collapse_removes_every_trailing_entry(case, r, extra, seed):
    # Warfield's step: with a unimodular truncation (y_1..y_n) of the witness,
    # a_jk = <z_j, y_{n+k}>_L collapses all r trailing entries at once.
    space, _ = case
    assume(is_full(space))
    n = space.predicted_stable_rank() + extra
    t = random_tuple(space, n + r, seed)
    assume(is_unimodular(t))
    params = PerturbationParams(eps=0.1, seed=seed)
    witnesses = []
    warfield = stable_rank._warfield

    def spy(space, x, n, head, tail, z, tol):
        witnesses.append((space._tuple_from_stacked(head), space._tuple_from_stacked(tail)))
        return warfield(space, x, n, head, tail, z, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stable_rank, "_warfield", spy)
        coeffs, reduced = collapse(t, n, params.tol)
    ((head, tail),) = witnesses
    assert coeffs.shape == (n, r) and len(reduced) == n
    assert is_unimodular(reduced)
    # Warfield's identity: the head pairs the reduced tuple as the witness pairs t.
    expected_pairing = pairing(ModuleTuple(head.entries + tail.entries), t)
    assert (pairing(head, reduced) - expected_pairing).norm() <= WITNESS_TOL * expected_pairing.norm()
    a = coeffs.coeffs
    for k in range(r):
        telescoped = sum((a[j][k].adjoint() * head[j] for j in range(1, n)), a[0][k].adjoint() * head[0])
        assert (telescoped - tail[k]).norm() <= TELESCOPE_TOL
    # The library's bound, stated as its number: a changed constant fails here.
    assert TELESCOPE_TOL == 1e-7
    if r == 1:
        expected = bass_reduce(t, params)
        assert all(np.array_equal(b, c) for b, c in zip(coeffs.blocks, expected.blocks))


def collapse(t, n, tol):
    """The private collapse of all but the first ``n`` entries of ``t``, on its stacked
    form, from its stacked dual and its norm; the collapsed tuple is built from its stacked
    form, and the margin that decided it is that tuple's own, bit for bit."""
    x = t._stacked()
    z, eta, _ = _stacked_dual(t.space, x, tol)
    coeffs, reduced, margin = stable_rank._collapse(t.space, x, z, eta, n, tol)
    reduced = t.space._tuple_from_stacked(reduced)
    assert margin == unimodularity_margin(reduced) > tol
    return coeffs, reduced


#: Input scales, log-uniform in [1, 1e6].
scales = st.floats(0.0, 6.0).map(lambda e: 10.0**e)

#: M_{1x2}(C): its 3-tuple from seed 0 scaled by 1e5 once failed in bass_reduce.
PAIR_SPACE = (ModuleSpace(Algebra((1,)), 1, 2), ((1, 2),))


def scaled_tuple(space, k, seed, scale):
    return ModuleTuple(tuple(scale * x for x in random_tuple(space, k, seed).entries))


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(0, 1), seeds, scales)
@example(PAIR_SPACE, 0, 0, 1e5)
def test_bass_reduce_succeeds_at_every_scale(case, extra, seed, scale):
    # Unimodularity survives scaling, and the witness's truncation is decided
    # by the dual of its polar completion, so a large input reduces like a
    # unit one.  The output is checked by the other route, whose margin does
    # not scale.
    space, _ = case
    assume(is_full(space))
    t = scaled_tuple(space, space.predicted_stable_rank() + 1 + extra, seed, scale)
    assume(is_unimodular(t))
    reduced = warfield_forward(t, bass_reduce(t, PerturbationParams(eps=0.1, seed=seed)))
    assert len(reduced) == len(t) - 1
    assert generation_margin(reduced) > DEFAULT_TOL


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(0, 1), seeds, scales, st.sampled_from([0.01, 0.1, 1.0]))
@example(PAIR_SPACE, 0, 0, 1e5, 0.01)
def test_hv_perturb_succeeds_at_every_scale(case, extra, seed, scale, eps):
    space, _ = case
    assume(is_full(space))
    t = scaled_tuple(space, space.predicted_stable_rank() + extra, seed, scale)
    moved = hv_perturb(t, PerturbationParams(eps=eps, seed=seed))
    assert generation_margin(moved) > DEFAULT_TOL
    assert (t - moved).norm() < math.sqrt(eps) + eps


#: Input scales, log-uniform in [1e-6, 1e6].
wide_scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


def largest_gap(xs, ys) -> float:
    """Largest entry of ``xs - ys`` over the largest entry of ``ys``, over all blocks."""
    return max(np.abs(x - y).max() for x, y in zip(xs, ys)) / max(np.abs(y).max() for y in ys)


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(1, 2), st.integers(0, 1), seeds, wide_scales)
def test_the_bass_step_is_scale_equivariant(case, r, extra, seed, scale):
    # Scaling t by c scales its dual z, the head's singular values and the
    # shift ||z|| by 1/c, so the coefficients W (|Z_h| + ||z||)^{-1} z_tail*
    # do not move, their norm stays at most 1 and the reduced tuple scales by
    # c.  The margin rule is absolute below norm 1, so the tolerance of the
    # scaled run follows its Gram sum, which scales by c^2.
    space, _ = case
    assume(is_full(space))
    n = space.predicted_stable_rank() + extra
    t = random_tuple(space, n + r, seed)
    assume(is_unimodular(t))
    scaled = ModuleTuple(tuple(scale * x for x in t.entries))
    coeffs, reduced = collapse(t, n, DEFAULT_TOL)
    scaled_coeffs, scaled_reduced = collapse(scaled, n, DEFAULT_TOL * min(1.0, scale) ** 2)
    assert adjointable_norm(coeffs) <= 1 + 1e-12
    assert adjointable_norm(scaled_coeffs) <= 1 + 1e-12
    assert largest_gap(scaled_coeffs.blocks, coeffs.blocks) <= 1e-12
    assert largest_gap(scaled_reduced._stacked(), [scale * b for b in reduced._stacked()]) <= 1e-12


def random_unitary(k, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]


def mixed(t, u) -> ModuleTuple:
    """``U t`` for a scalar ``k x k`` unitary ``u`` on the first ``k`` entries:
    entry ``j < k`` becomes ``sum_m u[j, m] x_m``; the others stay."""
    k = len(u)
    head = tuple(sum((u[j, m] * t[m] for m in range(1, k)), u[j, 0] * t[0]) for j in range(k))
    return ModuleTuple(head + t.entries[k:])


def in_band(margin, tol=DEFAULT_TOL, spread=1.0) -> bool:
    """Whether a margin lies in criterion 3's undecided band ``[tol/10, 10 tol]``,
    widened by the factor ``spread`` on both sides."""
    return tol / (10 * spread) <= margin <= 10 * tol * spread


#: Unit inputs, and inputs scaled by 0.3, whose Gram sums fall below eps = 0.5
#: somewhere, so that the bump of the perturbation is nonzero.
unit_or_small = st.sampled_from([1.0, 0.3])


@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 1), seeds, unit_or_small, st.booleans())
def test_unitary_mixing_keeps_both_verdicts(case, extra, seed, scale, with_zero):
    # Lg_n(M) is invariant under GL_n of the left algebra, unitaries included:
    # U t has the Gram sum of t, and its stacked cores are those of t times the
    # unitary U (x) 1, so neither route may change its verdict, except where a
    # margin lies in the undecided band.
    space, _ = case
    k = (space.predicted_stable_rank() or 1) + extra
    t = random_tuple(space, k, seed, zero_at=seed if with_zero else None)
    t = ModuleTuple(tuple(scale * x for x in t.entries))
    ut = mixed(t, random_unitary(k, seed))
    assert (gram(ut) - gram(t)).norm() <= 1e-12 * max(1.0, gram(t).norm())
    for verdict, margin in ((is_unimodular, unimodularity_margin), (gen_oracle, generation_margin)):
        if not (in_band(margin(t)) or in_band(margin(ut))):
            assert verdict(ut) == verdict(t)


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(0, 1), seeds, unit_or_small, st.sampled_from([0.1, 0.5]))
def test_hv_perturb_is_unitary_equivariant(case, extra, seed, scale, eps):
    # The bump depends on the Gram sum alone, the dual of U t is U times the
    # dual of t, and the polar completion of U Z_h is U W (|Z_h| + eta), so
    # hv_perturb(U t) = U hv_perturb(t).
    space, _ = case
    assume(is_full(space))
    n = space.predicted_stable_rank() + extra
    t = scaled_tuple(space, n, seed, scale)
    u = random_unitary(n, seed)
    params = PerturbationParams(eps=eps)
    expected = mixed(hv_perturb(t, params), u)
    assert largest_gap(hv_perturb(mixed(t, u), params)._stacked(), expected._stacked()) <= 1e-12


@settings(max_examples=HV_EXAMPLES, deadline=None)
@given(spaces, st.integers(0, 1), seeds, unit_or_small)
def test_bass_reduce_is_unitary_equivariant_on_the_head(case, extra, seed, scale):
    # A unitary on the first n entries of an (n+1)-tuple maps the dual's head
    # to U z_head and its polar completion to U c, and leaves the tail alone,
    # so the coefficients and the reduced tuple are multiplied by U.
    space, _ = case
    assume(is_full(space))
    n = space.predicted_stable_rank() + extra
    t = scaled_tuple(space, n + 1, seed, scale)
    assume(is_unimodular(t))
    u = random_unitary(n, seed)
    params = PerturbationParams(eps=0.1)
    ut = mixed(t, u)
    expected = mixed(warfield_forward(t, bass_reduce(t, params)), u)
    assert largest_gap(warfield_forward(ut, bass_reduce(ut, params))._stacked(), expected._stacked()) <= 1e-12


def random_right_invertible(space, seed):
    """A right-algebra invertible ``g`` with ``||g|| = 1`` and condition ``c <= 10``, and ``c``.

    Per block ``g = V h V*``, with ``V`` the basis of the range of ``q`` on a
    corner (the identity on a matrix space) and ``h`` in the compressed algebra."""
    rng = np.random.default_rng(seed)
    bases = getattr(space, "_col_bases", [np.eye(s) for _, s in space.compressed_shapes])
    svals = [rng.uniform(0.1, 1.0, s) for _, s in space.compressed_shapes]
    top = max(sv.max() for sv in svals if sv.size)
    blocks = [v @ random_unitary(len(sv), rng.integers(2**32)) @ np.diag(sv / top)
              @ random_unitary(len(sv), rng.integers(2**32)) @ v.conj().T for v, sv in zip(bases, svals)]
    c = top / min(sv.min() for sv in svals if sv.size)
    return space.right_algebra.element(blocks), c


def random_elementary(space, n, seed):
    """Bass's elementary matrix ``x_j -> x_j + a x_k`` (``j != k``), with ``||a|| <= 1``
    acting on the space (``a = p a p`` on a corner), as a map of tuples, and its condition."""
    rng = np.random.default_rng(seed)
    j, k = rng.choice(n, 2, replace=False)
    a = space.left_algebra.random_element(rng)
    p = getattr(space, "p", None)
    a = a if p is None else p * a * p
    if a.norm() > 0:
        a = (rng.uniform(0.0, 1.0) / a.norm()) * a
    s = a.norm()
    # [[1, s], [0, 1]] and its inverse both have norm (s + sqrt(s^2 + 4)) / 2.
    c = ((s + math.sqrt(s * s + 4)) / 2) ** 2

    def act(t):
        entries = list(t.entries)
        entries[j] = entries[j] + a * entries[k]
        return ModuleTuple(tuple(entries))

    return act, c


def assert_verdicts_kept(t, moved, c):
    """Under an invertible of condition ``c``, the unimodularity margin moves by at
    most ``c^2`` and the generation margin by at most ``c``, so neither verdict may
    change unless the margin of ``t`` lies in the undecided band widened by ``c^2``."""
    for verdict, margin, power in ((is_unimodular, unimodularity_margin, 2), (gen_oracle, generation_margin, 1)):
        low, high = sorted((margin(t), margin(moved)))
        if low > 1e-6:
            assert high <= low * c**power * (1 + 1e-6)
        if not in_band(margin(t), spread=c**2):
            assert verdict(moved) == verdict(t)


@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 1), seeds, unit_or_small, st.booleans())
def test_right_invertibles_keep_both_verdicts(case, extra, seed, scale, with_zero):
    # Lg_n(M) is invariant under right multiplication by an invertible g: the
    # Gram sum becomes g* G g and each stacked core X becomes X h.
    space, _ = case
    k = (space.predicted_stable_rank() or 1) + extra
    t = random_tuple(space, k, seed, zero_at=seed if with_zero else None)
    t = ModuleTuple(tuple(scale * x for x in t.entries))
    g, c = random_right_invertible(space, seed)
    assert_verdicts_kept(t, ModuleTuple(tuple(x * g for x in t.entries)), c)


@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 1), seeds, unit_or_small, st.booleans())
def test_elementary_matrices_keep_both_verdicts(case, extra, seed, scale, with_zero):
    # Lg_n(M) is invariant under GL_n of the left algebra, Bass's elementary
    # matrices E included: the stacked form X becomes E X.
    space, _ = case
    k = max(2, (space.predicted_stable_rank() or 1) + extra)
    t = random_tuple(space, k, seed, zero_at=seed if with_zero else None)
    t = ModuleTuple(tuple(scale * x for x in t.entries))
    act, c = random_elementary(space, k, seed)
    assert_verdicts_kept(t, act(t), c)


def scaled(t, c) -> ModuleTuple:
    return ModuleTuple(tuple(c * x for x in t.entries))


@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 1), seeds, wide_scales)
def test_nonzero_scalars_keep_the_generation_margin(case, extra, seed, c):
    # Lg_n(M) is invariant under nonzero scalars: the stacked cores of c t are
    # c times those of t, so the span map's critical singular value over its
    # largest does not move, and neither does the oracle's verdict.
    space, _ = case
    k = (space.predicted_stable_rank() or 1) + extra
    t = random_tuple(space, k, seed)
    ct = scaled(t, c)
    # A space with no block of r s > 0 has margin inf at every scale.
    assert math.isclose(generation_margin(ct), generation_margin(t), rel_tol=1e-12)
    assert gen_oracle(ct) == gen_oracle(t)


def gram_condition(t) -> float:
    """Condition number of the Gram sum of ``t`` on the range of the right unit."""
    svals = [np.linalg.svd(b, compute_uv=False) for b in t.space._compress(gram(t).blocks)]
    return max(s[0] for s in svals) / min(s[-1] for s in svals)


@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 1), seeds, scales)
def test_the_dual_witness_scales_inversely(case, extra, seed, c):
    # The Gram sum of c t is c^2 G, so its canonical dual is c x (c^2 G)^{-1} = z / c;
    # c >= 1 keeps the scaled tuple unimodular at the same tol.  Rounding c x moves
    # the inverse of G by about cond(G) unit roundoffs, hence the bound's second term.
    space, _ = case
    assume(is_full(space))
    t = random_tuple(space, space.predicted_stable_rank() + extra, seed)
    assume(is_unimodular(t))
    expected = [b / c for b in dual_witness(t)._stacked()]
    gap = largest_gap(dual_witness(scaled(t, c))._stacked(), expected)
    assert gap <= max(1e-12, 1e-15 * gram_condition(t))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the Gram margin is absolute below norm 1")
@PROPERTY_SETTINGS
@given(spaces, st.integers(0, 1), seeds, wide_scales)
@example(PAIR_SPACE, 0, 0, 1e-4)  # README's unimodular pair of M_{1x2}(C), scaled by 1e-4
def test_nonzero_scalars_keep_the_unimodularity_verdict(case, extra, seed, c):
    # The Gram sum scales by c^2, and the margin rule divides by max(1, norm):
    # below norm 1 the margin scales too, so a small c can push it under tol.
    space, _ = case
    t = random_tuple(space, (space.predicted_stable_rank() or 1) + extra, seed)
    if not in_band(unimodularity_margin(t)):
        assert is_unimodular(scaled(t, c)) == is_unimodular(t)


@PROPERTY_SETTINGS
@given(st.integers(-(2**70), 2**70), st.integers(1, 64))
@example(0, 8)
@example(-1, 8)
@example(2**32 - 1, 8)  # the largest one-word SeedSequence entropy
@example(2**32 - 3, 8)  # XOR 0..7 gives the top eight one-word seeds, reordered
@example(2**32, 8)  # the smallest two-word entropy
@example(2**63, 8)
@example(2**64 - 1, 8)
# The smallest count seeded in one numpy pass, and the largest seeded by rng_from_seed per trial.
@example(2**32 - 3, _POOL_PASS_TRIALS)
@example(2**32 - 3, _POOL_PASS_TRIALS - 1)
@example(-1, 64)
@example(2**64 - 1, 64)
def test_trial_draws_equal_the_per_trial_generators(seed, trials):
    draws = trial_draws(seed, trials, 5)
    assert draws.shape == (trials, 5)
    for index, row in enumerate(draws):
        reference = rng_from_seed(derived_seed(seed, index)).standard_normal(5)
        assert np.array_equal(row, reference)


def per_trial_margins(space, k, trials, seed):
    """Reference for the batched trials: the loop ``density_experiment`` ran
    before, one generator and ``k`` calls of ``random_element`` per trial."""
    margins = []
    for index in range(trials):
        rng = rng_from_seed(derived_seed(seed, index))
        t = ModuleTuple(tuple(space.random_element(rng) for _ in range(k)))
        margins.append(unimodularity_margin(t))
    return np.array(margins)


#: The first block's Gram sum is zero.
ZERO_ROW_CORNER = (
    corner_with_ranks((1, 2), 1, (0, 2), (1, 1), np.random.default_rng(3)),
    ((0, 1), (2, 1)),
)
#: The first block drops out.
DEAD_COLUMN_CORNER = (
    corner_with_ranks((1, 2), 1, (1, 1), (0, 2), np.random.default_rng(3)),
    ((1, 0), (1, 2)),
)


@PROPERTY_SETTINGS
@given(spaces, lengths, st.integers(1, 20), seeds)
@example(ZERO_ROW_CORNER, 2, 1, 0)
@example(ZERO_ROW_CORNER, 4, 5, 1)
@example(DEAD_COLUMN_CORNER, 1, 1, 2)
@example(DEAD_COLUMN_CORNER, 3, 4, 3)
# Both sides of the count from which trial_draws seeds in one pass.
@example(ZERO_ROW_CORNER, 2, _POOL_PASS_TRIALS, 4)
@example(DEAD_COLUMN_CORNER, 3, _POOL_PASS_TRIALS - 1, 5)
@example(PAIR_SPACE, 2, _POOL_PASS_TRIALS, 6)
def test_batched_trial_margins_equal_the_per_trial_loop(case, k, trials, seed):
    space, shapes = case
    assert space.compressed_shapes == shapes
    draws = trial_draws(seed, trials, k * draw_size(space.block_shapes))
    batched = space.random_gram_margins(draws, k)
    reference = per_trial_margins(space, k, trials, seed)
    assert batched.shape == (trials,)
    assert np.array_equal(batched, reference)
    if any(r == 0 < s for r, s in shapes):
        assert not reference.any()
    report = density_experiment(space, k, trials, seed)
    assert report.unimodular_fraction == np.count_nonzero(reference > DEFAULT_TOL) / trials


#: Two compressed blocks, both live.
TWO_BLOCK_CORNER = (
    corner_with_ranks((1, 2), 2, (1, 2), (2, 4), np.random.default_rng(5)),
    ((1, 2), (2, 4)),
)


def trial_stacks(tuples):
    """Per block, the ``(trials, k r_i, s_i)`` stack of the tuples' stacked forms."""
    return [np.stack(blocks) for blocks in zip(*(t._stacked() for t in tuples))]


@PROPERTY_SETTINGS
@given(spaces, lengths, st.integers(1, 20), seeds)
@example(TWO_BLOCK_CORNER, 4, 20, 0)
@example(TWO_BLOCK_CORNER, 3, 1, 1)
@example(ZERO_ROW_CORNER, 3, 7, 2)
@example((ModuleSpace(Algebra((1, 2)), 2, 3), ((2, 3), (4, 6))), 4, 20, 3)
def test_a_stack_of_trials_pairs_as_each_trial_tuple(case, k, trials, seed):
    # The density margins pair a leading trial axis of stacked forms; each trial's pairing
    # must be, bit for bit, that of its own tuple, for a tuple with itself and with another.
    space, _ = case
    rng = np.random.default_rng(seed)
    ys, xs = ([ModuleTuple(tuple(space.random_element(rng) for _ in range(k))) for _ in range(trials)]
              for _ in range(2))
    stacked = trial_stacks(xs)
    grams, paired = space._stacked_pairing(stacked, stacked), space._stacked_pairing(trial_stacks(ys), stacked)
    for i, (y, x) in enumerate(zip(ys, xs)):
        for sums, single in ((grams, pairing(x, x)), (paired, pairing(y, x))):
            assert [b[i].tobytes() for b in sums] == [b.tobytes() for b in single.blocks]


@PROPERTY_SETTINGS
@given(spaces, lengths, st.integers(1, 20), seeds, st.sampled_from([1e-25, 1e-12, 1e-9, 1e-3]),
       st.one_of(st.just(1.0), st.floats(1e-4, 1e2)))
@example(ZERO_ROW_CORNER, 2, 5, 0, 1e-25, 1.0)
@example(DEAD_COLUMN_CORNER, 3, 6, 1, 1e-25, 1.0)
@example(PAIR_SPACE, 1, 8, 2, 1e-25, 1.0)
@example(PAIR_SPACE, 2, 20, 3, 1e-3, 1.0)
# Margins about 1e-6 at tol 1e-3: the bracket must refuse the cell on tol, not on rounding.
@example(PAIR_SPACE, 2, 20, 4, 1e-3, 1e-3)
# Four entries stacked into one product per block, on two blocks of a matrix space and of a corner.
@example((ModuleSpace(Algebra((1, 2)), 2, 3), ((2, 3), (4, 6))), 4, 20, 5, 1e-9, 1.0)
@example(TWO_BLOCK_CORNER, 4, 20, 6, 1e-3, 1e-2)
def test_the_cholesky_bracket_counts_as_the_margins(case, k, trials, seed, tol, scale):
    # Below the counting bound the margins decide; above it the bracket decides each cell
    # it clears, and a trial it cannot clear sends the cell to the margins.  Scaled draws
    # move the margins of a cell across tol.  The trials kept lie outside [tol/10, 10 tol],
    # where no verdict depends on the bracket's slack.
    space, _ = case
    draws = scale * trial_draws(seed, trials, k * draw_size(space.block_shapes))
    margins = space.random_gram_margins(draws, k)
    kept = draws[(margins < tol / 10) | (margins > 10 * tol)]
    assume(len(kept))
    reference = space.random_gram_margins(kept, k)
    assert space._unimodular_count(kept, k, tol) == np.count_nonzero(reference > tol)


#: Every ``(rows, cols, k)`` of the density grid that the counting bound rules out.
OBSTRUCTED_GRID = [(n, m, k) for n in range(1, 7) for m in range(1, 7) for k in range(1, 5) if n * k < m]


@PROPERTY_SETTINGS
@given(st.sampled_from([(1,), (2,), (1, 2), (2, 3)]), st.sampled_from(OBSTRUCTED_GRID),
       st.integers(1, 20), seeds, st.floats(-150, 100).map(lambda e: 10.0 ** e))
@example((2, 3), (1, 6, 4), 20, 0, 1e100)
@example((2, 3), (1, 6, 1), 20, 1, 1e-150)
@example((1,), (1, 2, 1), 20, 2, 1.0)
def test_no_obstructed_margin_exceeds_the_rounding_bound(base, cell, trials, seed, scale):
    # An obstructed Gram sum has exact lambda_min = 0, so its computed margin is rounding
    # noise, which the rounding bound covers whatever the draws and their scale are.
    n, m, k = cell
    space = ModuleSpace(Algebra(base), n, m)
    bound = space._rounding_bound(k)
    assert 0 < bound < 1e-11
    draws = scale * trial_draws(seed, trials, k * draw_size(space.block_shapes))
    assert (space.random_gram_margins(draws, k) <= bound).all()
