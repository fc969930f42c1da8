"""JSON schemas: bit-exact roundtrips of every serialized object."""

import json

import numpy as np
import pytest

from cstar_rank import (
    Algebra,
    AlgebraElement,
    ModuleSpace,
    ModuleTuple,
    ReductionCoefficients,
    corner_space,
    density_experiment,
    space_from_json_dict,
    tuple_from_json_list,
)
from cstar_rank._version import __version__
from cstar_rank.algebra import matrix_from_json, matrix_to_json


def roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_algebra_roundtrip():
    alg = Algebra((1, 2, 3))
    data = roundtrip(alg.to_json_dict())
    assert data == {"blocks": [1, 2, 3]}
    assert Algebra.from_json_dict(data) == alg


def test_algebra_element_roundtrip_is_bit_exact():
    rng = np.random.default_rng(0)
    alg = Algebra((2, 3))
    for _ in range(20):
        a = alg.random_element(rng)
        data = roundtrip(a.to_json_dict())
        back = AlgebraElement.from_json_dict(alg, data)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks))


def test_element_json_shape():
    alg = Algebra((2,))
    a = alg.element([np.array([[1.0 + 2.0j, 0.0], [0.0, -1.0]])])
    data = a.to_json_dict()
    # Row-major nesting of [re, im] pairs, dimensions k x k.
    assert data["blocks"][0][0][0] == [1.0, 2.0]
    assert data["blocks"][0][1][1] == [-1.0, 0.0]


def test_module_space_roundtrip():
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    data = roundtrip(space.to_json_dict())
    assert data == {"algebra": {"blocks": [1, 2]}, "rows": 2, "cols": 3}
    assert space_from_json_dict(data) == space


def test_module_element_and_tuple_roundtrip():
    rng = np.random.default_rng(1)
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    x = space.random_element(rng)
    back = tuple_from_json_list([roundtrip(x.to_json_dict())])[0]
    assert back.space == space
    assert all(np.array_equal(a, b) for a, b in zip(x.blocks, back.blocks))

    t = ModuleTuple((x, space.random_element(rng)))
    t_back = tuple_from_json_list(roundtrip(t.to_json_list()))
    assert len(t_back) == 2
    for a, b in zip(t.entries, t_back.entries):
        assert all(np.array_equal(x1, x2) for x1, x2 in zip(a.blocks, b.blocks))


def test_corner_space_roundtrip_serializes_projections():
    alg = Algebra((1,))
    big = alg.matrix_algebra(3)
    p = big.element([np.diag([1.0, 1.0, 0.0])])
    q = big.element([np.diag([1.0, 0.0, 0.0])])
    corner = corner_space(alg, 3, p, q)
    data = roundtrip(corner.to_json_dict())
    assert set(data) == {"algebra", "size", "p", "q"}
    back = space_from_json_dict(data)
    assert back == corner


def test_corner_element_roundtrip():
    alg = Algebra((1,))
    big = alg.matrix_algebra(2)
    p = big.element([np.diag([1.0, 0.0])])
    corner = corner_space(alg, 2, p, p)
    x = corner.random_element(np.random.default_rng(2))
    back = tuple_from_json_list([roundtrip(x.to_json_dict())])[0]
    assert back.space == corner
    assert all(np.array_equal(a, b) for a, b in zip(x.blocks, back.blocks))


def test_corner_entries_must_lie_in_the_corner():
    # p = diag(1, 0), q = 1: a block is p x q only if its second row is zero.
    alg = Algebra((1,))
    big = alg.matrix_algebra(2)
    corner = corner_space(alg, 2, big.element([np.diag([1.0, 0.0])]), big.unit())
    x = corner.random_element(np.random.default_rng(8))
    below = np.array([[0.0, 0.0], [1.0, 1.0]])
    for scale, nudge, refused in ((1.0, 1e-9, True), (1.0, 1e-12, False), (1e6, 1e-5, False)):
        data = roundtrip(x.to_json_dict())
        data["blocks"] = [matrix_to_json(scale * x.blocks[0] + nudge * below)]
        if refused:
            with pytest.raises(ValueError, match="not in its space"):
                tuple_from_json_list([data])[0]
            continue
        # Within PROJECTION_TOL relative the entry loads unchanged.
        back = tuple_from_json_list([data])[0]
        assert np.array_equal(back.blocks[0], matrix_from_json(data["blocks"][0]))


def test_reduction_coefficients_roundtrip():
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    rng = np.random.default_rng(3)
    left = space.left_algebra
    coeffs = ReductionCoefficients(
        space,
        [[left.random_element(rng) for _ in range(2)] for _ in range(3)],
    )
    data = roundtrip(coeffs.to_json_dict())
    assert data["shape"] == [3, 2]
    back = ReductionCoefficients.from_json_dict(data)
    assert back.shape == coeffs.shape
    for row_a, row_b in zip(coeffs.coeffs, back.coeffs):
        for a, b in zip(row_a, row_b):
            assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
    # A declared shape that disagrees with the entries is refused.
    data["shape"] = [5, 3]
    with pytest.raises(ValueError, match="declared shape"):
        ReductionCoefficients.from_json_dict(data)


@pytest.mark.parametrize("shape, path", [([True, 2], "$.shape[0]"), (["1", 2], "$.shape[0]"), ([1, 2.0], "$.shape[1]")])
def test_a_declared_coefficient_shape_is_read_as_json_integers(shape, path):
    # Compared as raw values, [true, 2.0] would equal the entries' shape (1, 2).
    space = ModuleSpace(Algebra((1,)), 1, 2)
    data = roundtrip(ReductionCoefficients(space, [[space.left_algebra.unit()] * 2]).to_json_dict())
    data["shape"] = shape
    with pytest.raises(ValueError) as refused:
        ReductionCoefficients.from_json_dict(data)
    assert str(refused.value) == f"{path} must be a JSON integer"


def test_density_report_embeds_provenance():
    space = ModuleSpace(Algebra((1,)), 1, 1)
    report = density_experiment(space, 1, 10, seed=5)
    data = roundtrip(report.to_json_dict())
    assert data["version"] == __version__
    assert data["seed"] == 5
    assert data["tolerance"] == 1e-9
    assert data["space"] == {"algebra": {"blocks": [1]}, "rows": 1, "cols": 1}


def test_density_report_keeps_its_schema():
    # The report is its dataclass fields, with tol under the key "tolerance".
    report = density_experiment(ModuleSpace(Algebra((1,)), 1, 2), 2, 10, seed=3)
    assert sorted(report.to_json_dict()) == [
        "exact_obstruction", "k", "predicted_sr", "seed", "space", "tolerance",
        "trials", "unimodular_fraction", "version",
    ]


def test_tuple_entries_must_declare_one_space():
    # Both corners store 2x2 blocks, so only the declared spaces differ.
    alg = Algebra((1,))
    ambient = alg.matrix_algebra(2)
    p = ambient.element([np.diag([1.0, 0.0])])
    q = ambient.element([np.diag([0.0, 1.0])])
    rng = np.random.default_rng(7)
    x = corner_space(alg, 2, p, p).random_element(rng)
    y = corner_space(alg, 2, q, p).random_element(rng)
    with pytest.raises(ValueError) as refused:
        tuple_from_json_list([x.to_json_dict(), y.to_json_dict()])
    assert str(refused.value) == "$[1]: tuple entries declare different spaces"
