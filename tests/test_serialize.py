"""Output formats: the JSON matrix encoding reads back exactly."""

import json

import numpy as np
import pytest

from qloss.serialize import matrix_from_json_dict, matrix_to_json_dict


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 9), (27, 27)])
def test_matrix_json_round_trip(shape):
    rng = np.random.default_rng(sum(shape))
    mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mat[0, 0] = -0.0 + 1e-300j
    encoded = matrix_to_json_dict(mat, "density", "ions msb-first")
    decoded = matrix_from_json_dict(json.loads(json.dumps(encoded)))
    assert decoded.shape == shape
    assert np.array_equal(decoded, mat)
    assert (encoded["kind"], encoded["basis_order"]) == ("density", "ions msb-first")
