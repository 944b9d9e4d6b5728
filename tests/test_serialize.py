"""Output formats: the JSON matrix encoding reads back exactly, and the matrix
writer's text is the generic ``json.dumps`` text."""

import json

import numpy as np
import pytest

from qloss.serialize import matrix_from_json_dict, matrix_to_json_dict, write_json

HEADER = ["# qloss test", "# seed: 0"]


def _body(text: str) -> str:
    return "".join(l for l in text.splitlines(keepends=True) if not l.startswith("#"))


def _generic(payload) -> str:
    """The reference: every matrix's data as its list of [re, im] pairs, through
    the generic encoder."""
    def lists(obj):
        if isinstance(obj, dict):
            return {k: lists(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [lists(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return [[float(re), float(im)] for re, im in obj]
        return obj
    body = json.dumps(lists(payload), indent=2, sort_keys=True, allow_nan=False)
    return "\n".join(HEADER) + "\n" + body + "\n"


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 9), (27, 27)])
def test_matrix_json_round_trip(shape, tmp_path):
    rng = np.random.default_rng(sum(shape))
    mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mat[0, 0] = -0.0 + 1e-300j
    encoded = matrix_to_json_dict(mat, "density", "ions msb-first")
    write_json(str(tmp_path / "m.json"), HEADER, encoded)
    decoded = matrix_from_json_dict(json.loads(_body((tmp_path / "m.json").read_text())))
    assert decoded.shape == shape
    assert np.array_equal(decoded, mat)
    assert np.signbit(decoded.real).tolist() == np.signbit(mat.real).tolist()
    assert (encoded["kind"], encoded["basis_order"]) == ("density", "ions msb-first")


#: values whose text the writer must spell as ``json`` does
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1e16, -1e16, 1.0,
               -3.0, 123456789.0, 0.1, 1 / 3, 1.7976931348623157e308, 2.5e-5, 1e22]


@pytest.mark.parametrize("side", [1, 2, 4, 5])
def test_matrix_writer_text_equals_json_dumps(side, tmp_path):
    rng = np.random.default_rng(side)
    vals = rng.choice(EDGE_VALUES, size=(2, side, side))
    mat = vals[0] + 1j * vals[1]
    # nested the way the choi command nests them, and at the top level
    payloads = [matrix_to_json_dict(mat, "density", "b"),
                {"results": [{"choi": matrix_to_json_dict(mat, "choi", "b"), "phi": 0.5,
                              "ideal": matrix_to_json_dict(mat.T, "choi", "b")}],
                 "post_select": 1}]
    for payload in payloads:
        path = tmp_path / "m.json"
        write_json(str(path), HEADER, payload)
        assert path.read_text() == _generic(payload)


def test_matrix_writer_empty_matrix(tmp_path):
    payload = matrix_to_json_dict(np.zeros((0, 0)), "density", "b")
    write_json(str(tmp_path / "m.json"), HEADER, payload)
    assert (tmp_path / "m.json").read_text() == _generic(payload)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(0, -np.inf)])
def test_matrix_writer_refuses_non_finite(bad, tmp_path):
    mat = np.eye(3, dtype=complex)
    mat[1, 2] = bad
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        write_json(str(path), HEADER, {"m": matrix_to_json_dict(mat, "density", "b")})
    assert not path.exists()
