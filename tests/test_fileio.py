import numpy as np
import pytest

from btd1 import DimensionError, compose, random_btd
from btd1.fileio import (
    decomposition_from_dict,
    read_decomposition,
    read_tensor,
    write_decomposition,
    write_tensor,
)


def test_tensor_round_trip(tmp_path):
    t = compose(random_btd((3, 4, 5), (2, 2), seed=0))
    path = tmp_path / "t.btd1"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.field == "real"
    assert np.array_equal(back.values, t.values)


def test_tensor_round_trip_complex(tmp_path):
    t = compose(random_btd((2, 3, 4), (1, 2), field="complex", seed=1))
    path = tmp_path / "t.btd1"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.field == "complex"
    assert np.array_equal(back.values, t.values)


def test_tensor_header_is_ascii_line(tmp_path):
    t = compose(random_btd((2, 3, 4), (1,), seed=2))
    path = tmp_path / "t.btd1"
    write_tensor(path, t)
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
    assert header == "BTD1 R 2 3 4\n"


def test_tensor_reject_garbage(tmp_path):
    path = tmp_path / "bad.btd1"
    path.write_bytes(b"NOPE 1 2 3\n")
    with pytest.raises(DimensionError):
        read_tensor(path)
    path.write_bytes(b"BTD1 R 2 2 2\n" + b"\0" * 8)  # truncated payload
    with pytest.raises(DimensionError):
        read_tensor(path)
    # a complex payload holds two floats an entry
    path.write_bytes(b"BTD1 C 2 2 2\n" + b"\0" * 8 * 8)
    with pytest.raises(DimensionError, match="expected 16 floats, found 8"):
        read_tensor(path)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_decomposition_round_trip(tmp_path, field):
    d = random_btd((3, 5, 6), (2, 1, 3), field=field, seed=3)
    path = tmp_path / "d.json"
    write_decomposition(path, d)
    back = read_decomposition(path)
    assert back.sizes == d.sizes
    assert np.allclose(back.A, d.A)
    for (b1, c1), (b2, c2) in zip(back.terms, d.terms):
        assert np.allclose(b1, b2)
        assert np.allclose(c1, c2)


# JSON that is not a decomposition, and the part each error names
MALFORMED_DECOMPOSITIONS = [
    ({"terms": []}, "no 'A'"),
    ({"A": [[1.0]], "terms": [{"B": [[1.0]]}]}, "term 0 has no 'C'"),
    ([1, 2], "not a JSON object"),
    ({"A": 5, "terms": 3}, "'terms' is not a list"),
    (
        {"field": "complex", "A": [[1.0]], "terms": [{"B": [[1.0]], "C": [[1.0]]}]},
        "'A' is not a matrix of complex",
    ),
    ({"A": [[1.0]], "terms": [{"B": [[1.0]], "C": [[1.0]]}], "sizes": 1}, "declared sizes"),
]


@pytest.mark.parametrize(
    "obj,message",
    MALFORMED_DECOMPOSITIONS,
    ids=["no-A", "term-without-C", "list", "terms-not-a-list", "real-complex-entry", "sizes-not-a-list"],
)
def test_decomposition_from_dict_names_the_missing_part(obj, message):
    with pytest.raises(DimensionError, match=message):
        decomposition_from_dict(obj)
