import pytest

from helpers import hnf


def test_hnf_unimodular_and_rank():
    assert hnf([[2, 1], [1, 1], [3, 0]], 2) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        hnf([[1, 0], [2, 0]], 2)
