"""tools/same_outputs.py: the fingerprint that two checkouts' outputs are
compared by must tell apart any two values with different bits."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def fingerprint(x) -> bytes:
    parts: list[bytes] = []
    same_outputs.canonical(x, parts)
    return b"|".join(parts)


@pytest.mark.parametrize(
    "a, b",
    [
        (0.0, -0.0),
        (0.1, math.nextafter(0.1, math.inf)),
        (complex(1.5, -2.0), complex(-2.0, 1.5)),
        (np.zeros(4, dtype=np.float64), np.zeros(4, dtype=np.int64)),
        (np.zeros((2, 3)), np.zeros((3, 2))),
    ],
    ids=["signed-zero", "one-ulp", "swapped-parts", "dtype", "shape"],
)
def test_canonical_tells_the_bits_apart(a, b):
    assert fingerprint(a) != fingerprint(b)


def test_canonical_ignores_dict_key_order():
    a = {"x": 1.0, 2: [0.5j], (1, 2): np.arange(3)}
    b = dict(reversed(list(a.items())))
    assert list(a) != list(b)
    assert fingerprint(a) == fingerprint(b)
