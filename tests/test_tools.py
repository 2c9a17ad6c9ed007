"""tools/same_outputs.py: the fingerprint that two checkouts' outputs are
compared by must tell apart any two values with different bits, its
flags-only digest must see every flag, exponent and grid point but no
floating value, and an operation whose run with the oracle's kept root
classes differs from its run with none kept has no digest."""

import dataclasses
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

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


def flags(x) -> bytes:
    parts: list[bytes] = []
    same_outputs.canonical(x, parts, floats=False)
    return b"|".join(parts)


def test_flags_drop_the_floats_and_keep_the_rest():
    assert flags([0.1, 1.5j, np.arange(3.0), 2]) == flags([0.2, -1j, np.ones(3), 2])
    for a, b in [(True, False), (1, 2), ("ok", "ko"), (np.arange(3), np.arange(1, 4))]:
        assert flags([a]) != flags([b])
    assert flags(np.zeros(3)) != flags(np.zeros(4))


def a_report():
    from padicfourier import Prime, PiAlphaLog, quadratic_character, random_testfn
    from padicfourier import verify_stabilization

    P3 = Prime(3)
    f = PiAlphaLog(0.8 - 0.3j, quadratic_character(P3), 1)
    return verify_stabilization(f, random_testfn(P3, 1, -1, seed=5), 0, 4, 2)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_file_flags_see_flags_and_not_last_digits(fmt):
    report = a_report()
    write = lambda r: getattr(r, f"to_{fmt}")().encode()  # noqa: E731
    name = f"op0001.{fmt}"
    base = same_outputs.file_flags(name, write(report))
    # rhs and abs_err moved in their last digits, one to an exact 0
    rows = list(report.rows)
    rows[0] = dataclasses.replace(rows[0], rhs=0j, abs_err=math.nextafter(rows[0].abs_err, 1))
    rows[1] = dataclasses.replace(rows[1], J=rows[1].J * (1 + 2**-52))
    moved = dataclasses.replace(report, rows=rows)
    assert write(moved) != write(report)
    assert same_outputs.file_flags(name, write(moved)) == base
    # a flag, an exponent or a grid point that moves is seen
    for change in (
        dict(rows=[dataclasses.replace(rows[0], stabilized=not rows[0].stabilized)] + rows[1:]),
        dict(s_emp_exponent=report.s_emp_exponent + 1),
        dict(rows=[dataclasses.replace(rows[0], t_unit=7)] + rows[1:]),
    ):
        assert same_outputs.file_flags(name, write(dataclasses.replace(report, **change))) != base
    if fmt == "json":
        assert same_outputs.file_flags(name, write(dataclasses.replace(report, ok=False))) != base


def test_file_flags_of_a_text_output_are_its_labels():
    a = b"J(t = 1/9) = 0.5+0.25i\nrhs       = 1.363884847374513e-16+6.9655854638490008e-17i"
    b = b"J(t = 1/9) = 0.5+0.25000000000000006i\nrhs       = 0+0i"
    assert same_outputs.file_flags("op0002.txt", a) == same_outputs.file_flags("op0002.txt", b)
    c = b"J(t = 1/3) = 0.5+0.25i\nrhs       = 0+0i"
    assert same_outputs.file_flags("op0002.txt", a) != same_outputs.file_flags("op0002.txt", c)


def test_digest_runs_each_operation_twice(tmp_path):
    runs = []

    def op(result, text):
        def run():
            runs.append(None)
            (tmp_path / "out.txt").write_text(text(len(runs)))
            return result(len(runs))

        return SimpleNamespace(run=run)

    sha = same_outputs.digest(op(lambda n: 1.5, lambda n: "J = 1"), tmp_path, flags=False)
    assert len(runs) == 2 and sha is not None
    # a file rewritten with other bytes, the same on both runs, is hashed
    moved = same_outputs.digest(op(lambda n: 1.5, lambda n: "J = 2"), tmp_path, flags=False)
    assert moved not in (None, sha)
    # a value or a file that moves on the second run
    assert same_outputs.digest(op(lambda n: 0.1 * n, lambda n: "J = 2"), tmp_path, False) is None
    assert same_outputs.digest(op(lambda n: 1.5, lambda n: f"J = {n}"), tmp_path, False) is None
    # whose flags, with no float, stay
    assert same_outputs.digest(op(lambda n: 0.1 * n, lambda n: "J = 2"), tmp_path, True)


def test_digest_sees_root_classes_keyed_too_coarsely(monkeypatch, tmp_path):
    # the oracle's root classes kept by (p, d, k) less its depth d or its
    # modulus p^k: a later sphere reads the classes of another depth, or
    # t = 3^-3's S_0 reads the classes mod 3^2 that t = 3^-2's S_1 kept
    # at d = 3 in place of those mod 3.  The run that keeps none computes
    # them afresh, so the two digests differ
    from fractions import Fraction as Fr

    from padicfourier import PiAlphaLog, Prime, brute_force_oracle, random_testfn
    from padicfourier import singular, trivial_character
    from padicfourier.singular import SingularIntegralRequest

    fold = singular._kept.__wrapped__

    def coarse(drop):
        memo = {}

        def kept(p, d, k):
            key = (p, d, k)[:drop] + (p, d, k)[drop + 1 :]
            if key not in memo:
                memo[key] = fold(p, d, k)
            return memo[key]

        kept.__wrapped__ = fold
        return kept

    P3 = Prime(3)
    phi = random_testfn(P3, 1, -1, seed=7)
    f = PiAlphaLog(0.8, trivial_character(P3), 0)
    reqs = [SingularIntegralRequest(f, phi, Fr(1, 3**M)) for M in (2, 3)]
    op = SimpleNamespace(run=lambda: [brute_force_oracle(r) for r in reqs])
    assert same_outputs.digest(op, tmp_path, flags=False) is not None
    for drop in (1, 2):  # d, k
        monkeypatch.setattr(singular, "_kept", coarse(drop))
        assert same_outputs.digest(op, tmp_path, flags=False) is None, drop
