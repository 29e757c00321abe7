"""Shared test settings and fixtures.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which runs ten times
the default number of examples in every property test that does not fix
its own ``max_examples``.
"""

import os

import pytest
from hypothesis import settings

from dipm import linalg

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def mismatched_inverses(monkeypatch):
    """Factor a handle's matrices again with the inverses of some of them halved.

    ``mismatched_inverses(f, rows)`` builds a handle of ``f``'s class on
    ``f``'s matrices whose stored inverse of each matrix in ``rows`` is half
    the computed one, as a faulty factorization would leave it: the stored
    matrix no longer matches its inverse. The handle's certificate is
    computed from the faulty inverses and does not cover those matrices,
    so every solve of the stack runs the full residual check.
    """
    def build(f, rows):
        spd_inverse = linalg._spd_inverse
        calls = []

        def faulty(M):
            inv = spd_inverse(M)
            calls.append(None)
            if len(calls) == 1:   # G's inverse; a Schur complement's comes second
                inv[rows] *= 0.5
            return inv

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_spd_inverse", faulty)
            return type(f)(f.G, f.A)

    return build
