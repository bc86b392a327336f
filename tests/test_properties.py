"""Property tests with shrinking; they need hypothesis and skip without it."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from exactcat import resolutions  # noqa: E402
from exactcat.complexes import _certified, is_acyclic  # noqa: E402
from exactcat.intlinalg import IntMatrix  # noqa: E402
from exactcat.models import fgab, iso_invariants  # noqa: E402
from exactcat.resolutions import projective_resolution  # noqa: E402


@st.composite
def presentations(draw, max_gens=3, max_rels=3, bound=6):
    ngens = draw(st.integers(0, max_gens))
    nrels = draw(st.integers(0, max_rels))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=nrels,
                                  max_size=nrels), min_size=ngens, max_size=ngens))
    return fgab().object(ngens, IntMatrix.from_rows(rows, cols=nrels))


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_resolution_certificate_verifies_and_agrees_with_is_acyclic(a):
    made = []

    def spy(x, epics, monics):
        made.append(_certified(x, epics, monics))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolutions, "_certified", spy)
        res = projective_resolution(a)
    assert not res.truncated and len(made) == 1
    cert, x = made[0], res.augmented_complex()
    oracle = is_acyclic(x)
    assert cert is not None and oracle is not None
    for n in range(x.lo, x.hi + 2):
        assert iso_invariants(cert.z_object(n)) == iso_invariants(oracle.z_object(n))
