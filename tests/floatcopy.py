"""Float-mode copies of exact structures, shared by the float tests.

Two routes give the same float structure (``test_float_mode`` checks this):
``float_doc`` re-declares a JSON structure document in float mode
(``float_algebra_doc`` an algebra document), for tests
that go through the parser or the CLI; ``float_structure`` rebuilds an
``AcmStructure`` on ``float_algebra``, the algebra rebuilt from
``LieAlgebra.table()`` without a Jacobi check, for tests on float inputs that
the parser's check would reject.  Every rational scalar
becomes the float nearest to it.
"""

from fractions import Fraction

from aqslie.acm import AcmStructure
from aqslie.lie_core import LieAlgebra


def _floatify(v):
    if isinstance(v, str):
        return repr(float(Fraction(v)))
    if isinstance(v, list):
        return [_floatify(x) for x in v]
    return {k: _floatify(x) for k, x in v.items()}


def float_algebra_doc(doc: dict) -> dict:
    """The exact algebra document re-declared in float mode (fresh lists)."""
    brackets = [dict(rec, coeffs=_floatify(rec["coeffs"])) for rec in doc["brackets"]]
    return dict(doc, mode="float", brackets=brackets)


def float_doc(doc: dict) -> dict:
    """The exact structure document re-declared in float mode (fresh lists)."""
    out = float_algebra_doc(doc)
    for key in ("phi", "xi", "eta", "metric"):
        out[key] = _floatify(doc[key])
    return out


def float_algebra(L: LieAlgebra) -> LieAlgebra:
    """L with every structure constant converted to float, in float mode."""
    table = {p: {k: float(v) for k, v in e.items()} for p, e in L.table().items()}
    return LieAlgebra.from_brackets(L.dim, table, list(L.basis_names), mode="float",
                                    check=False)


def float_structure(S: AcmStructure) -> AcmStructure:
    """S with every scalar converted to float, in a float-mode algebra."""
    rows = lambda M: [[float(x) for x in r] for r in M]  # noqa: E731
    return AcmStructure.make(float_algebra(S.L), rows(S.phi), [float(x) for x in S.xi],
                             [float(x) for x in S.eta], rows(S.g))
