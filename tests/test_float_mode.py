"""Float mode: the same pipelines under the global tolerance."""

import json

import pytest

import aqslie.io as aqio
from aqslie.acm import classify_structure, curvature
from aqslie.adapted import adapted_frame, psi_squared_spectrum
from aqslie.classifier import classify_nilpotent_aqs
from aqslie.constructors import weighted_heisenberg_4n1
from aqslie.scalars import get_tolerance, set_tolerance


def _float_structure_doc(n, weights):
    """The 4n+1 structure re-serialized with float scalars."""
    _, (S1, _, _) = weighted_heisenberg_4n1(n, weights)
    doc = aqio.structure_to_json(S1)
    text = aqio.dumps(doc).replace('"mode": "exact"', '"mode": "float"')
    doc = aqio.loads(text)

    def floatify(v):
        if isinstance(v, str):
            try:
                from fractions import Fraction

                return repr(float(Fraction(v)))
            except ValueError:
                return v
        if isinstance(v, list):
            return [floatify(x) for x in v]
        if isinstance(v, dict):
            return {k: floatify(x) for k, x in v.items()}
        return v

    for key in ("phi", "xi", "eta", "metric"):
        doc[key] = floatify(doc[key])
    doc["brackets"] = floatify(doc["brackets"])
    return doc


def test_float_structure_classifies():
    doc = _float_structure_doc(2, [1, 2])
    S, _ = aqio.structure_from_json(doc)
    assert isinstance(S.phi[1][1], float)
    assert classify_structure(S).has("AntiQuasiSasakian")
    spec = psi_squared_spectrum(S)
    assert [(round(float(e), 9), m) for e, m in spec] == [(-4.0, 4), (-1.0, 4)]
    fr = adapted_frame(S)
    assert [round(float(w), 9) for w in fr.weights] == [2.0, 1.0]
    iso = classify_nilpotent_aqs(S)
    assert [round(float(w), 9) for w in iso.weights] == [2.0, 1.0]


def test_float_non_identity_metric_spectrum():
    # conjugated structure: g = Q^T Q != I, so psi^2 is only g-symmetric
    # and the float spectrum must come from the generalized eigenproblem
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.linalg import random_unimodular

    rng = random.Random(5)
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    Q = random_unimodular(9, rng)
    Sc = conjugate_structure(S1, Q)
    doc = aqio.structure_to_json(Sc)
    text = aqio.dumps(doc).replace('"mode": "exact"', '"mode": "float"')
    doc = aqio.loads(text)

    def floatify(v):
        if isinstance(v, str):
            try:
                from fractions import Fraction

                return repr(float(Fraction(v)))
            except ValueError:
                return v
        if isinstance(v, list):
            return [floatify(x) for x in v]
        if isinstance(v, dict):
            return {k: floatify(x) for k, x in v.items()}
        return v

    for key in ("phi", "xi", "eta", "metric", "brackets"):
        doc[key] = floatify(doc[key])
    Sf, _ = aqio.structure_from_json(doc)
    assert any(abs(float(Sf.g[i][j])) > 1e-9 for i in range(9) for j in range(9) if i != j)
    spec = psi_squared_spectrum(Sf)
    assert [(round(float(e), 6), m) for e, m in spec] == [(-4.0, 4), (-1.0, 4)]
    iso = classify_nilpotent_aqs(Sf)
    assert [round(float(w), 6) for w in iso.weights] == [2.0, 1.0]


def test_float_qs_route_non_identity_metric():
    # same generalized-eigenproblem path for the quasi-Sasakian classifier;
    # harsh conjugations inflate entries to ~1e3, so the honest remedy at
    # fixed absolute tolerance is a commensurate tau
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.classifier import classify_nilpotent_qs
    from aqslie.constructors import weighted_heisenberg_2n1
    from aqslie.linalg import random_unimodular

    rng = random.Random(8)
    _, S = weighted_heisenberg_2n1(2, [1, 3])
    Q = random_unimodular(5, rng)
    Sc = conjugate_structure(S, Q)
    doc = aqio.structure_to_json(Sc)
    text = aqio.dumps(doc).replace('"mode": "exact"', '"mode": "float"')
    doc = aqio.loads(text)

    def floatify(v):
        if isinstance(v, str):
            try:
                from fractions import Fraction

                return repr(float(Fraction(v)))
            except ValueError:
                return v
        if isinstance(v, list):
            return [floatify(x) for x in v]
        if isinstance(v, dict):
            return {k: floatify(x) for k, x in v.items()}
        return v

    for key in ("phi", "xi", "eta", "metric", "brackets"):
        doc[key] = floatify(doc[key])
    Sf, _ = aqio.structure_from_json(doc)
    old = get_tolerance()
    try:
        set_tolerance(1e-7)
        iso = classify_nilpotent_qs(Sf)
        assert [round(float(w), 6) for w in iso.weights] == [3.0, 1.0]
    finally:
        set_tolerance(old)


def test_float_curvature_within_tolerance():
    doc = _float_structure_doc(1, [1])
    S, _ = aqio.structure_from_json(doc)
    data = curvature(S)
    assert abs(float(data.scalar) + 4.0) <= 1e-9


def test_tolerance_absorbs_small_noise():
    doc = _float_structure_doc(1, [1])
    # inject noise below the default tolerance
    doc["phi"][2][1] = repr(float(doc["phi"][2][1]) + 2e-10)
    S, _ = aqio.structure_from_json(doc)
    assert classify_structure(S).has("AntiQuasiSasakian")


def test_tolerance_flags_large_noise():
    doc = _float_structure_doc(1, [1])
    doc["phi"][2][1] = repr(float(doc["phi"][2][1]) + 1e-4)
    S, _ = aqio.structure_from_json(doc)
    from aqslie.acm import validate_acm

    assert not validate_acm(S).passed


def test_tolerance_is_configurable():
    old = get_tolerance()
    try:
        set_tolerance(1e-2)
        doc = _float_structure_doc(1, [1])
        doc["phi"][2][1] = repr(float(doc["phi"][2][1]) + 1e-4)
        S, _ = aqio.structure_from_json(doc)
        from aqslie.acm import validate_acm

        assert validate_acm(S).passed
    finally:
        set_tolerance(old)


def test_cli_float_rounding_beyond_tolerance_is_a_precondition(tmp_path, capsys):
    # conjugation by random_unimodular(9, Random(1)) grows the metric entries
    # to a few hundred; float rounding in the Koszul solve then exceeds the
    # absolute default tolerance, which is a limit of the input (exit 3),
    # not a contradiction in the theory (exit 4)
    import random
    from fractions import Fraction

    from aqslie.acm import conjugate_structure
    from aqslie.cli import main
    from aqslie.linalg import random_unimodular

    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    Sc = conjugate_structure(S1, random_unimodular(9, random.Random(1)))
    text = aqio.dumps(aqio.structure_to_json(Sc)).replace('"mode": "exact"', '"mode": "float"')
    doc = aqio.loads(text)

    def floatify(v):
        if isinstance(v, str):
            return repr(float(Fraction(v)))
        if isinstance(v, list):
            return [floatify(x) for x in v]
        return {k: floatify(x) for k, x in v.items()}

    for key in ("phi", "xi", "eta", "metric"):
        doc[key] = floatify(doc[key])
    for rec in doc["brackets"]:
        rec["coeffs"] = floatify(rec["coeffs"])
    path = tmp_path / "h9_float.json"
    path.write_text(aqio.dumps(doc), "utf-8")
    old = get_tolerance()
    try:
        for command in ("classify", "curvature"):
            assert main([command, str(path), "--json"]) == 3
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["code"] == "ToleranceExceeded"
            assert error["family"] == "precondition"
            assert "absolute tolerance 1e-09" in error["message"]
            assert "--tolerance" in error["message"]
        # the remedy the message names
        assert main(["classify", str(path), "--json", "--tolerance", "1e-6"]) == 0
        capsys.readouterr()
    finally:
        set_tolerance(old)


def _floatified(doc: dict) -> dict:
    """An exact structure document re-declared in float mode."""
    from fractions import Fraction

    def floatify(v):
        if isinstance(v, str):
            return repr(float(Fraction(v)))
        if isinstance(v, list):
            return [floatify(x) for x in v]
        return {k: floatify(x) for k, x in v.items()}

    out = dict(doc, mode="float")
    for key in ("phi", "xi", "eta", "metric"):
        out[key] = floatify(doc[key])
    out["brackets"] = [dict(rec, coeffs=floatify(rec["coeffs"])) for rec in doc["brackets"]]
    return out


def test_cli_float_isomorphism_certificate_beyond_tolerance_is_a_precondition(tmp_path, capsys):
    # the same conjugated float h9 at --tolerance 1e-7 passes the Koszul
    # certificates but not the isomorphism check: rounding again, so exit 3
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.cli import main
    from aqslie.linalg import random_unimodular

    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    doc = aqio.structure_to_json(conjugate_structure(S1, random_unimodular(9, random.Random(1))))
    path = tmp_path / "h9_float.json"
    path.write_text(aqio.dumps(_floatified(doc)), "utf-8")
    old = get_tolerance()
    try:
        assert main(["classify", str(path), "--json", "--tolerance", "1e-7"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "ToleranceExceeded"
        assert error["message"].startswith("F is not a Lie algebra morphism")
        assert "absolute tolerance 1e-07" in error["message"]
        assert "--tolerance" in error["message"]
    finally:
        set_tolerance(old)
