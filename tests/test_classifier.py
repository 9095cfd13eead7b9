"""Heisenberg normal forms: soundness, completeness at desk scale, and the
error taxonomy on negative controls."""

import random
from fractions import Fraction as F

import pytest

from aqslie.acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    CLASS_QUASI_SASAKIAN,
    AcmStructure,
    classify_structure,
    conjugate_structure,
)
from aqslie.adapted import adapted_frame
from aqslie.classifier import (
    _center_and_quotient,
    classify_nilpotent_aqs,
    classify_nilpotent_qs,
)
from aqslie.constructors import (
    _rotation,
    abelian,
    su2_plus_abelian,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from aqslie.errors import (
    CenterTooBig,
    InternalContradiction,
    IrrationalSpectrum,
    NonAbelianQuotient,
    NotAqs,
    NotMaximalRank,
    NotNilpotent,
    NotQs,
)
from aqslie.linalg import (
    identity,
    inverse,
    mat_eq,
    mat_mul,
    mat_vec,
    random_unimodular,
    transpose,
    vec_eq,
    vec_scale,
    zeros,
)
from aqslie.lie_core import LieAlgebra, bracket
from aqslie.scalars import Ext, ONE, is_exact, s_abs, s_div, s_eq, s_inv, s_is_zero, s_neg, s_str
from oracles import companion_structures, psi_squared_spectrum, reeb_uniqueness_check


def test_identity_input_is_normal_form_up_to_weight_order():
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    iso = classify_nilpotent_aqs(S1)
    assert iso.family == "4n+1" and iso.n == 2
    assert [s_str(w) for w in iso.weights] == ["2", "1"]
    assert iso.target_phi_index == 2
    # F is a signed permutation: the input is already in normal form up to
    # the ordering of the weights and within-eigenspace companions
    for row in iso.F_mat():
        nz = [x for x in row if not s_is_zero(x)]
        assert len(nz) == 1 and s_eq(s_abs(nz[0]), ONE)


def test_iso_maps_brackets_and_tensors():
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    iso = classify_nilpotent_aqs(S1)
    Fm = iso.F_mat()
    target_L, (t1, t2, t3) = weighted_heisenberg_4n1(2, list(iso.weights))
    for a in range(9):
        for b in range(a + 1, 9):
            lhs = mat_vec(Fm, bracket(S1.L, S1.L.basis_vector(a), S1.L.basis_vector(b)))
            rhs = bracket(target_L, [Fm[r][a] for r in range(9)], [Fm[r][b] for r in range(9)])
            assert vec_eq(lhs, rhs)
    push = mat_mul(Fm, mat_mul(S1.phi_mat(), inverse(Fm)))
    assert mat_eq(push, t2.phi_mat())
    assert mat_eq(mat_mul(transpose(Fm), Fm), S1.g_mat())


def test_conjugated_inputs_classify_with_recovered_weights():
    rng = random.Random(17)
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    for _ in range(5):
        Q = random_unimodular(9, rng)
        Sc = conjugate_structure(S1, Q)
        iso = classify_nilpotent_aqs(Sc)
        assert [s_str(w) for w in iso.weights] == ["2", "1"]


def test_signed_block_permutation_round_trip():
    # a structure-preserving signed block permutation: swap the two weight
    # blocks of h9_(2,2) and flip signs paired under phi1
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [2, 2])
    n = 2
    Q = zeros(9, 9)
    Q[0][0] = F(1)
    for r in range(1, n + 1):
        swap = (r % n) + 1  # 1 <-> 2
        for block in range(4):
            Q[block * n + swap][block * n + r] = F(1)
    Sc = conjugate_structure(S1, Q)
    assert classify_structure(Sc).has(CLASS_ANTI_QUASI_SASAKIAN)
    iso = classify_nilpotent_aqs(Sc)
    assert [s_str(w) for w in iso.weights] == ["2", "2"]


def test_soundness_pushforward_classification_matches():
    rng = random.Random(5)
    _, (S1, _, _) = weighted_heisenberg_4n1(1, [3])
    Q = random_unimodular(5, rng)
    Sc = conjugate_structure(S1, Q)
    iso = classify_nilpotent_aqs(Sc)
    target_L, (t1, t2, t3) = weighted_heisenberg_4n1(iso.n, list(iso.weights))
    src_tags = classify_structure(Sc).tags
    assert classify_structure(t2).tags == src_tags


def test_companions():
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    iso = classify_nilpotent_aqs(S1)
    aqs_c, qs_c = companion_structures(S1, iso)
    assert classify_structure(aqs_c).has(CLASS_ANTI_QUASI_SASAKIAN)
    assert classify_structure(qs_c).has(CLASS_QUASI_SASAKIAN)
    p, p1, p3 = S1.phi_mat(), aqs_c.phi_mat(), qs_c.phi_mat()
    assert mat_eq(mat_mul(p1, p), p3)
    assert mat_eq(mat_mul(p, p1), [[s_neg(x) for x in r] for r in p3])


def test_companions_only_for_4n1():
    from aqslie.errors import PreconditionError

    _, S = weighted_heisenberg_2n1(1, [1])
    iso = classify_nilpotent_qs(S)
    with pytest.raises(PreconditionError):
        companion_structures(S, iso)


def test_central_extension_spectrum_weight():
    from aqslie.constructors import central_extension, standard_kahler
    from aqslie.exterior import KForm

    H = standard_kahler(2)
    w = KForm.make(2, 4, {(0, 1): F(-4), (2, 3): F(4)})
    _, S = central_extension(H, w)
    iso = classify_nilpotent_aqs(S)
    assert [s_str(x) for x in iso.weights] == ["2"]


def test_qs_routes():
    _, S = weighted_heisenberg_2n1(1, [1])
    iso = classify_nilpotent_qs(S)
    assert iso.family == "2n+1" and [s_str(w) for w in iso.weights] == ["1"]
    _, S2 = weighted_heisenberg_2n1(2, [1, 3])
    iso2 = classify_nilpotent_qs(S2)
    assert [s_str(w) for w in iso2.weights] == ["3", "1"]
    assert iso2.phi_signs == (1, 1)


def test_qs_negative_weight_sign_absorbed():
    _, S = weighted_heisenberg_2n1(1, [-2])
    iso = classify_nilpotent_qs(S)
    assert [s_str(w) for w in iso.weights] == ["2"]
    assert iso.phi_signs == (-1,)


def test_qs_conjugated():
    rng = random.Random(3)
    _, S = weighted_heisenberg_2n1(2, [1, 3])
    for _ in range(3):
        Q = random_unimodular(5, rng)
        iso = classify_nilpotent_qs(conjugate_structure(S, Q))
        assert [s_str(w) for w in iso.weights] == ["3", "1"]


def test_qs_on_a_square_root_basis_is_classified_on_its_rescaling():
    # h3 in the basis (sqrt(2) xi, e_1, e_2): a tower qS structure whose rational
    # rescaling is classified, F mapped back to the input's basis
    from aqslie.acm import rational_rescaling, rescaled

    r2 = Ext.of_sqrt(2)
    S = rescaled(weighted_heisenberg_2n1(1, [1])[1], [r2, ONE, ONE], [s_inv(r2), ONE, ONE])
    assert rational_rescaling(S) is not None
    iso = classify_nilpotent_qs(S)
    assert [s_str(w) for w in iso.weights] == ["1"] and iso.phi_signs == (1,)
    assert [[s_str(x) for x in row] for row in iso.F] == [
        ["sqrt(2)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_negative_controls():
    # su(2) (+) R^2: not nilpotent, never a silent wrong answer
    L = su2_plus_abelian()
    phi = zeros(5, 5)
    phi[2][1], phi[1][2] = F(1), F(-1)
    phi[4][3], phi[3][4] = F(1), F(-1)
    S = AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(5))
    with pytest.raises(NotNilpotent):
        classify_nilpotent_aqs(S)
    with pytest.raises(NotNilpotent):
        classify_nilpotent_qs(S)
    # zero-weight Heisenberg: not maximal rank
    _, (Z1, _, _) = weighted_heisenberg_4n1(2, [1, 0])
    with pytest.raises(NotMaximalRank):
        classify_nilpotent_aqs(Z1)
    # abelian cokahler structure: rank 1
    Lab = abelian(5)
    Sab = AcmStructure.make(
        Lab, phi, Lab.basis_vector(0), Lab.basis_vector(0), identity(5)
    )
    with pytest.raises(NotMaximalRank):
        classify_nilpotent_qs(Sab)
    # wrong class for the requested route
    _, (S1, _, S3) = weighted_heisenberg_4n1(1, [1])
    with pytest.raises(NotQs):
        classify_nilpotent_qs(S1)
    with pytest.raises(NotAqs):
        classify_nilpotent_aqs(S3)


def test_reeb_uniqueness():
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    assert reeb_uniqueness_check(S1)
    _, (Z1, _, _) = weighted_heisenberg_4n1(2, [1, 0])
    assert not reeb_uniqueness_check(Z1)
    Lab = abelian(5)
    phi = zeros(5, 5)
    phi[2][1], phi[1][2] = F(1), F(-1)
    phi[4][3], phi[3][4] = F(1), F(-1)
    Sab = AcmStructure.make(
        Lab, phi, Lab.basis_vector(0), Lab.basis_vector(0), identity(5)
    )
    assert not reeb_uniqueness_check(Sab)


def test_weight_cross_check_between_modules():
    # weights equal sqrt(|eigenvalues|) of psi^2 on D (aqS route)
    from aqslie.scalars import s_mul

    _, (S1, _, _) = weighted_heisenberg_4n1(2, [2, 3])
    spec = psi_squared_spectrum(S1)
    iso = classify_nilpotent_aqs(S1)
    eigen_sq = sorted((s_neg(e) for e, _ in spec), key=float, reverse=True)
    for w, e in zip(iso.weights, eigen_sq):
        assert s_eq(s_mul(w, w), e)


# ---------------------------------------------------------------------------
# factored frames T = R Delta and the isomorphism check on M = R^-1
# ---------------------------------------------------------------------------

def old_verify_iso(S, target_L, target_S, F):
    """The isomorphism check written directly on F and F^-1 (the oracle)."""
    L = S.L
    F_inv, F_cols = inverse(F), transpose(F)
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            lhs = mat_vec(F, bracket(L, L.basis_vector(a), L.basis_vector(b)))
            if not vec_eq(lhs, bracket(target_L, F_cols[a], F_cols[b])):
                raise InternalContradiction(
                    f"F is not a Lie algebra morphism at pair ({a + 1}, {b + 1})"
                )
    if not mat_eq(mat_mul(F, mat_mul(S.phi_mat(), F_inv)), target_S.phi_mat()):
        raise InternalContradiction("F does not map phi onto the target structure")
    if not vec_eq(mat_vec(F, S.xi_vec()), target_S.xi_vec()):
        raise InternalContradiction("F does not map xi onto the target Reeb vector")
    if not vec_eq(mat_vec(transpose(F), target_S.eta_row()), S.eta_row()):
        raise InternalContradiction("F does not pull the target eta back to eta")
    if not mat_eq(mat_mul(transpose(F), mat_mul(target_S.g_mat(), F)), S.g_mat()):
        raise InternalContradiction("F is not an isometry onto the target metric")


def _tower_weight_structure():
    # anti-invariant cocycle with |psi^2| eigenvalue 2: weight sqrt(2)
    from aqslie.constructors import central_extension, standard_kahler
    from aqslie.exterior import KForm

    w = KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2), (0, 3): F(2), (1, 2): F(-2)})
    return central_extension(standard_kahler(2), w)[1]


def _factored_frame_inputs():
    _, (h9, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    _, (h13, _, _) = weighted_heisenberg_4n1(3, [1, 2, 3])
    return {
        "h9": conjugate_structure(h9, random_unimodular(9, random.Random(3))),
        "h13": conjugate_structure(h13, random_unimodular(13, random.Random(4))),
        "tower": _tower_weight_structure(),
    }


def test_factored_frame_matches_the_scaled_frame():
    for name, S in _factored_frame_inputs().items():
        frame = adapted_frame(S)
        cols = frame.columns()
        assert all(is_exact(x) and not isinstance(x, Ext) for c in frame.unscaled for x in c)
        for col, unscaled, scale in zip(cols, frame.unscaled, frame.scales):
            assert vec_eq(col, vec_scale(list(unscaled), scale)), name
        T = transpose(cols)
        assert mat_eq(mat_mul(transpose(T), mat_mul(S.g_mat(), T)), identity(S.L.dim)), name
        iso = classify_nilpotent_aqs(S)
        old_F = inverse(T)
        assert [[s_str(x) for x in r] for r in iso.F_mat()] == [[s_str(x) for x in r] for r in old_F]
        target_L, (_, t2, _) = weighted_heisenberg_4n1(iso.n, list(iso.weights))
        old_verify_iso(S, target_L, t2, iso.F_mat())
    assert [s_str(w) for w in iso.weights] == ["sqrt(2)"]


def test_qs_frame_is_orthonormal_with_signed_pairs():
    _, base = weighted_heisenberg_2n1(4, [1, 2, 3, 4])
    S = conjugate_structure(base, random_unimodular(9, random.Random(5)))
    iso = classify_nilpotent_qs(S)
    n, g, phi = iso.n, S.g_mat(), S.phi_mat()
    cols = transpose(inverse(iso.F_mat()))  # the normalized frame F^-1
    assert vec_eq(cols[0], S.xi_vec())
    assert mat_eq(mat_mul(cols, mat_mul(g, transpose(cols))), identity(9))
    for i, sign in enumerate(iso.phi_signs, start=1):
        assert vec_eq(cols[n + i], vec_scale(mat_vec(phi, cols[i]), F(sign)))
    target_L, target_S = weighted_heisenberg_2n1(n, list(iso.weights))
    signed = AcmStructure.make(
        target_L, _rotation(2 * n + 1, [(r, n + r, s) for r, s in enumerate(iso.phi_signs, 1)]),
        target_S.xi_vec(),
        target_S.eta_row(), target_S.g_mat(),
    )
    old_verify_iso(S, target_L, signed, iso.F_mat())


def test_perturbed_M_fails_with_the_message_of_the_check_on_F(monkeypatch):
    import aqslie.classifier as classifier_module

    S0 = _factored_frame_inputs()["h9"]
    frame = adapted_frame(S0)
    R = transpose([list(c) for c in frame.unscaled])
    D = [s_inv(x) for x in frame.scales]
    target_L, (_, t2, _) = weighted_heisenberg_4n1(2, list(frame.weights))
    for a, b in ((0, 0), (3, 5), (8, 2)):
        M = inverse(R)
        M[a][b] += 1
        with pytest.raises(InternalContradiction) as old:
            old_verify_iso(S0, target_L, t2, [vec_scale(row, d) for row, d in zip(M, D)])
        # M = diag(1/q) R^T g is the classifier's one product, _gram_inverse
        monkeypatch.setattr(classifier_module, "_gram_inverse",
                            lambda S, *args, M=M: S.L.values(M)[0])
        S = AcmStructure.make(S0.L, S0.phi_mat(), S0.xi_vec(), S0.eta_row(), S0.g_mat())
        with pytest.raises(InternalContradiction) as new:
            classify_nilpotent_aqs(S)
        assert str(new.value) == str(old.value), (a, b)


def _differential_corpus() -> dict:
    """name -> (family, structure): conjugated aqS h^9, h^13 and qS h^9 over
    several seeds, the square-root weight documents (classified on their
    rational rescalings), the conjugated square-root h^9 that has none, and
    float copies."""
    from aqslie.acm import rational_rescaling
    from floatcopy import float_structure

    h9, h13 = (weighted_heisenberg_4n1(n, w)[1][0] for n, w in ((2, [1, 2]), (3, [1, 2, 3])))
    qs9 = weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1]
    root_weights = [Ext.of_sqrt(2), F(1), F(3, 2) * Ext.of_sqrt(5)]
    cases = {}
    for seed in (1, 2, 7):
        for name, family, S in (("h9", "aqs", h9), ("h13", "aqs", h13), ("qs9", "qs", qs9)):
            Q = random_unimodular(S.L.dim, random.Random(seed))
            cases[f"{name}c-{seed}"] = family, conjugate_structure(S, Q)
    sqrt_h9c = conjugate_structure(weighted_heisenberg_4n1(2, root_weights[:2])[1][0],
                                   random_unimodular(9, random.Random(3)))
    assert rational_rescaling(sqrt_h9c) is None
    cases.update({
        "sqrt-h13": ("aqs", weighted_heisenberg_4n1(3, root_weights)[1][0]),
        "sqrt-h13-companion2": ("aqs", weighted_heisenberg_4n1(3, root_weights)[1][1]),
        "sqrt-qs7": ("qs", weighted_heisenberg_2n1(3, root_weights)[1]),
        "sqrt-h9c": ("aqs", sqrt_h9c),
        "float-h9": ("aqs", float_structure(h9)),
        "float-h13": ("aqs", float_structure(h13)),
        "float-qs9c": ("qs", float_structure(cases["qs9c-2"][1])),
    })
    return cases


def _repr_or_error(family: str, S) -> object:
    classify = classify_nilpotent_aqs if family == "aqs" else classify_nilpotent_qs
    try:
        return repr(classify(S))
    except Exception as exc:  # the same error on both routes
        return type(exc), str(exc)


def test_the_gram_identity_gives_the_isomorphisms_of_elimination(monkeypatch):
    # F = D diag(1/q) R^T g is F = D R^-1 by elimination, repr for repr (float
    # copies bit for bit), and the same error where there is no answer
    from dataclasses import replace

    import aqslie.classifier as classifier_module
    from aqslie.acm import rescaled
    from oracles import eliminated_frame_isomorphism

    def eliminated(S, target_S, columns, lengths, squares):
        scales = [s_div(lengths[0], x) for x in lengths]  # 1 / length in the field of 1
        if not S.L.floats:  # an exact target comes in the basis D_k e_k: back to e_k, g = I
            target_S = replace(rescaled(target_S, scales, lengths), g=target_S.g)
        return eliminated_frame_isomorphism(S, target_S, columns, scales)

    new = {name: _repr_or_error(*case) for name, case in _differential_corpus().items()}
    monkeypatch.setattr(classifier_module, "_frame_isomorphism", eliminated)
    old = {name: _repr_or_error(*case) for name, case in _differential_corpus().items()}
    assert new == old
    assert [name for name, out in new.items() if not isinstance(out, str)] == ["sqrt-qs7"]


def _sheared_frame_outcome() -> list:
    """[error type, message] of the exact classify of a conjugated h^9 whose
    frame has column e_1 added to column e_2 (lengths and squares kept): R is
    no longer g-orthogonal, so diag(1/q) R^T g is not R^-1."""
    import aqslie.classifier as classifier_module
    from dataclasses import replace

    real = classifier_module._frame

    def sheared(*args):
        frame = real(*args)
        cols = [list(c) for c in frame.unscaled]
        cols[2] = [a + b for a, b in zip(cols[2], cols[1])]
        return replace(frame, unscaled=tuple(map(tuple, cols)))

    classifier_module._frame = sheared
    try:
        classify_nilpotent_aqs(_factored_frame_inputs()["h9"])
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    finally:
        classifier_module._frame = real
    return ["no error", ""]


def test_a_frame_that_is_not_g_orthogonal_fails_the_certificate():
    # the isometry check is what proves M = R^-1; it holds under python -O,
    # which strips every assert
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import aqslie

    got = _sheared_frame_outcome()
    assert got[0] == "InternalContradiction" and got[1].startswith("F "), got
    script = ("import json, test_classifier\n"
              "print(json.dumps([__debug__, test_classifier._sheared_frame_outcome()]))")
    path = os.pathsep.join([str(Path(aqslie.__file__).parent.parent), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-O", "-c", script], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert json.loads(run.stdout) == [False, got]


def test_an_exact_classify_makes_no_elimination_and_no_tower_inversion(monkeypatch):
    # the exact frame is inverted by its Gram identity and carries its lengths
    # and their rational squares: no inverse from the classifier, no 1 / Ext
    import aqslie.classifier as classifier_module

    counts = {"inverse": 0, "rtruediv": 0}
    real_inverse, real_rtruediv = classifier_module.inverse, Ext.__rtruediv__

    def inverse_counted(M):
        counts["inverse"] += 1
        return real_inverse(M)

    def rtruediv_counted(x, other):
        counts["rtruediv"] += 1
        return real_rtruediv(x, other)

    monkeypatch.setattr(classifier_module, "inverse", inverse_counted)
    monkeypatch.setattr(Ext, "__rtruediv__", rtruediv_counted)
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    iso = classify_nilpotent_aqs(conjugate_structure(h13, random_unimodular(13, random.Random(1))))
    assert counts == {"inverse": 0, "rtruediv": 0}
    assert any(isinstance(x, Ext) for row in iso.F for x in row)  # the roots are there
    classify_nilpotent_aqs(_factored_frame_inputs()["tower"])
    assert counts == {"inverse": 0, "rtruediv": 0}


@pytest.mark.parametrize("case", ["abelian5-xi-e1", "filiform5-xi-e5"])
def test_center_and_quotient_errors(case):
    # the two ways the center can fail the normal-form pipeline: a center
    # larger than R xi, and xi central but [g, g] not inside R xi
    if case == "abelian5-xi-e1":
        L, k, error = abelian(5), 0, CenterTooBig
    else:  # [e1,e2] = e3, [e1,e3] = e4, [e1,e4] = e5; the center is R e5
        table = {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}, (0, 3): {4: F(1)}}
        L, k, error = LieAlgebra.from_brackets(5, table), 4, NonAbelianQuotient
    e = L.basis_vector(k)
    S = AcmStructure.make(L, zeros(5, 5), e, e, identity(5))
    with pytest.raises(error):
        _center_and_quotient(S)


# ---------------------------------------------------------------------------
# certificate first: the preconditions are checked only to name a failure
# ---------------------------------------------------------------------------

def _rotated(L, k, rotate=True):
    """The structure xi = e_k, eta = e^k, g = I on a dimension-5 algebra, with phi
    the rotation of the other four basis vectors in pairs, or phi = 0 (not an
    acm structure) without rotate."""
    phi, rest = zeros(5, 5), [i for i in range(5) if i != k]
    for a, b in (rest[:2], rest[2:]) if rotate else ():
        phi[b][a], phi[a][b] = F(1), F(-1)
    e = L.basis_vector(k)
    return AcmStructure.make(L, phi, e, e, identity(5))


def _perturbed(S, key, a, b):
    """S with the entry (a, b) of g (kept symmetric) or of phi raised by 1."""
    phi, g = S.phi_mat(), S.g_mat()
    M = g if key == "g" else phi
    M[a][b] += 1
    if M is g:
        g[b][a] = g[a][b]
    return AcmStructure.make(S.L, phi, S.xi_vec(), S.eta_row(), g)


def _error_corpus() -> dict:
    """name -> a builder of a fresh structure (an empty memo): phi_1, phi_2 and
    phi_3 of h^9 and h^13, plain and conjugated, qS h^5 and the square-root h^7,
    the negative controls, the center cases, perturbed tensors and float copies."""
    import aqslie.io as aqio
    from floatcopy import float_doc

    table = {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}, (0, 3): {4: F(1)}}
    filiform = lambda: LieAlgebra.from_brackets(5, table)  # noqa: E731
    root_weights = [Ext.of_sqrt(2), F(1), F(3, 2) * Ext.of_sqrt(5)]
    cases = {}
    for n, weights in ((2, [1, 2]), (3, [1, 2, 3])):
        dim = 4 * n + 1
        for i in range(3):
            cases[f"h{dim}-phi{i + 1}"] = lambda n=n, w=weights, i=i: (
                weighted_heisenberg_4n1(n, w)[1][i])
            cases[f"h{dim}c-phi{i + 1}"] = lambda n=n, w=weights, i=i, d=dim: (
                conjugate_structure(weighted_heisenberg_4n1(n, w)[1][i],
                                    random_unimodular(d, random.Random(d + i))))
    cases.update({
        "qs5": lambda: weighted_heisenberg_2n1(2, [1, 3])[1],
        "qs5c": lambda: conjugate_structure(weighted_heisenberg_2n1(2, [1, 3])[1],
                                            random_unimodular(5, random.Random(2))),
        "sqrt-qs7": lambda: weighted_heisenberg_2n1(3, root_weights)[1],
        "su2+R2": lambda: _rotated(su2_plus_abelian(), 0),
        "zero-weight": lambda: weighted_heisenberg_4n1(2, [1, 0])[1][0],
        "abelian5-xi-e1": lambda: _rotated(abelian(5), 0, rotate=False),
        "abelian5-xi-e1-phi": lambda: _rotated(abelian(5), 0),
        "filiform5-xi-e5": lambda: _rotated(filiform(), 4, rotate=False),
        "filiform5-xi-e5-phi": lambda: _rotated(filiform(), 4),
    })
    h9c = cases["h9c-phi1"]
    cases.update({"h9c-g": lambda: _perturbed(h9c(), "g", 1, 1),
                  "h9c-g-offdiagonal": lambda: _perturbed(h9c(), "g", 2, 5),
                  "h9c-phi": lambda: _perturbed(h9c(), "phi", 3, 6)})
    for name in ("h9-phi1", "h9c-phi1", "h9c-phi3", "h13c-phi2", "qs5c", "su2+R2",
                 "zero-weight", "h9c-g"):
        cases[f"float-{name}"] = lambda exact=cases[name]: aqio.structure_from_json(
            float_doc(aqio.structure_to_json(exact())))[0]
    return cases


def _outcome(classify, S) -> tuple:
    """The HeisenbergIso fields as strings, or the error's type and message."""
    try:
        iso = classify(S)
    except Exception as exc:  # any error must be the oracle's, type and message
        return type(exc), str(exc)
    return (iso.family, iso.n, [s_str(w) for w in iso.weights],
            [[s_str(x) for x in row] for row in iso.F], iso.phi_signs, iso.target_phi_index)


@pytest.mark.parametrize("family", ["aqs", "qs"])
def test_certificate_first_gives_the_answers_and_errors_of_the_precondition_gate(family):
    from oracles import precondition_first

    classify = classify_nilpotent_aqs if family == "aqs" else classify_nilpotent_qs
    kinds = set()
    for name, build in _error_corpus().items():
        got = _outcome(classify, build())
        assert got == _outcome(lambda S: precondition_first(S, family), build()), name
        kinds.add(got[0].__name__ if isinstance(got[0], type) else got[0])
    # the corpus reaches an answer and every error of the route; the center
    # cases stop at an earlier gate on both routes, as nothing of maximal rank
    # has a center larger than R xi
    route = {"4n+1", "NotAqs"} if family == "aqs" else {"2n+1", "NotQs", "IrrationalSpectrum"}
    assert kinds == route | {"NotNilpotent", "NotMaximalRank", "InvalidStructure",
                             "ToleranceExceeded"}, kinds


def test_an_exact_normal_form_runs_no_precondition_check(monkeypatch):
    # an exact answer is proved by its isomorphism alone: no classification,
    # rank, lower central series, center, Killing check or operator identity
    # suite runs on the way; a failing input runs them in the gate's order,
    # and a float input before its frame
    import aqslie.acm as acm
    import aqslie.adapted as adapted
    import aqslie.classifier as classifier
    import aqslie.lie_core as lie_core
    from floatcopy import float_structure

    calls = []
    for name in ("classify_structure", "structure_rank", "lower_central_series", "center",
                 "xi_killing_check", "operators_A_psi"):
        for module in (acm, adapted, classifier, lie_core):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, real=real, name=name: (
                    calls.append(name) or real(*a)))
    h13, qs9 = weighted_heisenberg_4n1(3, [1, 2, 3])[1], weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1]
    classify_nilpotent_aqs(conjugate_structure(h13[0], random_unimodular(13, random.Random(7))))
    classify_nilpotent_qs(conjugate_structure(qs9, random_unimodular(9, random.Random(5))))
    assert calls == []
    with pytest.raises(NotAqs):
        classify_nilpotent_aqs(h13[2])
    assert calls == ["lower_central_series", "classify_structure"]
    calls.clear()
    classify_nilpotent_aqs(float_structure(h13[0]))
    gate = ["classify_structure", "structure_rank"]  # adapted_frame's own, read off the memo
    assert calls == ["lower_central_series", *gate, "xi_killing_check", "center",
                     "lower_central_series", *gate, "operators_A_psi"]


def test_an_off_weight_target_fails_the_certificate(monkeypatch):
    # with no check before the frame, the certificate is what refuses a wrong
    # target: the first weight of h^{4n+1} doubled is a bracket pair that fails
    import aqslie.classifier as classifier

    real = classifier.weighted_heisenberg_4n1
    monkeypatch.setattr(classifier, "weighted_heisenberg_4n1",
                        lambda n, w: real(n, [w[0] * 2, *w[1:]]))
    for S in _factored_frame_inputs().values():
        with pytest.raises(InternalContradiction,
                           match=r"^F is not a Lie algebra morphism at pair \(\d+, \d+\)$"):
            classify_nilpotent_aqs(S)


def test_the_frame_basis_target_is_the_rescaled_target(monkeypatch):
    # the exact target built in the basis D_k e_k (scaled weights, phi and xi, eta
    # unchanged, metric diag(q)) is, entry for entry, the standard target rewritten
    # there by acm.rescaled, for aqS and signed qS targets
    import aqslie.classifier as classifier_module
    from oracles import rescaled_target

    seen = []
    real_frame, real_verify = classifier_module._frame_isomorphism, classifier_module._verify_iso

    def frame(S, target_S, columns, lengths, squares):
        seen.append((lengths, squares))
        return real_frame(S, target_S, columns, lengths, squares)

    monkeypatch.setattr(classifier_module, "_frame_isomorphism", frame)
    monkeypatch.setattr(classifier_module, "_verify_iso",
                        lambda S, target, *a: seen.append(target) or real_verify(S, target, *a))
    compared = []
    for name, (family, S) in _differential_corpus().items():
        seen.clear()
        try:
            iso = (classify_nilpotent_aqs if family == "aqs" else classify_nilpotent_qs)(S)
        except IrrationalSpectrum:
            continue
        if S.L.floats:
            continue
        (lengths, squares), target = seen
        want = rescaled_target(family, iso.n, list(iso.weights), list(iso.phi_signs),
                               lengths, squares)
        assert target.L == want.L and repr(target.L.brackets) == repr(want.L.brackets), name
        for tensor in ("phi", "xi", "eta", "g"):
            assert repr(getattr(target, tensor)) == repr(getattr(want, tensor)), (name, tensor)
        compared.append(name)
    assert len(compared) == 12 and "qs9c-7" in compared and "sqrt-h9c" in compared


def test_an_exact_classify_reads_the_table_and_builds_its_target_rational(monkeypatch):
    # no ad matrix (d eta and the pair brackets are read off the table), no
    # acm.rescaled from the classifier, and no Ext product while the target is built
    import inspect

    import aqslie.acm as acm
    import aqslie.classifier as classifier_module
    import aqslie.scalars as scalars

    counts = {"ad_values": 0, "rescaled": 0, "target Ext products": 0}
    building = []
    real_ad_values, real_rescaled, real_product = (LieAlgebra.ad_values, acm.rescaled,
                                                   scalars._product)
    real_target, real_verify = (classifier_module.weighted_heisenberg_4n1,
                                classifier_module._verify_iso)

    def ad_values(L, *mats):
        counts["ad_values"] += 1
        return real_ad_values(L, *mats)

    def rescaled(*args):
        caller = inspect.currentframe().f_back.f_globals["__name__"]
        counts["rescaled"] += caller == "aqslie.classifier"
        return real_rescaled(*args)

    def product(a, b):
        counts["target Ext products"] += bool(building)
        return real_product(a, b)

    def target(n, w):
        building.append(1)
        return real_target(n, w)

    def verify(*args):
        building.clear()  # the target is built: F = D M multiplies by the roots
        return real_verify(*args)

    monkeypatch.setattr(LieAlgebra, "ad_values", ad_values)
    monkeypatch.setattr(acm, "rescaled", rescaled)
    monkeypatch.setattr(scalars, "_product", product)
    monkeypatch.setattr(classifier_module, "weighted_heisenberg_4n1", target)
    monkeypatch.setattr(classifier_module, "_verify_iso", verify)
    assert not hasattr(classifier_module, "rescaled")
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    iso = classify_nilpotent_aqs(conjugate_structure(h13, random_unimodular(13, random.Random(1))))
    assert counts == {"ad_values": 0, "rescaled": 0, "target Ext products": 0}
    assert any(isinstance(x, Ext) for row in iso.F for x in row)  # the roots are in F
    # the square-root weight h13 runs on its rational rescaling, which acm makes
    sqrt_h13 = weighted_heisenberg_4n1(3, [Ext.of_sqrt(2), F(1), F(3, 2) * Ext.of_sqrt(5)])[1][0]
    classify_nilpotent_aqs(sqrt_h13)
    assert counts == {"ad_values": 0, "rescaled": 0, "target Ext products": 0}
