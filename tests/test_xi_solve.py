"""psi = -nabla xi from one Koszul solve along xi.

On an exact numerator view ``acm.psi_matrix`` solves 2 g nabla xi =
-(g ad_xi + ad_xi^T g) + E, E_kj = eta([b_k, b_j]); a float view builds only
the table rows Gamma_a b_k for k in the support of xi and folds them on xi.
Both certify the symmetric part of g psi against -L_xi g and its skew part
against d eta, and neither builds the Levi-Civita table.  The solve is
compared by repr with the table's psi (``oracles.stage_operators``) on a
structure whose xi is not Killing, its conjugates, per-scalar tower
structures, and conjugations whose tensors or ad matrices are over 4 or 3;
the float rows with psi read off the whole table (``oracles.table_psi``).
"""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import aqslie.acm as acm
import aqslie.io as aqio
from aqslie.acm import AcmStructure, conjugate_structure, numerator_view, operators_A_psi
from aqslie.acm import psi_matrix
from aqslie.constructors import weighted_heisenberg_2n1, weighted_heisenberg_4n1
from aqslie.errors import InternalContradiction
from aqslie.lie_core import LieAlgebra
from aqslie.linalg import identity, random_unimodular, zeros
from aqslie.scalars import DEFAULT_TOLERANCE, Ext, set_tolerance
from floatcopy import float_structure
from oracles import stage_operators, table_psi, value_like
from test_payload_digests import EXPECTED, SQRT_WEIGHTS, _conjugated, _outcome, _run

TOWER_WEIGHTS = [Ext.of_sqrt(2), F(1), F(3, 2) * Ext.of_sqrt(5)]


def _not_killing():
    # [xi, b_1] = b_1 with g = I: L_xi g != 0, the term every classify input lacks
    L = LieAlgebra.from_brackets(3, {(0, 1): {1: 1}}, check=True)
    phi = zeros(3, 3)
    phi[2][1], phi[1][2] = F(1), F(-1)
    return AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(3))


def _h9():
    return weighted_heisenberg_4n1(2, [1, 2])[1][0]


CASES = {
    "not-killing": _not_killing,
    **{f"not-killing-c{seed}": (lambda seed=seed: conjugate_structure(
        _not_killing(), random_unimodular(3, random.Random(seed)))) for seed in (1, 2, 3)},
    "sqrt-qs7": lambda: weighted_heisenberg_2n1(3, TOWER_WEIGHTS)[1],
    "sqrt-h13-companion2": lambda: weighted_heisenberg_4n1(3, TOWER_WEIGHTS)[1][2],
    # a change of basis of determinant 1/2: the tensors are over 4
    "h9h": lambda: conjugate_structure(_h9(), [
        [x / 2 if i == 0 else x for x in row]
        for i, row in enumerate(random_unimodular(9, random.Random(3)))]),
    # a weight 1/3: the ad matrices are over 3
    "h9-third-c5": lambda: conjugate_structure(weighted_heisenberg_4n1(
        2, [F(1, 3), F(1)])[1][0], random_unimodular(9, random.Random(5))),
}


def _rep(M):
    return [list(map(repr, row)) for row in M]


@pytest.mark.parametrize("name", sorted(CASES))
def test_xi_solve_matches_the_table(name):
    S = CASES[name]()
    assert _rep(psi_matrix(S).mat()) == _rep(stage_operators(S)[1])
    assert "connection" not in S._memo
    assert acm.xi_killing_check(S) != name.startswith("not-killing")


@pytest.mark.parametrize("name", ["h5", "not-killing"])
def test_xi_solve_certificate_catches_a_corrupted_numerator(name, monkeypatch):
    # one more in one entry of the solved block g^-1 (-K): g psi is no longer
    # (L_xi g + d eta) / 2, on h5 (d eta != 0) and on the non-Killing structure
    S = weighted_heisenberg_4n1(1, [1])[1][0] if name == "h5" else CASES[name]()
    real = acm.mat_solve

    def corrupting(A, B):
        X = real(A, B)
        N = [list(row) for row in X.N]
        N[1][2] += 1
        return value_like(X, N)

    monkeypatch.setattr(acm, "mat_solve", corrupting)
    with pytest.raises(InternalContradiction, match="Koszul solve along xi"):
        psi_matrix(S)


def test_exact_classifies_build_no_connection_table(tmp_path, monkeypatch):
    # every exact classify input of the digest corpus, with the table gone:
    # the same exit codes and payload digests
    calls = []

    def no_table(S):
        calls.append(S)
        raise AssertionError("levi_civita called on an exact classify")

    files = {}

    def write(key, doc):
        files[key] = str(tmp_path / f"{key}.json")
        Path(files[key]).write_text(aqio.dumps(doc), "utf-8")

    _, (h9, h9b, h9c) = weighted_heisenberg_4n1(2, [1, 2])
    write("h9", aqio.structure_to_json(h9, companions=[h9b.phi_mat(), h9c.phi_mat()]))
    write("h9c1", aqio.structure_to_json(_conjugated(h9, 1)))
    write("h13c2", aqio.structure_to_json(_conjugated(
        weighted_heisenberg_4n1(3, [1, 2, 3])[1][0], 2)))
    write("qs9c1", aqio.structure_to_json(_conjugated(
        weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1], 1)))
    for key, family in (("sqrt13", "4n1"), ("sqrt7", "2n1")):
        _, report = _run(["construct", "heisenberg", "--dim-family", family,
                             "--weights", SQRT_WEIGHTS])
        write(key, report["payload"]["document"])
    monkeypatch.setattr(acm, "levi_civita", no_table)
    for key in ("h9", "h9c1", "h13c2", "qs9c1", "sqrt13", "sqrt7"):
        assert _outcome(*_run(["classify", files[key]])) == EXPECTED[f"classify-{key}"], key
    assert calls == []


def _exact_xi(S):
    # the float tensors with xi the exact basis vector: ONE and ZERO among floats
    F = float_structure(S)
    return AcmStructure.make(F.L, F.phi_mat(), S.L.basis_vector(0), F.eta_row(), F.g_mat())


def _h(n, weights):
    return weighted_heisenberg_4n1(n, weights)[1][0]


FLOAT_CASES = {
    "h5": lambda: float_structure(_h(1, [1])),
    "h9": lambda: float_structure(_h9()),
    "h13": lambda: float_structure(_h(3, [1, 2, 3])),
    **{f"f9c{seed}": (lambda seed=seed: float_structure(_conjugated(_h9(), seed)))
       for seed in (1, 2, 3)},
    "qs7": lambda: float_structure(weighted_heisenberg_2n1(3, [1, 2, 3])[1]),
    "qs9c1": lambda: float_structure(_conjugated(weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1], 1)),
    "exact-xi-h9": lambda: _exact_xi(_h9()),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
def test_a_float_view_reads_psi_off_the_rows_along_xi(name):
    # bit for bit the psi of the whole table, with no table in the memo; the
    # conjugations certify at 1e-6, as the digest entry f9c1 does
    S, reference = FLOAT_CASES[name](), FLOAT_CASES[name]()
    set_tolerance(1e-6)
    try:
        assert _rep(psi_matrix(S).mat()) == _rep(table_psi(reference).mat())
        operators_A_psi(S)
    finally:
        set_tolerance(DEFAULT_TOLERANCE)
    assert "connection" not in S._memo and "connection" in reference._memo
    exact = {type(x) is not float for x in numerator_view(S).xi.N[0]}
    assert exact == {name == "exact-xi-h9"}
