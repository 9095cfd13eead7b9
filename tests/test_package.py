"""Source-level guards on the installed package."""

import ast
import json
import re
import sys
from pathlib import Path

import aqslie


def test_no_assert_statements_in_package():
    # python -O strips assert statements, and with them any certificate
    # written as one; checks must raise a taxonomy error instead
    sources = sorted(Path(aqslie.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _payloads(argvs: list) -> list:
    """[exit code, canonical payload JSON] of each in-process CLI call."""
    import contextlib
    import io

    from aqslie.cli import main
    from aqslie.scalars import DEFAULT_TOLERANCE, set_tolerance

    out = []
    for argv in argvs:
        set_tolerance(DEFAULT_TOLERANCE)  # --tolerance sets it globally
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(argv)
        report = json.loads(text.getvalue())
        out.append([code, report["error"] and report["error"]["code"],
                    json.dumps(report["payload"], sort_keys=True, separators=(",", ":"))])
    return out


def _under_O(name: str, argvs: list) -> list:
    """What the function name of this module returns on argvs when python -O,
    which strips every assert, runs it in a fresh process."""
    import os
    import subprocess

    script = ("import json, sys\nimport test_package\n"
              f"print(json.dumps([__debug__, test_package.{name}(json.loads(sys.argv[1]))]))")
    path = os.pathsep.join([str(Path(aqslie.__file__).parent.parent), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(argvs)], check=True,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    debug, out = json.loads(run.stdout)
    assert debug is False
    return out


def _off_weight_errors(argvs: list) -> list:
    """[exit code, error code, message] of each in-process CLI call while the
    classifier builds its aqS target with the first weight doubled."""
    import contextlib
    import io

    import aqslie.classifier as classifier
    from aqslie.cli import main

    real, out = classifier.weighted_heisenberg_4n1, []
    classifier.weighted_heisenberg_4n1 = lambda n, w: real(n, [w[0] * 2, *w[1:]])
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = main(argv)
            error = json.loads(text.getvalue())["error"]
            out.append([code, error["code"], error["message"]])
    finally:
        classifier.weighted_heisenberg_4n1 = real
    return out


def test_an_off_weight_target_fails_the_certificate_under_python_O(tmp_path):
    # no precondition check runs before the frame of an exact input: the
    # isomorphism certificate alone stands between a wrong target and an
    # answer, and it is a raise, which python -O keeps
    import random

    import aqslie.io as aqio
    from aqslie.acm import conjugate_structure
    from aqslie.constructors import weighted_heisenberg_4n1
    from aqslie.linalg import random_unimodular

    h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    h9c = conjugate_structure(h9, random_unimodular(9, random.Random(3)))
    argvs = []
    for key, S in (("h9", h9), ("h9c", h9c)):
        path = tmp_path / f"{key}.json"
        path.write_text(aqio.dumps(aqio.structure_to_json(S)), "utf-8")
        argvs.append(["classify", str(path), "--json"])
    here = _off_weight_errors(argvs)
    assert [(code, name) for code, name, _ in here] == [(4, "InternalContradiction")] * 2
    assert all(re.fullmatch(r"F is not a Lie algebra morphism at pair \(\d+, \d+\)", message)
               for _, _, message in here)
    assert _under_O("_off_weight_errors", argvs) == here


def test_certificates_survive_python_O(tmp_path):
    # the same classify and curvature payloads and errors, byte for byte, when
    # python -O has stripped every assert: of h9, of its float copy and of the
    # square-root-weight qS h7, which does not rescale and runs per scalar; and
    # the classify of a conjugated h13, whose eigenvalues come from a Krylov
    # minimal polynomial certified by raises (a repeated root, eigenspaces
    # that do not span)
    import random

    import aqslie.io as aqio
    from aqslie.acm import conjugate_structure
    from aqslie.constructors import weighted_heisenberg_2n1, weighted_heisenberg_4n1
    from aqslie.linalg import random_unimodular
    from aqslie.scalars import parse_scalar
    from floatcopy import float_doc

    doc = aqio.structure_to_json(weighted_heisenberg_4n1(2, [1, 2])[1][0])
    sqrt_weights = [parse_scalar(w) for w in ("sqrt(2)", "1", "3/2*sqrt(5)")]
    sqrt7 = aqio.structure_to_json(weighted_heisenberg_2n1(3, sqrt_weights)[1])
    h13c = aqio.structure_to_json(conjugate_structure(
        weighted_heisenberg_4n1(3, [1, 2, 3])[1][0], random_unimodular(13, random.Random(7))))
    argvs = []
    for key, d in (("h9", doc), ("f9", float_doc(doc)), ("s7", sqrt7), ("h13c", h13c)):
        path = tmp_path / f"{key}.json"
        path.write_text(aqio.dumps(d), "utf-8")
        commands = ("classify",) if key == "h13c" else ("classify", "curvature")
        argvs += [[command, str(path), "--json"] for command in commands]
    here, there = _payloads(argvs), _under_O("_payloads", argvs)
    # the qS h7's classify ends in its typed error: the minimal polynomial of
    # a vector under the rational matrix of A = phi psi does not split
    assert [code for code, _, _ in here] == [0, 0, 0, 0, 3, 0, 0]
    assert here[4][1] == "IrrationalSpectrum"
    assert '"weights":["3","2","1"]' in here[6][2]
    assert there == here


def test_package_imports_only_itself_and_the_standard_library():
    # the runtime is stdlib-only; sympy, numpy and the like are test-side
    sources = sorted(Path(aqslie.__file__).parent.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"aqslie"}
            ]
    assert offenders == []


def _callee(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_basis_ad_matrices_come_from_the_structure_constants():
    # ad_{b_i} has one reader of the table, LieAlgebra.ad_values();
    # ad_matrix(L, L.basis_vector(i)) would rebuild it from n brackets
    sources = sorted(Path(aqslie.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Call) and _callee(node) == "ad_matrix"
        and any(isinstance(arg, ast.Call) and _callee(arg) == "basis_vector"
                for arg in node.args)
    ]
    assert offenders == []


def field_decisions(source: str) -> list[str]:
    """Calls in source that scale scalars to integers or divide them back:
    _int_scaled, math.lcm and two-argument Fraction(...); and reads of a
    radicand: squarefree_split(...) and the .terms of a tower scalar.  In
    acm, adapted and classifier the formulas run on the numerator view or the
    rational rescaling, LieAlgebra.values, MatOver.mat and linalg.diag_scaled;
    the field and the square classes are decided in linalg and lie_core."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "terms":
            offenders.append(f"{node.lineno} .terms")
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node)
        if name in ("_int_scaled", "lcm", "squarefree_split") or (
            name == "Fraction" and len(node.args) + len(node.keywords) >= 2
        ):
            offenders.append(f"{node.lineno} {name}")
    return offenders


def test_acm_leaves_the_field_decision_to_linalg():
    # so do the stages of the normal forms that read acm's numerator view
    package = Path(aqslie.__file__).parent
    for module in ("acm.py", "adapted.py", "classifier.py"):
        assert field_decisions((package / module).read_text("utf-8")) == [], module
    # a rational-only branch of the Koszul solve is what the check is for
    forked = (
        "def levi_civita(S):\n"
        "    scaled = _int_scaled(_flat(S.g))\n"
        "    den = math.lcm(scaled[1], 2)\n"
        "    return [Fraction(t, den) for t in scaled[0]]\n"
    )
    assert len(field_decisions(forked)) == 3
    # so is a private square-class solve on the radicands of the entries
    forked = (
        "def rational_rescaling(S):\n"
        "    classes = [squarefree_split(x.terms.popitem()[0])[1] for x in S.xi]\n"
        "    return [next(iter(c.terms)) for c in S.eta], classes\n"
    )
    assert sorted(field_decisions(forked)) == ["2 .terms", "2 squarefree_split", "3 .terms"]



# the readers of the table and the scalings that hand out (numerators, den)
# tuples, which LieAlgebra.values and ad_values, lie_core.ad_value and
# lie_core.pair_brackets turn into values
TUPLE_PRODUCERS = ("_tables", "_operands", "_int_rows", "_int_scaled")


def _a_denominator(node: ast.AST) -> bool:
    """node names a denominator (den, d, da, df, dG, ...) or reads .den or .da."""
    return (isinstance(node, ast.Name) and re.fullmatch(r"den|d[a-zA-Z]?", node.id) is not None
            or isinstance(node, ast.Attribute) and node.attr in ("den", "da"))


def hand_carried_denominators(source: str) -> list[str]:
    """Where source reads .den or .da, calls a producer of (numerators, den)
    tuples, builds, returns or unpacks a tuple that holds a denominator, or
    applies *, ** or // to one.  Outside linalg, lie_core and exterior
    denominators live in the values (tower.TowerOver), which bring operands to
    one themselves."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("den", "da"):
            offenders.append(f"{node.lineno} .{node.attr}")
        elif isinstance(node, ast.Call) and _callee(node) in TUPLE_PRODUCERS:
            offenders.append(f"{node.lineno} {_callee(node)}")
        elif isinstance(node, ast.Tuple) and any(map(_a_denominator, node.elts)):
            offenders.append(f"{node.lineno} tuple")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Pow, ast.FloorDiv))
              and (_a_denominator(node.left) or _a_denominator(node.right))):
            offenders.append(f"{node.lineno} {type(node.op).__name__}")
    return sorted(offenders)


# the modules that read the table and their matrices only as values
VALUE_READERS = ("acm.py", "adapted.py", "classifier.py", "invariant_forms.py",
                 "constructors.py", "cli.py", "io.py")


def test_denominators_are_carried_by_the_values():
    package = Path(aqslie.__file__).parent
    for module in VALUE_READERS:
        assert hand_carried_denominators((package / module).read_text("utf-8")) == [], module
    # the hand-scaled identities the values replaced are what the check is for
    forked = (
        "def validate_acm(S):\n"
        "    v = numerator_view(S)\n"
        "    phi, xi, d = v.phi, v.xi, v.den\n"
        "    return _divided(max_abs(mat_vec(phi, xi)), d ** 3)\n"
        "def psi_matrix(S):\n"
        "    *_, (psi,), dr = L._operands([row[n:] for row in R])\n"
        "    den = 2 * v.da * dr\n"
        "    return psi, den\n"
        "def _verify_iso(S, F, F_inv):\n"
        "    require(gram, v.g, 'not an isometry', d, df * d // df)\n"
    )
    assert hand_carried_denominators(forked) == [
        "10 FloorDiv", "10 Mult", "3 .den", "3 tuple", "3 tuple", "4 Pow", "6 _operands",
        "6 tuple", "7 .da", "7 Mult", "7 Mult", "8 tuple"]
    # so is the ad matrix as (numerators, den) in a module that reads values
    forked = (
        "def extension_by_zero_derivation_check(R, w, Z):\n"
        "    table, den = R.g._tables()\n"
        "    return _int_rows(phi)\n"
    )
    assert hand_carried_denominators(forked) == ["2 _tables", "2 tuple", "3 _int_rows"]


def calls_outside(source: str, helper: str, matches, *others: str) -> list[int]:
    """Lines of the calls in source that match, outside the function helper
    and the functions others."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and fn.name in (helper, *others) for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside and matches(node)]


def _reads_an_int(node: ast.Call) -> bool:
    name = _callee(node)
    return name == "int" or name == "isinstance" and any(
        isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(node.args[-1]))


def _splits_a_comma_list(node: ast.Call) -> bool:
    return _callee(node) == "split" and any(
        isinstance(arg, ast.Constant) and arg.value == "," for arg in node.args)


def test_input_fields_are_read_in_one_place():
    # io reads every field through _field and cli every comma list through
    # _comma_list, so each input is checked one way wherever it appears; the
    # JSON decoder's integer hook _json_int makes the ints _field reads
    package = Path(aqslie.__file__).parent
    io_source = (package / "io.py").read_text("utf-8")
    assert calls_outside(io_source, "_field", _reads_an_int, "_json_int") == []
    cli_source = (package / "cli.py").read_text("utf-8")
    assert calls_outside(cli_source, "_comma_list", _splits_a_comma_list) == []
    # the hand-written checks the typed reader replaced are what it is for
    forked = (
        "def form_from_json(doc):\n"
        "    if not isinstance(doc['degree'], (int, float)):\n"
        "        raise InputError('degree')\n"
        "    return [int(x) - 1 for x in doc['indices']]\n"
        "def cmd_cohomology(args):\n"
        "    return args.degrees.split(',')\n"
    )
    assert calls_outside(forked, "_field", _reads_an_int) == [2, 4]
    assert calls_outside(forked, "_field", _reads_an_int, "_json_int") == [2, 4]
    assert calls_outside(forked, "_comma_list", _splits_a_comma_list) == [6]


def _calls_to(name: str):
    return lambda node: _callee(node) == name


def test_the_normal_forms_share_one_orbit_routine():
    # both normal forms pick their frame vectors in adapted.eigen_orbits, and
    # the classifier tests [g, g] inside R xi by a rank, building no quotient
    package = Path(aqslie.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text("utf-8")
        assert calls_outside(source, "eigen_orbits", _calls_to("_orthogonal_pivot")) == []
    classifier = (package / "classifier.py").read_text("utf-8")
    assert calls_outside(classifier, "", _calls_to("quotient_by_center_line")) == []
    # a private eigenvalue loop beside the routine is what the check is for
    forked = (
        "def classify_nilpotent_qs(S):\n"
        "    quotient_by_center_line(S.L, xi, D)\n"
        "    return _orthogonal_pivot(basis, [], g)\n"
    )
    assert calls_outside(forked, "eigen_orbits", _calls_to("_orthogonal_pivot")) == [3]
    assert calls_outside(forked, "", _calls_to("quotient_by_center_line")) == [2]


TABLE_READERS = ("jacobi_check", "lower_central_series", "derivations")


def basis_bracket_uses(source: str) -> list[str]:
    """Calls to bracket or .c inside the functions of TABLE_READERS, which
    read the structure table through ad_values and ad_value columns."""
    return [f"{fn.name}:{node.lineno}" for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef) and fn.name in TABLE_READERS
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _callee(node) in ("bracket", "c")]


def _brackets_a_basis_vector(node: ast.Call) -> bool:
    return _callee(node) == "bracket" and any(
        isinstance(arg, ast.Call) and _callee(arg) == "basis_vector" for arg in node.args)


ONE_LOOP_READERS = ("bracket", "ad_value")


def second_route_uses(source: str) -> list[str]:
    """Inside the functions of ONE_LOOP_READERS: calls to bracket, _int_scaled
    or _int_rows, reads of .brackets, and every outer loop after the first.
    Each reads the table in one loop, on the field LieAlgebra._operands
    decides for every reader."""
    offenders = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in ONE_LOOP_READERS):
            continue
        nested = {id(inner) for loop in ast.walk(fn) if isinstance(loop, ast.For)
                  for stmt in loop.body for inner in ast.walk(stmt)}
        loops = [node for node in ast.walk(fn) if isinstance(node, ast.For)
                 and id(node) not in nested]
        offenders += [f"{fn.name}:{loop.lineno} second loop" for loop in loops[1:]]
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _callee(node) in ("bracket", "_int_scaled", "_int_rows"):
                offenders.append(f"{fn.name}:{node.lineno} {_callee(node)}")
            elif isinstance(node, ast.Attribute) and node.attr == "brackets":
                offenders.append(f"{fn.name}:{node.lineno} .brackets")
    return sorted(offenders)


def test_the_structure_table_is_read_not_bracketed_on_basis_vectors():
    # Jacobi, the series and the derivations read the table, and a bracket
    # with a basis vector is a column of an ad matrix; bracket and
    # ad_value read it in one loop, on one field decision
    package = Path(aqslie.__file__).parent
    lie_core = (package / "lie_core.py").read_text("utf-8")
    assert basis_bracket_uses(lie_core) == []
    assert second_route_uses(lie_core) == []
    for path in sorted(package.glob("*.py")):
        source = path.read_text("utf-8")
        assert calls_outside(source, "", _brackets_a_basis_vector) == [], path
    # the per-triple and per-constant loops the table readers replaced, and
    # the second routes of bracket and ad_value
    forked = (
        "def jacobi_check(L):\n"
        "    b = [L.basis_vector(i) for i in range(L.dim)]\n"
        "    return bracket(L, bracket(L, b[0], b[1]), b[2])\n"
        "def derivations(L):\n"
        "    return L.c(0, 1, 2)\n"
        "def center_of_k(R, U):\n"
        "    return bracket(R.g, R.g.basis_vector(0), U)\n"
        "def bracket(L, X, Y):\n"
        "    sx = _int_scaled(X)\n"
        "    for pair, entries in table.items():\n"
        "        for k, v in entries.items():\n"
        "            pass\n"
        "    for pair, entries in L.brackets:\n"
        "        pass\n"
        "def ad_value(L, X):\n"
        "    if _int_rows([X]) is None:\n"
        "        return [bracket(L, X, L.basis_vector(j)) for j in range(L.dim)]\n"
    )
    assert basis_bracket_uses(forked) == ["jacobi_check:3", "jacobi_check:3", "derivations:5"]
    assert calls_outside(forked, "", _brackets_a_basis_vector) == [7, 17]
    assert second_route_uses(forked) == [
        "ad_value:16 _int_rows", "ad_value:17 bracket",
        "bracket:13 .brackets", "bracket:13 second loop", "bracket:9 _int_scaled",
    ]


def minor_route_uses(name: str, source: str) -> list[str]:
    """Where source, the module name, reaches evaluate (an import or an
    attribute outside exterior) or defines pullback.  Basis-pair checks of
    2-forms are Gram products; the determinant minors of evaluate, in
    tests/oracles.py, are the tests' oracle for them."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "pullback":
            offenders.append((node.lineno, "def pullback"))
        elif name != "exterior.py" and (
            isinstance(node, ast.ImportFrom) and any(a.name == "evaluate" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "evaluate"
        ):
            offenders.append((node.lineno, "evaluate"))
    return [f"{name}:{line} {what}" for line, what in sorted(offenders)]


def test_two_forms_are_compared_as_gram_products():
    package = Path(aqslie.__file__).parent
    offenders = [
        line
        for path in sorted(package.glob("*.py"))
        for line in minor_route_uses(path.name, path.read_text("utf-8"))
    ]
    assert offenders == []
    # the per-pair minors and the determinant pullback are what the check is for
    forked = (
        "from .exterior import KForm, evaluate\n"
        "def type_11_check(R, forms, J):\n"
        "    return exterior.evaluate(forms[0], J)\n"
        "def pullback(a, A):\n"
        "    return a\n"
    )
    assert minor_route_uses("invariant_forms.py", forked) == [
        "invariant_forms.py:1 evaluate",
        "invariant_forms.py:3 evaluate",
        "invariant_forms.py:4 def pullback",
    ]
    assert minor_route_uses("exterior.py", forked) == ["exterior.py:4 def pullback"]


PRODUCT_KERNELS = ("mat_mul", "mat_vecs", "mat_vec", "dot", "bilinear", "_fold")


def _dense_sum(node: ast.AST) -> bool:
    """node is sum(map(operator.mul, ...)), a product that visits every pair."""
    summed = isinstance(node, ast.Call) and _callee(node) == "sum" and node.args
    inner = node.args[0] if summed else None
    return (isinstance(inner, ast.Call) and _callee(inner) == "map" and bool(inner.args)
            and ast.unparse(inner.args[0]) == "operator.mul")


def product_path_offenders(source: str) -> list[str]:
    """Where linalg's source defines _dot or _first_float, calls s_mul or
    s_add in a product kernel (a call per pair), has a product kernel that
    calls neither _fold nor another product kernel, sums a dense product
    outside dot, has a mat_mul or mat_vecs that does not reach _int_products,
    or has a _fold that multiplies by itself or makes other than one _rowwise
    call.  Outside the integer route every matrix, matrix-vector and vector
    product is the one sparse fold, Gustavson's row-wise loop from the field's
    zero; on it, every matrix product is the one Gustavson product of
    _int_products, and only dot, with no index to amortise, sums every pair."""
    offenders = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name in ("_dot", "_first_float"):
            offenders.append(f"{fn.lineno} def {fn.name}")
        if fn.name == "_fold":
            rowwise = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
                       and _callee(node) == "_rowwise"]
            offenders += [f"{fn.lineno} _fold makes {len(rowwise)} _rowwise calls"
                          ] if len(rowwise) != 1 else []
            offenders += [f"{node.lineno} _fold multiplies" for node in ast.walk(fn)
                          if isinstance(node, (ast.BinOp, ast.AugAssign))
                          and isinstance(node.op, ast.Mult)]
        if fn.name != "dot":
            offenders += [f"{node.lineno} {fn.name} sums every pair"
                          for node in ast.walk(fn) if _dense_sum(node)]
        if fn.name not in PRODUCT_KERNELS:
            continue
        names = {_callee(node): node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)}
        offenders += [f"{names[s]} {fn.name} calls {s}" for s in ("s_mul", "s_add") if s in names]
        if fn.name != "_fold" and not names.keys() & set(PRODUCT_KERNELS) - {fn.name}:
            offenders.append(f"{fn.lineno} {fn.name} skips _fold")
        if fn.name in ("mat_mul", "mat_vecs") and "_int_products" not in names:
            offenders.append(f"{fn.lineno} {fn.name} skips _int_products")
    return offenders


def test_products_outside_the_integer_route_are_one_sparse_fold():
    path = Path(aqslie.__file__).parent / "linalg.py"
    assert product_path_offenders(path.read_text("utf-8")) == []
    # a per-pair fold beside the sparse one, and a dense integer product
    # beside Gustavson's, are what the check is for
    forked = (
        "def _dot(u, v):\n"
        "    return _sum(s_mul(a, b) for a, b in zip(u, v))\n"
        "def mat_vecs(M, vs):\n"
        "    return [[_dot(row, v) for row in M] for v in vs]\n"
        "def dot(u, v):\n"
        "    return _fold([u], [v])[0][0] if u else s_add(ZERO, s_mul(u, v))\n"
        "def mat_mul(A, B):\n"
        "    if ints(A, B):\n"
        "        return [[sum(map(operator.mul, r, c)) for c in zip(*B)] for r in A]\n"
        "    return _fold(A, transpose(B))\n"
    )
    assert product_path_offenders(forked) == [
        "1 def _dot", "3 mat_vecs skips _fold", "3 mat_vecs skips _int_products",
        "6 dot calls s_mul", "6 dot calls s_add", "9 mat_mul sums every pair",
        "7 mat_mul skips _int_products"]
    # a mixed-kind fold beside the row-wise loop: a second loop of its own
    # products past the first float, and the threshold helper it reads
    mixed = (
        "def _fold(rows, cols):\n"
        "    if pure(rows, cols):\n"
        "        return _rowwise(rows, index(cols), len(cols), 0.0)\n"
        "    t = [_first_float(col) for col in cols]\n"
        "    for row in rows:\n"
        "        for j, b in pairs(row):\n"
        "            acc[k] = float(acc[k]) + row[j] * b\n"
        "def _first_float(v):\n"
        "    return next(j for j, x in enumerate(v) if isinstance(x, float))\n"
        "def _fold(rows, cols):\n"
        "    return [[x * y for x, y in zip(row, col)] for col in cols for row in rows]\n"
    )
    assert product_path_offenders(mixed) == [
        "7 _fold multiplies", "8 def _first_float", "10 _fold makes 0 _rowwise calls",
        "11 _fold multiplies"]


def tower_product_offenders(source: str) -> list[str]:
    """Where tower's source calls a per-scalar product (a kernel of
    PRODUCT_KERNELS, s_mul or s_add), calls the integer product _rowwise other
    than once in a loop over the pairs of classes (itertools.product), builds
    an index (_int_index) inside that loop, or has a product method,
    __matmul__ or on_rows, that does not reach the loop, _products."""
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    offenders = [f"{node.lineno} calls {_callee(node)}" for node in calls
                 if _callee(node) in (*PRODUCT_KERNELS, "s_mul", "s_add")]
    pair_loops = {id(node) for loop in ast.walk(tree) if isinstance(loop, ast.For)
                  and isinstance(loop.iter, ast.Call) and _callee(loop.iter) == "product"
                  for node in ast.walk(loop)}
    products = [node for node in calls if _callee(node) == "_rowwise"]
    offenders += [f"{node.lineno} _rowwise outside the class pairs"
                  for node in products if id(node) not in pair_loops]
    offenders += [f"{node.lineno} _int_index inside the class pairs" for node in calls
                  if _callee(node) == "_int_index" and id(node) in pair_loops]
    offenders += [f"{len(products)} calls of _rowwise"] if len(products) != 1 else []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__matmul__", "on_rows"):
            called = {_callee(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
            if "_products" not in called:
                offenders.append(f"{fn.lineno} {fn.name} skips _products")
    return offenders


def test_tower_products_are_one_integer_product_per_pair_of_classes():
    path = Path(aqslie.__file__).parent / "tower.py"
    assert tower_product_offenders(path.read_text("utf-8")) == []
    # a per-scalar product of the rebuilt entries, an integer product per
    # class beside the pairs, and an index rebuilt for every pair are what the
    # check is for
    forked = (
        "def __matmul__(self, other):\n"
        "    return MatOver(mat_mul(self.N, other.N), self.den * other.den)\n"
        "def on_rows(self, V):\n"
        "    return TowerOver({t: _rowwise(V.parts[t], _int_index(M), len(M), 0) for t, M in self.parts.items()})\n"
        "def _products(rows, cols):\n"
        "    for (r, A), (s, B) in itertools.product(rows.items(), cols.items()):\n"
        "        out[r * s] = _fold(A, B)\n"
        "        out[r * s] = _rowwise(A, _int_index(B), len(B), 0)\n"
    )
    assert tower_product_offenders(forked) == [
        "2 calls mat_mul", "7 calls _fold", "4 _rowwise outside the class pairs",
        "8 _int_index inside the class pairs", "2 calls of _rowwise",
        "1 __matmul__ skips _products", "3 on_rows skips _products"]


def test_tower_structures_make_no_per_scalar_fold(monkeypatch):
    # the square-root-weight qS h7 and the third companion of the
    # square-root-weight h13 have no rational rescaling: their documents'
    # classify_structure and curvature decide the tower form once, fold
    # nothing per scalar, make one integer product per pair of classes and
    # index each live class of a product's right operand once
    import aqslie.io as aqio
    from aqslie import acm, linalg, tower
    from aqslie.constructors import weighted_heisenberg_2n1, weighted_heisenberg_4n1
    from aqslie.scalars import parse_scalar

    weights = [parse_scalar(w) for w in ("sqrt(2)", "1", "3/2*sqrt(5)")]
    s1, _, s3 = weighted_heisenberg_4n1(3, weights)[1]
    docs = {"2n1": aqio.structure_to_json(weighted_heisenberg_2n1(3, weights)[1]),
            "4n1": aqio.structure_to_json(s1, companions=[s3.phi_mat()])}
    folds, pairs, right, products, indexes = [], [], [], [], []
    real_fold, real_products = linalg._fold, tower._products
    real_rowwise, real_index = tower._rowwise, tower._int_index
    inside = [False]  # the class-pair product also serves the Nijenhuis bracket

    def counted(rows, cols):
        pairs.append(len(tower._live(rows)) * len(tower._live(cols)))
        right.append(len(tower._live(cols)))
        inside[0] = True
        try:
            return real_products(rows, cols)
        finally:
            inside[0] = False

    def rowwise(*a):
        if inside[0]:
            products.append(1)
        return real_rowwise(*a)

    monkeypatch.setattr(linalg, "_fold", lambda *a, **k: folds.append(a) or real_fold(*a, **k))
    monkeypatch.setattr(tower, "_products", counted)
    monkeypatch.setattr(tower, "_rowwise", rowwise)
    monkeypatch.setattr(tower, "_int_index", lambda B: indexes.append(1) or real_index(B))
    for key, stage in (("2n1", acm.classify_structure), ("2n1", acm.curvature),
                       ("4n1", acm.classify_structure)):
        S, companions = aqio.read(aqio.loads(aqio.dumps(docs[key])), "acm_structure")[1]
        S = companions[-1] if companions else S
        assert acm.rational_rescaling(S) is None
        stage(S)
    assert folds == [] and len(products) == sum(pairs) > 0
    assert len(indexes) == sum(right) < sum(pairs)


def _value_readers(S) -> dict:
    """{reader: the values it returns on S}: the numerator view,
    LieAlgebra.values and ad_values, ad_value, the pair brackets (of rows,
    lie_core.pair_brackets; of the basis and eta on them, lie_core.basis_brackets
    and exterior.d_of_covector), mat_solve and MatOver.of."""
    from aqslie.acm import numerator_view
    from aqslie.exterior import d_of_covector
    from aqslie.lie_core import ad_value, basis_brackets, pair_brackets
    from aqslie.linalg import MatOver, mat_solve

    v, L = numerator_view(S), S.L
    ads, (g,) = L.ad_values(S.g_mat())
    return {"numerator_view": [v.phi, v.g, v.xi, v.eta, v.one, *v.ads],
            "values": L.values(S.phi_mat(), [S.xi_vec()]),
            "ad_values": [*ads, g], "ad_value": [ad_value(L, v.xi)],
            "pair_brackets": [pair_brackets(L, v.one, [(0, 1), (1, 2)]),
                              basis_brackets(L, [(0, 1), (2, 1)]), d_of_covector(L, v.eta)],
            "mat_solve": [mat_solve(v.g, v.one)], "MatOver.of": [MatOver.of(S.g_mat())]}


def wrong_kinds(readers: dict, exact: bool) -> list[str]:
    """The readers with a value not of the kind of their input: exact input
    gives class values (tower.TowerOver), float input MatOvers over 1."""
    from aqslie.linalg import MatOver
    from aqslie.tower import TowerOver

    def right(V):
        return type(V) is TowerOver if exact else type(V) is MatOver and V.den == 1
    return sorted(name for name, values in readers.items() if not all(map(right, values)))


def integer_matrix_routes(source: str) -> list[str]:
    """Where linalg's source defines _at_lcm, the meeting of two integer
    MatOvers, or MatOver.mat scales integers (_int_rows)."""
    tree = ast.parse(source)
    offenders = [f"{node.lineno} def _at_lcm" for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_at_lcm"]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "MatOver":
            offenders += [f"{node.lineno} MatOver.mat calls _int_rows" for fn in cls.body
                          if isinstance(fn, ast.FunctionDef) and fn.name == "mat"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and _callee(node) == "_int_rows"]
    return offenders


def test_exact_values_are_class_values_and_float_values_matrices_over_one(monkeypatch):
    # one exact representation: on rational, square-root-weight and conjugated
    # structures every value the readers return is a TowerOver, a rational one
    # the class 1 alone; on their float copies each is a MatOver over 1
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.constructors import weighted_heisenberg_4n1
    from aqslie.lie_core import LieAlgebra
    from aqslie.linalg import MatOver, random_unimodular
    from aqslie.scalars import parse_scalar
    from floatcopy import float_structure

    def structures():
        h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
        sqrt_weights = [parse_scalar(w) for w in ("sqrt(2)", "1", "3/2*sqrt(5)")]
        return {"h9": h9, "sqrt-h13": weighted_heisenberg_4n1(3, sqrt_weights)[1][0],
                "h9c1": conjugate_structure(h9, random_unimodular(9, random.Random(1)))}

    for name, S in structures().items():
        assert wrong_kinds(_value_readers(S), exact=True) == [], name
        assert wrong_kinds(_value_readers(float_structure(S)), exact=False) == [], name
    package = Path(aqslie.__file__).parent
    assert integer_matrix_routes((package / "linalg.py").read_text("utf-8")) == []
    # the integer route of MatOver is what the source check is for
    forked = (
        "class MatOver:\n"
        "    def mat(self):\n"
        "        return _back(*_int_rows(self.N), self.den)\n"
        "def _at_lcm(values):\n"
        "    return [v.N for v in values], math.lcm(*(v.den for v in values))\n"
    )
    assert integer_matrix_routes(forked) == ["4 def _at_lcm", "3 MatOver.mat calls _int_rows"]
    # and the old _operands, the rational route's integers in MatOvers, is
    # what the value check is for
    real = LieAlgebra._operands

    def old(self, *mats):
        table, den, zero, ints, dm, values = real(self, *mats)
        rational = den is not None
        return table, den, zero, ints, dm, (lambda Ns, d: list(map(MatOver, Ns))) if rational else values

    monkeypatch.setattr(LieAlgebra, "_operands", old)
    assert wrong_kinds(_value_readers(structures()["h9"]), exact=True) == [
        "ad_value", "ad_values", "mat_solve", "numerator_view", "pair_brackets", "values"]


def reachable_calls(source: str, start: str) -> set[str]:
    """Names called by the function start of source, directly or through the
    module-level functions of source that it calls."""
    defs = {fn.name: fn for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    seen, called, todo = set(), set(), [start]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        names = {_callee(node) for node in ast.walk(defs[name]) if isinstance(node, ast.Call)}
        called |= names
        todo += names
    return called


def test_cohomology_builds_no_whole_differential():
    # the CLI's Betti numbers rank d_k one torus weight block at a time;
    # ce_d_matrix, the whole differential, is left to its oracle tests
    package = Path(aqslie.__file__).parent
    cli = reachable_calls((package / "cli.py").read_text("utf-8"), "cmd_cohomology")
    assert "ce_bettis" in cli and "ce_d_matrix" not in cli
    exterior = reachable_calls((package / "exterior.py").read_text("utf-8"), "ce_bettis")
    assert {"_graded_rank", "rank"} <= exterior and "ce_d_matrix" not in exterior
    # a whole-matrix rank on the way is what the check is for
    forked = (
        "def ce_bettis(L, degrees):\n"
        "    return {k: _whole(L, k) for k in degrees}\n"
        "def _whole(L, k):\n"
        "    return rank(ce_d_matrix(L, k))\n"
    )
    assert "ce_d_matrix" in reachable_calls(forked, "ce_bettis")


def test_psi_builds_no_connection_table():
    # psi = -nabla xi is one solve along xi (exact) or the Koszul rows along
    # xi (float); the whole table is built for curvature alone
    acm = reachable_calls((Path(aqslie.__file__).parent / "acm.py").read_text("utf-8"),
                          "psi_matrix")
    assert "_koszul_rows" in acm and "levi_civita" not in acm
    # psi read off the whole table on a float view is what the check is for
    forked = (
        "def psi_matrix(S):\n"
        "    v, n = numerator_view(S), S.L.dim\n"
        "    if not is_exact(v.g.N[0][0]):\n"
        "        C = levi_civita(S).columns\n"
        "        return -stacked([C[j * n:j * n + n].T.on_rows(v.xi) for j in range(n)]).T\n"
    )
    assert "levi_civita" in reachable_calls(forked, "psi_matrix")


def memo_offenders(source: str) -> list[str]:
    """Where source, acm, keeps a derived quantity beside the one memo: a write
    into a _memo (an item assignment, setdefault or update) outside _kept and
    classify_structure's entry of the rescaled structure, a "g_inverse" string,
    and a definition of _koszul_reads."""
    offenders = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.FunctionDef) and node.name == "_koszul_reads":
                offenders.append(f"{node.lineno} def _koszul_reads")
            if isinstance(node, ast.Constant) and node.value == "g_inverse":
                offenders.append(f"{node.lineno} 'g_inverse'")
            writes = [t for t in getattr(node, "targets", [getattr(node, "target", None)])
                      if isinstance(t, ast.Subscript)]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                    node.func.attr in ("setdefault", "update")):
                writes.append(node.func)
            for w in writes:
                if not (isinstance(w.value, ast.Attribute) and w.value.attr == "_memo"):
                    continue
                key = getattr(getattr(w, "slice", None), "value", None)
                if owner != "_kept" and (owner, key) != ("classify_structure", "classification"):
                    offenders.append(f"{node.lineno} _memo write in {owner}")
    return sorted(offenders, key=lambda o: int(o.split()[0]))  # by line, stable


def test_acm_keeps_each_derived_quantity_in_one_memo():
    # results of functions of a structure are kept by _kept, what is read off
    # the tensors alone on the numerator view, and the Koszul rows read one table
    acm = (Path(aqslie.__file__).parent / "acm.py").read_text("utf-8")
    assert memo_offenders(acm) == []
    # a hand-rolled memo, a side-channel key and a second Koszul reader are
    # what the check is for
    forked = (
        "def _kept(key):\n"
        "    S._memo[key] = f(S)\n"
        "def classify_structure(S):\n"
        "    T._memo['classification'] = c\n"
        "    S._memo['rank'] = r\n"
        "def levi_civita(S):\n"
        "    S._memo['g_inverse'] = g_inv.mat()\n"
        "    S._memo.setdefault('d_eta', B)\n"
        "def _koszul_reads(v, js):\n"
        "    pass\n"
    )
    assert memo_offenders(forked) == [
        "5 _memo write in classify_structure", "7 _memo write in levi_civita",
        "7 'g_inverse'", "8 _memo write in levi_civita", "9 def _koszul_reads"]


def private_differentials(source: str) -> list[str]:
    """Where source, invariant_forms, defines _block or calls s_add, and
    whether its invariant_closed_2forms misses exterior.cocycles: the closed
    invariant 2-forms are the kernel of the one differential, read on the
    split, with no equation rows built beside it."""
    offenders = [f"{node.lineno} def _block" for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "_block"]
    offenders += [f"{line} s_add" for line in calls_outside(source, "", _calls_to("s_add"))]
    if "cocycles" not in reachable_calls(source, "invariant_closed_2forms"):
        offenders.append("invariant_closed_2forms skips cocycles")
    return offenders


def test_closed_invariant_forms_are_read_by_the_one_differential():
    package = Path(aqslie.__file__).parent
    assert private_differentials((package / "invariant_forms.py").read_text("utf-8")) == []
    # the m-blocks and the per-pair equation rows beside d are what the check is for
    forked = (
        "def _block(coords, ad, cols):\n"
        "    return transpose(mat_vecs(coords, mat_vecs(ad, cols)))\n"
        "def invariant_closed_2forms(R):\n"
        "    row[t] = s_add(row[t], s_mul(c, sgn))\n"
        "    return nullspace(rows, len(pairs))\n"
    )
    assert private_differentials(forked) == [
        "1 def _block", "4 s_add", "invariant_closed_2forms skips cocycles"]
    assert private_differentials(
        "def invariant_closed_2forms(R):\n    return _kernel(R)\n"
        "def _kernel(R):\n    return cocycles(R.split, pairs)\n") == []



UNREACHED_ALLOWED = {"derivations"}  # README kernel API, a table reader guarded above


def used_names(tree: ast.AST, strings: bool = False, bare: bool = True) -> set[str]:
    """Attribute attrs and import aliases in tree, with bare its Name ids
    too, and with strings its string constants."""
    names: set = set()
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name.rpartition(".")[2], node.asname}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _units(tree: ast.Module):
    """(statement, definition, names, texts) for each module-level statement and,
    inside a class, for its header and each statement of its body: the
    module-level statement, the definition the unit is (or None), the names
    the unit uses, and the texts that can reach a member: its attributes,
    import aliases and string constants, but no bare name."""
    member_texts = lambda node: used_names(node, strings=True, bare=False)  # noqa: E731
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield stmt, stmt if isinstance(stmt, ast.FunctionDef) else None, used_names(stmt), \
                member_texts(stmt)
            continue
        header = ast.Module([ast.Expr(node) for node in (*stmt.decorator_list, *stmt.bases,
                                                            *stmt.keywords)], [])
        yield stmt, stmt, used_names(header), member_texts(header)
        for part in stmt.body:
            member = part if isinstance(part, ast.FunctionDef) else None
            yield stmt, member, used_names(part), member_texts(part)


def unreached_definitions(modules: dict, outside: set) -> list[str]:
    """'module.name' of each module-level def or class of modules ({file
    name: source}) that no other statement of the modules names, nor outside,
    and 'module.Class.name' of each method or property but the dunders that
    no other statement reaches by an attribute, an import alias or a string
    constant (an operator.attrgetter("center") names a member), nor outside:
    a local variable of the same name is not a use."""
    units = {name: list(_units(ast.parse(source))) for name, source in modules.items()}
    every = [unit for body in units.values() for unit in body]
    unreached = []
    for name, body in units.items():
        for stmt, defined, _, _ in body:
            if defined is None or defined.name in outside | UNREACHED_ALLOWED:
                continue
            if defined is stmt:  # module-level: named outside its own statement
                reached = any(defined.name in names for s, _, names, _ in every if s is not stmt)
                unreached += [] if reached else [f"{name[:-3]}.{stmt.name}"]
            elif not (defined.name.startswith("__") and defined.name.endswith("__")):
                reached = any(defined.name in texts for _, d, _, texts in every if d is not defined)
                unreached += [] if reached else [f"{name[:-3]}.{stmt.name}.{defined.name}"]
    return unreached


def test_every_definition_is_reached_by_the_cli_the_criteria_or_perfbench():
    # src keeps what the CLI, the criteria or perfbench reach; perfbench looks
    # kernels up by string and times each function a per-layer metric names
    package, root = Path(aqslie.__file__).parent, Path(__file__).parent.parent
    modules = {path.name: path.read_text("utf-8")
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    criteria = used_names(ast.parse((root / "tests" / "test_acceptance.py").read_text("utf-8")),
                          bare=False)
    outside = set(criteria)
    for path in sorted((root / "perfbench").glob("*.py")):
        outside |= used_names(ast.parse(path.read_text("utf-8")), strings=True, bare=False)
    declared = json.loads((root / "BENCHMARK.json").read_text("utf-8"))["per_layer"]
    outside |= {part for metric in declared for part in metric["name"].split(".")}
    assert "s_add" in outside and "ce_d_matrix" in outside
    assert unreached_definitions(modules, outside) == []
    # these only a perfbench string or a benchmark metric reaches: a new one
    # fails here, and moving one beside its tests shrinks the set
    assert set(unreached_definitions(modules, criteria)) == {
        "acm.nijenhuis_phi", "exterior.ce_d_matrix", "linalg.det", "linalg.char_poly"}
    # a definition named only inside itself is what the check is for
    forked = {"a.py": "def kernel():\n    return Report()\ndef helper():\n    return helper()\n"
                      "class Report:\n    pass\n", "b.py": "from .a import kernel\n"}
    assert unreached_definitions(forked, set()) == ["a.helper"]
    assert unreached_definitions(forked, {"helper"}) == []
    # so is a member that only tests read, and a string constant reaches one
    forked = {"a.py": "class Table:\n    @property\n    def gamma(self):\n        return self.rows\n"
                      "    @property\n    def rows(self):\n        return []\n"
                      "    def __len__(self):\n        return 0\n"
                      "center = operator.attrgetter('center')\n",
              "b.py": "from .a import Table\nclass Algebra(Table):\n    def center(self):\n"
                      "        c = 0\n        return self.center\nALGEBRAS = [Algebra]\n"}
    assert unreached_definitions(forked, set()) == ["a.Table.gamma"]
    assert unreached_definitions(forked, {"gamma"}) == []
    # and a member that only a local variable of its name hides
    forked["a.py"] += "class Algebra:\n    def c(self, i, j, k):\n        return 0\n"
    assert unreached_definitions(forked, {"gamma"}) == ["a.Algebra.c"]


def benchmark_name_offenders(metrics: list, layers_source: str, modules: dict) -> list[str]:
    """Where a per-layer metric <layer>.<fn>.<stat> names no public function
    defined at the top of modules[<layer>.py], or a name of perfbench's
    SCALAR_OPS (scalars.py) or ELIMINATIONS (linalg.py) names none.  perfbench
    looks these up when it runs; a traced run finds a missing one only at its end."""
    named = {}
    for node in ast.parse(layers_source).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            named[node.targets[0].id] = node.value
    wanted = [(*metric["name"].split(".")[:2], metric["name"]) for metric in metrics
              if metric["name"].count(".") == 2]
    wanted += [(layer, fn, f"{group} {fn}") for group, layer in
               (("SCALAR_OPS", "scalars"), ("ELIMINATIONS", "linalg"))
               for fn in (ast.literal_eval(named[group]) if group in named else ["?"])]
    defined = {name: {node.name for node in ast.parse(source).body
                      if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
               for name, source in modules.items()}
    return [what for layer, fn, what in wanted if fn not in defined.get(f"{layer}.py", ())]


def test_benchmark_named_functions_stay_in_src():
    # the per-layer metrics and the scalar and elimination counters of
    # perfbench name functions of src by string: each must stay defined there
    package, root = Path(aqslie.__file__).parent, Path(__file__).parent.parent
    modules = {path.name: path.read_text("utf-8") for path in sorted(package.glob("*.py"))}
    metrics = json.loads((root / "BENCHMARK.json").read_text("utf-8"))["per_layer"]
    layers = (root / "perfbench" / "layers.py").read_text("utf-8")
    assert "adapted.adapted_frame.self_s" in {metric["name"] for metric in metrics}
    assert benchmark_name_offenders(metrics, layers, modules) == []
    # a timed function moved out of its layer, a counted kernel gone private
    # or renamed, and a lost list are what the check is for
    forked = {"adapted.py": "def eigen_orbits():\n    pass\n",
              "scalars.py": "def s_add():\n    pass\ndef _s_mul():\n    pass\n",
              "linalg.py": "def rank():\n    pass\nclass MatOver:\n    def solve(self):\n"
                           "        pass\n"}
    assert benchmark_name_offenders(
        [{"name": "adapted.adapted_frame.self_s"}, {"name": "adapted.self_s"},
         {"name": "linalg.rank.calls"}, {"name": "exterior.ce_d.calls"}],
        "SCALAR_OPS = ('s_add', 's_mul')\nELIMINATIONS = ('rank', 'solve')\n", forked) == [
        "adapted.adapted_frame.self_s", "exterior.ce_d.calls", "SCALAR_OPS s_mul",
        "ELIMINATIONS solve"]
    assert benchmark_name_offenders([], "", forked) == ["SCALAR_OPS ?", "ELIMINATIONS ?"]
