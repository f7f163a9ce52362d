"""Command-line interface: output shapes, determinism, and exit codes."""

import hashlib
import json
import pathlib
import shlex
from math import factorial

import pytest

from uhsl2 import cli, reps, slh2, su2data, symplecton
from uhsl2.cli import RunConfig, main, suite_product_law
from uhsl2.scalar import HalfInt, HSeries, RadicalSum, spins_up_to, sqrt_ratio, weights


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# SHA-256 of the stdout of each `compute` line, recorded before the flat
# coefficient ring replaced the list-of-RadicalSum series; the first eight are
# the README examples.
README_COMPUTE = {
    "compute symplecton --j 1 --m 0":
        "d3b1d29c3d6fef112c94e4a7f1812259dc25680655eba7d139b78a82ccb1e774",
    "compute h-symplecton --j 1 --m 0 -H 6 --realization osc":
        "684ca88f960728e62a3b89fbdd44c87ee9392b52feaecc1773f173a28a2b5670",
    "compute fmatrix --j1 1/2 --j2 1/2 -H 8 --format json":
        "12c977c6172db1fa62259b56668f84a0ae1fa9306491cb56d48c98680f47b805",
    "compute rmatrix --j1 1/2 --j2 1 -H 8":
        "d2dcd733e9b3280809ce98a0e6d74975f8a0506ae6e513f2f47b4b334af43c78",
    "compute cgc --j1 1/2 --j2 1/2 --j 1 --m1 1/2 --m2=-1/2":
        "6181c5234685ae6688a0b9554ae25722bcb0af12f5e2a6defe8f36b18cc14074",
    "compute racah --a 1 --b 1/2 --c 1/2 --d 1 --e 1/2 --f 1/2":
        "d10c5fbef318bbf20f5b599c241c99871e4a2163bf4670a31ba9cd7cb9c20cb0",
    "compute dfun --j 1 -H 8 --format json":
        "0dbdc38de278a5bf6dee9ea98cf6f9212588768c3bd937d3b03c71545b1eda5c",
    "compute plane-basis --j 3/2 --m 1/2 -H 8":
        "754b5f3ba74690825c5296707e2d3b98849772c03a953bf385520164431f23ba",
}
LARGER_COMPUTE = {
    "compute dfun --j 2 -H 8 --format json":
        "ed3bfa099e823f91835575579e484ae0d7db40a8a524958e09cd7aaf1626380d",
    "compute fmatrix --j1 3/2 --j2 2 -H 16 --format json":
        "1a3af95bf8906db03f13ebb9bb06f3bfd1d99fc042f6deddc0c5b2f3a7224f5e",
    "compute rmatrix --j1 1 --j2 3/2 -H 12":
        "39a8812fbf7f80d64c3aa09f7587f0b77b47196a981f16e6c3993249b74cfaf5",
    "compute h-symplecton --j 2 --m 1 -H 8 --format json":
        "662e48b29d18a9673200c16a384fa3f6acfa769255a8f855738ed31b4425b377",
    # recorded before the twist closed form and the Clebsch-Gordan sum were
    # evaluated over one integer denominator, as is the report below
    "compute fmatrix-inverse --j1 2 --j2 3/2 -H 16 --format json":
        "473e86805d00980e35d2ab09b5fa8158e4160d6d4d685b13da12b0bb2a80285d",
    # a Clebsch-Gordan coefficient -sqrt(105)/21 and a Racah W -sqrt(165)/210,
    # each one exact square root of a ratio of factorials
    "compute cgc --j1 5/2 --j2 2 --j 3/2 --m1 1/2 --m2=-1 --format json":
        "e8628392f726e9347042b1a8f1dabdb9be6dbc2b5478b40fb9c929bfe1f7c834",
    "compute racah --a 2 --b 2 --c 7/2 --d 7/2 --e 3 --f 5/2 --format json":
        "2f7ffe754a4146f3edb25ed966a08fa78cb0a5f382fc517222ca67a2aa6ca4e2",
}
# the twist, hopf, coupled-basis, ohn and properties suites at order 16 up to
# spin 4, which is the benchmark's reps-tower workload
REPS_TOWER_REPORT = (
    "verify -H 16 --max-spin 4 --suite twist --suite hopf --suite coupled-basis"
    " --suite ohn --suite properties --format json",
    "3afdad4c25a9364677b36cd576b9e6d9988bb148876542b3467011eaa35e0e1b")
# the two suites made of Weyl and oscillator products, at a second order;
# recorded before those products ran over integer numerators
WEYL_ORDER_12_REPORT = (
    "verify --suite product-law --suite h-symplecton -H 12 --format json",
    "93c4306315ca59343afefdc1510937cafc18068a9cfe8715eb2d944cf9f0e467")
# the product law at orders below h^(2J), where its expansions hold only
# modulo h^(N+1)
PRODUCT_LAW_ORDER_0_REPORT = (
    "verify --suite product-law -H 0 --format json",
    "74f09c6c4a9d74d4447631c46bd3b18607a451c3fd4ed60319903972c0ac3da3")
PRODUCT_LAW_ORDER_2_REPORT = (
    "verify --suite product-law -H 2 --format json",
    "95f0aa8bbcda365f0ce1149ddf5418ec028b6efb43f70bf641e96f17830d5cc8")
# the hypergeometric closed form up to spin 4 and the exchange-matrix
# relations; recorded before the closed form divided its polynomials as series
SYMPLECTON_SLH2_REPORT = (
    "verify --suite symplecton --suite slh2 --max-spin 4 --format json",
    "d61d5dcb99023e2f45e5d258ce79874f17d0601f8a9dadadf4a70d8bb84cfbd3")


def test_readme_compute_lines_are_pinned():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split(" ", 1)[1] for line in readme.read_text().splitlines()
             if line.startswith("uhsl2 compute ")]
    assert lines == list(README_COMPUTE)


@pytest.mark.parametrize("line, digest", [*README_COMPUTE.items(),
                                          *LARGER_COMPUTE.items(), REPS_TOWER_REPORT,
                                          WEYL_ORDER_12_REPORT, PRODUCT_LAW_ORDER_0_REPORT,
                                          PRODUCT_LAW_ORDER_2_REPORT, SYMPLECTON_SLH2_REPORT])
def test_compute_output_bytes(capsys, line, digest):
    code, out = run(capsys, *shlex.split(line))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_list_suites(capsys):
    code, out = run(capsys, "list-suites")
    assert code == 0
    for name in ("twist", "product-law", "slh2", "dfunctions"):
        assert name in out, f"suite {name} missing from listing"


def test_compute_symplecton_text(capsys):
    code, out = run(capsys, "compute", "symplecton", "--j", "1", "--m", "0")
    assert code == 0
    assert out.strip() == "sqrt(2)*a*abar + 1/2*sqrt(2)"


def test_compute_fmatrix_classical_limit(capsys):
    code, out = run(capsys, "compute", "fmatrix", "--j1", "1/2", "--j2", "1/2",
                    "-H", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = payload["matrix"]["entries"]
    assert [tuple(e["pos"]) for e in entries] == [(i, i) for i in range(4)], \
        "twist at order zero must be the identity matrix"


def test_compute_dfun_fundamental(capsys):
    code, out = run(capsys, "compute", "dfun", "--j", "1/2", "-H", "2",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    got = {(e["row_weight"], e["col_weight"]):
           e["value"]["terms"][0]["word"] for e in payload["entries"]}
    assert got == {("1/2", "1/2"): ["x"], ("-1/2", "1/2"): ["v"],
                   ("1/2", "-1/2"): ["u"], ("-1/2", "-1/2"): ["y"]}


def test_verify_small_run_passes(capsys):
    code, out = run(capsys, "verify", "-H", "2", "--max-spin", "1/2",
                    "--suite", "twist", "--suite", "symplecton")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks, 0 failed")


def test_verify_empty_spin_range(capsys):
    code, out = run(capsys, "verify", "--max-spin", "0")
    assert code == 0
    assert out.strip() == "0 checks, 0 failed"


def test_verify_json_schema_and_determinism(capsys):
    args = ("verify", "-H", "2", "--max-spin", "1/2", "--suite", "dfunctions",
            "--format", "json")
    code, first = run(capsys, *args)
    assert code == 0
    code, second = run(capsys, *args)
    assert first == second, "repeated runs must be byte identical"
    report = json.loads(first)
    assert report["failed"] == 0
    for row in report["rows"]:
        assert set(row) == {"suite", "check", "ref", "params", "pass", "detail"}


def test_product_law_expands_each_product_once(monkeypatch):
    # spins 1/2 and 1 give 25 distinct (j, m, j', m'); each product is
    # expanded once and the calibration rows reuse the suite's table
    calls = []
    expand = symplecton.decompose_twisted

    def counted(w, member):
        calls.append(w)
        return expand(w, member)

    monkeypatch.setattr(symplecton, "decompose_twisted", counted)
    rows = suite_product_law(RunConfig(order=2, max_spin=HalfInt(2)))
    assert len(calls) == 25
    assert all(row["pass"] for row in rows)
    monkeypatch.undo()
    _, table = symplecton.product_law_suite(HalfInt(2), 2)
    want = [({"j": str(j), "jp": str(jp_), "k": str(k)}, ok, detail)
            for (j, jp_, k), (ok, detail) in sorted(
                table.items(), key=lambda kv: tuple(x.twice for x in kv[0]))]
    got = [(row["params"], row["pass"], row["detail"]) for row in rows
           if row["check"] == "calibration_ratio"]
    assert got == want


def _wrong_norm(j, jp, k):
    # (2k+1)! in place of (2k)! in N(j, j', k)
    return sqrt_ratio(factorial(j.twice) * factorial(jp.twice),
                      factorial(k.twice + 1))


def _bracket_without_power_of_two(k, j, jp):
    # <k|j|j'> without its factor 2^(k-j-j')
    if not su2data.triangle_ok(k, j, jp):
        return RadicalSum.zero()
    return su2data.nabla(k, j, jp) * sqrt_ratio(1, k.twice + 1)


def _doubled_scalar_part(expand):
    def doubled(w, member):
        out = expand(w, member)
        scalar = (HalfInt(0), HalfInt(0))
        if scalar in out:
            out[scalar] = out[scalar] + out[scalar]
        return out
    return doubled


def _row_label(row):
    k = row["params"].get("k")
    return row["check"] if k is None else f"calibration_ratio k={k}"


def test_calibration_ratio_fails_off_the_closed_form(capsys, monkeypatch):
    # each mutant of the product law's constants, with the rows it must fail
    # and the rows it must leave passing; a label names every row it matches
    ratios = {f"calibration_ratio k={k}" for k in ("1/2", "1", "3/2", "2")}
    mutants = [
        # every triple but the k = 0 ones expects the wrong ratio
        ("product_norm", _wrong_norm, ratios, {"calibration_ratio k=0"}),
        # the law's k = 0 coefficient is no longer (2j)!/4^j, while the
        # pairing, read off the expansions, still is
        ("bracket_coeff", _bracket_without_power_of_two,
         {"pairing_normalization"}, {"pairing"}),
        # the expansions' scalar parts are twice the pairing, while the law's
        # k = 0 coefficient is still (2j)!/4^j
        ("decompose_twisted", _doubled_scalar_part(symplecton.decompose_twisted),
         {"pairing"}, {"pairing_normalization"}),
    ]
    for name, mutant, fail, keep in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(symplecton, name, mutant)
            code, out = run(capsys, "verify", "-H", "2", "--max-spin", "1",
                            "--suite", "product-law", "--format", "json")
        assert code == 1, name
        verdicts = {}
        for row in json.loads(out)["rows"]:
            verdicts.setdefault(_row_label(row), set()).add(row["pass"])
        for label in fail | keep:
            assert verdicts.get(label) == {label in keep}, (name, label, verdicts.get(label))


def _bump(mat, i):
    """mat with h^2 added to its diagonal entry (i, i)."""
    return mat + reps.Matrix(mat.nrows, mat.ncols, mat.order,
                             {(i, i): HSeries.h_power(2, mat.order)})


def _perturb_exp_sigma(patch, j2, weight):
    # the oracle's block exp(weight*s) on spin j2, used by both twist checks
    exp_sigma = reps.Rep.exp_sigma

    def mutant(rep, alpha):
        out = exp_sigma(rep, alpha)
        return _bump(out, 0) if rep.dim == j2.twice + 1 and alpha == weight else out
    patch.setattr(reps.Rep, "exp_sigma", mutant)


def _perturb_closed_form(patch, j2, m1):
    # the closed-form block of weight m1 on spin j2, patched where the twist
    # suite builds it: block by block if the package does, else in the whole F
    if hasattr(reps, "twist_formula_blocks"):
        blocks_of = reps.twist_formula_blocks

        def blocks(j2_, m1s, order):
            out = blocks_of(j2_, m1s, order)
            if j2_ == j2 and m1 in out:
                out[m1] = _bump(out[m1], 0)
            return out
        patch.setattr(reps, "twist_formula_blocks", blocks)
        return
    formula = reps.twist_matrix_formula

    def whole(j1, j2_, order):
        f = formula(j1, j2_, order)
        if j2_ == j2 and m1 in weights(j1):
            f = _bump(f, reps.widx(j1, m1) * (j2.twice + 1))
        return f
    patch.setattr(reps, "twist_matrix_formula", whole)


@pytest.mark.parametrize("target, j2t, wt", [
    ("exp_sigma", 2, 1), ("exp_sigma", 3, -4), ("exp_sigma", 4, 0),
    ("closed_form", 1, -1), ("closed_form", 4, 2), ("closed_form", 3, 3)])
def test_twist_rows_fail_exactly_where_their_block_does(capsys, monkeypatch, target, j2t, wt):
    # a row (j1, j2) reads the blocks of spin j2 at the weights of j1: one
    # wrong exp(alpha*s) fails both rows of every j1 with alpha among its
    # weights, one wrong closed-form block fails the closed-form rows of every
    # j1 with that weight, and every other row passes
    j2, weight = HalfInt(j2t), HalfInt(wt)
    with monkeypatch.context() as patch:
        if target == "exp_sigma":
            _perturb_exp_sigma(patch, j2, weight)
            checks = {"closed_form_matches_oracle", "inverse_by_weight_reversal"}
        else:
            _perturb_closed_form(patch, j2, weight)
            checks = {"closed_form_matches_oracle"}
        code, out = run(capsys, "verify", "--suite", "twist", "-H", "4",
                        "--max-spin", "2", "--format", "json")
    rows = json.loads(out)["rows"]
    assert len(rows) == 32 and code == 1
    failed = {(row["check"], row["params"]["j1"], row["params"]["j2"])
              for row in rows if not row["pass"]}
    assert failed == {(check, str(j1), str(j2)) for check in checks
                      for j1 in spins_up_to(HalfInt(4)) if weight in weights(j1)}


def test_error_inside_suite_is_failed_row(capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("no such coefficient")

    monkeypatch.setitem(cli.SUITES, "twist", (cli.SUITES["twist"][0], broken))
    code, out = run(capsys, "verify", "-H", "2", "--max-spin", "1/2",
                    "--suite", "twist", "--suite", "symplecton")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == ("FAIL  twist/runs_to_completion  [max_spin=1/2 order=2]"
                        "  ValueError: no such coefficient")
    assert all(line.startswith("PASS") for line in lines[1:-1])
    assert lines[-1].endswith("checks, 1 failed")


def test_step_limit_in_suite_is_failed_row(capsys, monkeypatch):
    # at depth 0 the first table entry built trips; an uncached mixed
    # algebra starts with empty tables, whatever other tests have built
    monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", 0)
    monkeypatch.setattr(slh2, "mixed_algebra", slh2.mixed_algebra.__wrapped__)
    code, out = run(capsys, "verify", "--suite", "dfunctions", "-H", "2",
                    "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["checks"] == 1 and report["failed"] == 1
    row = report["rows"][0]
    assert (row["suite"], row["check"], row["pass"]) == (
        "dfunctions", "runs_to_completion", False)
    assert row["detail"].startswith("RuntimeError: rewriting in ")
    assert "nesting depth limit of 0 at the word" in row["detail"]


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_strict_coefficients_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-H", "2", "--max-spin", "1/2", "--suite", "product-law",
              "--strict-coefficients"])
    assert exc.value.code == 2
    assert "--strict-coefficients" in capsys.readouterr().err


def test_bad_spin_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "symplecton", "--j", "1/3", "--m", "0"])
    assert exc.value.code == 2


def test_negative_order_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "symplecton", "--j", "1", "--m", "0", "-H", "-1"])
    assert exc.value.code == 2
    assert "nonnegative" in capsys.readouterr().err


def test_negative_spin_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "fmatrix", "--j1", "-1", "--j2", "1/2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "nonnegative" in captured.err and captured.out == ""


@pytest.mark.parametrize("obj", ["symplecton", "h-symplecton", "plane-basis"])
@pytest.mark.parametrize("j, m", [("1", "1/2"), ("1", "3"), ("1/2", "-3/2")])
def test_weight_outside_spin_is_usage_error(capsys, obj, j, m):
    code = main(["compute", obj, "--j", j, f"--m={m}", "-H", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    allowed = "-1, 0, 1" if j == "1" else "-1/2, 1/2"
    assert captured.err.strip() == (f"error: --m {m} is not a weight of --j {j}; "
                                    f"allowed: {allowed}")


def test_negative_weight_is_accepted(capsys):
    code, out = run(capsys, "compute", "cgc", "--j1", "1/2", "--j2", "1/2",
                    "--j", "0", "--m1=-1/2", "--m2", "1/2")
    assert code == 0 and out.strip() == "-1/2*sqrt(2)"


def test_compute_racah_on_inadmissible_labels_is_zero(capsys):
    code, out = run(capsys, "compute", "racah", "--a", "1/2", "--b", "1/2",
                    "--c", "1/2", "--d", "1", "--e", "1", "--f", "1")
    assert code == 0 and out.strip() == "0"
