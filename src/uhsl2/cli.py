"""Command-line front end: compute exact objects, emit machine-readable
artifacts, and run the verification suites.

Exit codes: 0 all requested checks pass, 1 a verification failed (an error
raised inside a suite counts as a failed check), 2 bad usage.  Output is
deterministic for a fixed configuration.
"""

import argparse
import json
import sys
from fractions import Fraction

from .scalar import HSeries, HalfInt, combine, spin_pairs, spins_up_to, weights
from . import reps
from . import slh2
from . import su2data
from . import symplecton
from . import weyl

# HalfInt holds twice the spin, so the suites name their spins by value
HALF, ONE = HalfInt.parse("1/2"), HalfInt.parse("1")


class RunConfig:
    """Bounds and options shared by the verification suites."""

    def __init__(self, order=8, max_spin=HalfInt.parse("2")):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self.order = order
        self.max_spin = HalfInt.of(max_spin)

    @property
    def product_spin(self):
        """Product-law style checks cost more, so they cap at spin 3/2."""
        return min(self.max_spin, HalfInt.parse("3/2"))


def _row(suite, check, ref, params, ok, detail=""):
    return {"suite": suite, "check": check, "ref": ref, "params": params,
            "pass": bool(ok), "detail": detail}


# ----------------------------------------------------------------------
# verification suites; each maps a RunConfig to a list of report rows


def suite_twist(cfg):
    # F on (j1, j2) is the direct sum over the weights m1 of j1 of the blocks
    # E(-m1) = exp(-m1 s) on spin j2, and each block depends on (j2, m1) alone.
    # So each block is checked once, for every m1 from -J to J, and a row
    # passes when every block of a weight of j1 passes.  Block m1 of F R(F),
    # with R(F) F's anti-transpose, is E(-m1) AT(E(m1)).  AT reverses
    # products, so block -m1 is AT of block m1, and checking m1 >= 0 is enough.
    m1s = [HalfInt(t) for t in range(-cfg.max_spin.twice, cfg.max_spin.twice + 1)]
    closed, inverse = {}, {}
    for j2 in spins_up_to(cfg.max_spin):
        rep = reps.spin_rep(j2, cfg.order)
        blocks = reps.twist_formula_blocks(j2, m1s, cfg.order)
        for m1 in m1s:
            closed[(j2, m1)] = blocks[m1] == rep.exp_sigma(-m1)
            if m1 >= 0:
                inverse[(j2, m1)] = inverse[(j2, -m1)] = \
                    rep.exp_sigma(-m1) * reps.anti_transpose(rep.exp_sigma(m1)) == rep.one
    rows = []
    for j1, j2 in spin_pairs(cfg.max_spin):
        params = {"j1": str(j1), "j2": str(j2)}
        ok = all(closed[(j2, m1)] for m1 in weights(j1))
        rows.append(_row("twist", "closed_form_matches_oracle",
                         "twist-closed-form", params, ok))
        ok = all(inverse[(j2, m1)] for m1 in weights(j1))
        rows.append(_row("twist", "inverse_by_weight_reversal",
                         "twist-inverse-symmetry", params, ok))
    return rows


def suite_hopf(cfg):
    rows = []
    triples = [(HALF, HALF, HALF)]
    if cfg.max_spin >= ONE:
        triples.append((ONE, HALF, HALF))
    for j1, j2, j3 in triples:
        params = {"j1": str(j1), "j2": str(j2), "j3": str(j3)}
        for name, ok in reps.twisted_hopf_suite(j1, j2, j3, cfg.order).items():
            rows.append(_row("hopf", name, "twisted-hopf", params, ok))
        rows.append(_row("hopf", "cocycle_identity", "twist-cocycle", params,
                         reps.cocycle_check(j1, j2, j3, cfg.order)))
    return rows


def suite_coupled_basis(cfg):
    rows = []
    lim = min(cfg.max_spin, ONE)
    for j1, j2 in spin_pairs(lim):
        if j2 > j1:
            continue
        params = {"j1": str(j1), "j2": str(j2)}
        for name, ok in reps.coupled_basis_suite(j1, j2, cfg.order).items():
            rows.append(_row("coupled-basis", name, "coupled-basis", params, ok))
    return rows


def suite_recoupling(cfg):
    rows = []
    lim = cfg.product_spin
    for a in spins_up_to(lim):
        for b in spins_up_to(lim):
            for c in spins_up_to(lim):
                for e in spins_up_to(lim):
                    ok, ncases = su2data.verify_racah_identity(a, b, c, e)
                    if ncases == 0:
                        continue
                    params = {"a": str(a), "b": str(b), "c": str(c), "e": str(e)}
                    rows.append(_row("recoupling", "double_coupling_expansion",
                                     "recoupling-racah", params, ok,
                                     f"{ncases} label assignments"))
    return rows


def suite_ohn(cfg):
    rows = []
    for j in spins_up_to(cfg.max_spin):
        params = {"j": str(j)}
        for name, ok in reps.ohn_suite(j, cfg.order).items():
            rows.append(_row("ohn", name, "hyperbolic-presentation", params, ok))
    return rows


def suite_symplecton(cfg):
    rows = []
    for j in spins_up_to(cfg.max_spin):
        params = {"j": str(j)}
        ok = all(weyl.classical_symplecton(j, m, 0, "A")
                 == weyl.classical_symplecton(j, m, 0, "B") for m in weights(j))
        rows.append(_row("symplecton", "two_closed_forms_agree",
                         "symplecton-closed-forms", params, ok))
    rows.append(_row("symplecton", "weight_reflection", "symplecton-reflection",
                     {"max_spin": str(cfg.max_spin)},
                     symplecton.symmetry_check(cfg.max_spin)))
    ok = True
    detail = ""
    for j in spins_up_to(cfg.max_spin):
        for m in weights(j):
            if m > 0:
                continue
            if symplecton.hypergeometric_form(j, m, 0) \
                    != weyl.classical_symplecton(j, m, 0):
                ok, detail = False, f"mismatch at j={j}, m={m}"
    rows.append(_row("symplecton", "hypergeometric_form",
                     "symplecton-hypergeometric",
                     {"max_spin": str(cfg.max_spin)}, ok, detail))
    return rows


def suite_h_symplecton(cfg):
    lim = cfg.product_spin
    params = {"max_spin": str(lim), "order": str(cfg.order)}
    ok, detail = symplecton.tensor_operator_check(lim, cfg.order)
    rows = [_row("h-symplecton", "adjoint_ladder", "deformed-adjoint-ladder",
                 params, ok, detail)]
    ok, detail = symplecton.h_symplecton_forms_check(lim, cfg.order)
    rows.append(_row("h-symplecton", "oscillator_closed_forms",
                     "deformed-closed-forms", params, ok, detail))
    return rows


_EXAMPLE_REFS = {"twist_exponential_in_oscillators": "twist-exponential",
                 "weight_one_commutators": "weight-one-commutators"}


def suite_examples(cfg):
    params = {"order": str(cfg.order)}
    return [_row("examples", name, _EXAMPLE_REFS.get(name, "generator-reconstruction"),
                 params, ok, detail)
            for name, (ok, detail) in symplecton.examples_check(cfg.order).items()]


def suite_product_law(cfg):
    lim = cfg.product_spin
    params = {"max_spin": str(lim), "order": str(cfg.order)}
    checks, table = symplecton.product_law_suite(lim, cfg.order)
    rows = [_row("product-law", name, "product-law", params, ok, detail)
            for name, (ok, detail) in checks.items()]
    for (j, jp_, k), (ok, detail) in sorted(table.items(),
                                            key=lambda kv: tuple(x.twice for x in kv[0])):
        rows.append(_row("product-law", "calibration_ratio", "product-calibration",
                         {"j": str(j), "jp": str(jp_), "k": str(k)}, ok, detail))
    return rows


def suite_generating_functions(cfg):
    lim = cfg.product_spin
    ok, detail = symplecton.generating_function_check(lim, cfg.order)
    return [_row("generating-functions", "binomial_expansion",
                 "generating-function",
                 {"max_spin": str(lim), "order": str(cfg.order)}, ok, detail)]


def suite_slh2(cfg):
    params = {"order": str(cfg.order)}
    rows = []
    for name, (ok, detail) in slh2.slh2_hopf_suite(cfg.order).items():
        rows.append(_row("slh2", name, "function-algebra-hopf", params, ok, detail))
    for name, (ok, detail) in slh2.rtt_check(cfg.order).items():
        rows.append(_row("slh2", name, "exchange-relations", params, ok, detail))
    for name, (ok, detail) in slh2.covariance_check(cfg.order).items():
        rows.append(_row("slh2", f"covariant_{name}", "module-covariance",
                         params, ok, detail))
    return rows


def suite_dfunctions(cfg):
    rows = []
    params = {"order": str(cfg.order)}
    t = slh2.matrix_gens(slh2.group_algebra(cfg.order, True))
    d = slh2.dfunction(HALF, cfg.order)
    index = {HALF: 0, -HALF: 1}
    ok = all(d[(k, m)] == t[index[k]][index[m]] for k in index for m in index)
    rows.append(_row("dfunctions", "fundamental_equals_letter_matrix",
                     "dfun-fundamental", params, ok))
    # these spins cover every plane basis the suite builds
    for j in spins_up_to(cfg.product_spin):
        p = {"j": str(j), "order": str(cfg.order)}
        ok, detail = slh2.plane_forms_check(j, cfg.order)
        if ok:
            ok, detail = slh2.dfunction_routes_agree(j, cfg.order), ""
        rows.append(_row("dfunctions", "plane_and_oscillator_routes_agree",
                         "dfun-two-routes", p, ok, detail))
    for j in spins_up_to(min(cfg.max_spin, ONE)):
        p = {"j": str(j), "order": str(cfg.order)}
        ok, detail = slh2.dfunction_coalgebra_check(j, cfg.order)
        rows.append(_row("dfunctions", "matrix_coalgebra", "dfun-coalgebra",
                         p, ok, detail))
    return rows


def suite_properties(cfg):
    import random

    rows = []
    lim = min(cfg.max_spin + ONE, HalfInt.parse("3"))
    ok = True
    for j1 in spins_up_to(lim):
        for j2 in spins_up_to(lim):
            mat = reps.cg_matrix(j1, j2, 0)
            if mat.transpose() * mat != reps.Matrix.identity(mat.nrows, 0):
                ok = False
    rows.append(_row("properties", "cg_columns_orthonormal", "cg-orthogonality",
                     {"max_spin": str(lim)}, ok))
    rows.append(_row("properties", "quantum_yang_baxter", "yang-baxter",
                     {"j": "1/2", "order": str(cfg.order)},
                     reps.qybe_check(HALF, HALF, HALF, cfg.order)))
    rows.append(_row("properties", "r_triangularity", "r-triangularity",
                     {"j": "1/2", "order": str(cfg.order)},
                     reps.r_triangularity_check(HALF, HALF, cfg.order)))

    rng = random.Random(20240819)
    ok, detail = True, ""
    labels = [(j, m) for j in spins_up_to(cfg.product_spin)
              for m in weights(j)]
    for trial in range(5):
        coeffs = {label: c for label in labels
                  if (c := Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))}
        target = combine(((c, weyl.h_symplecton(j, m, cfg.order)) for (j, m), c in coeffs.items()),
                         weyl.WeylElement.zero(cfg.order))
        try:
            got = symplecton.decompose_twisted(target, weyl.h_symplecton)
        except RuntimeError as err:
            ok, detail = False, str(err)
            break
        want = {k: HSeries.constant(v, cfg.order) for k, v in coeffs.items()}
        got = {k: v for k, v in got.items() if not v.is_zero()}
        if got != want:
            ok, detail = False, f"round trip failed on trial {trial}"
            break
    rows.append(_row("properties", "decomposition_round_trip", "basis-roundtrip",
                     {"max_spin": str(cfg.product_spin), "order": str(cfg.order),
                      "trials": "5"}, ok, detail))
    return rows


SUITES = {
    "twist": ("twist matrices: closed form vs oracle, inverse symmetry",
              suite_twist),
    "hopf": ("twisted coproduct, counit, antipode, cocycle on tensor products",
             suite_hopf),
    "coupled-basis": ("twisted coupled bases block-diagonalize the coproduct",
                      suite_coupled_basis),
    "recoupling": ("three-spin recoupling against exact Racah W coefficients",
                   suite_recoupling),
    "ohn": ("hyperbolic presentation of the deformed algebra in every spin",
            suite_ohn),
    "symplecton": ("classical polynomial family: closed forms, reflection,"
                   " hypergeometric form", suite_symplecton),
    "h-symplecton": ("deformed family: adjoint ladder and oscillator closed"
                     " forms", suite_h_symplecton),
    "examples": ("explicit low-spin identities: twist exponential, weight-one"
                 " commutators, generator reconstruction", suite_examples),
    "product-law": ("product expansion layers and calibration ratios",
                    suite_product_law),
    "generating-functions": ("binomial generating functions for both families",
                             suite_generating_functions),
    "slh2": ("function-algebra Hopf structure, exchange relations, covariance",
             suite_slh2),
    "dfunctions": ("representation matrix elements of the function algebra",
                   suite_dfunctions),
    "properties": ("orthogonality, Yang-Baxter, triangularity, decomposition"
                   " round trips", suite_properties),
}


# ----------------------------------------------------------------------
# compute subcommand


def _matrix_text(mat):
    lines = []
    for i in range(mat.nrows):
        lines.append("  ".join(str(mat.get(i, j)) for j in range(mat.ncols)))
    return "\n".join(lines)


def _emit(args, text, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_compute(args):
    order = args.order
    if args.object in ("symplecton", "h-symplecton", "plane-basis") \
            and args.m not in weights(args.j):
        allowed = ", ".join(str(m) for m in weights(args.j))
        raise ValueError(f"--m {args.m} is not a weight of --j {args.j}; "
                         f"allowed: {allowed}")
    if args.object == "symplecton":
        e = weyl.classical_symplecton(args.j, args.m, order)
        _emit(args, str(e), e.to_json())
    elif args.object == "h-symplecton":
        e = weyl.h_symplecton(args.j, args.m, order)
        if args.realization == "osc":
            e = weyl.to_oscillator(order)(e)
        _emit(args, str(e), e.to_json())
    elif args.object in ("fmatrix", "fmatrix-inverse", "rmatrix"):
        if args.object == "fmatrix":
            mat = reps.twist_matrix_formula(args.j1, args.j2, order)
        elif args.object == "fmatrix-inverse":
            mat = reps.twist_inverse(args.j1, args.j2, order)
        else:
            mat = reps.universal_r_rep(args.j1, args.j2, order)
        payload = {"j1": str(args.j1), "j2": str(args.j2),
                   "basis_order": "ascending weight pairs, second label fast",
                   "matrix": mat.to_json()}
        _emit(args, _matrix_text(mat), payload)
    elif args.object == "cgc":
        c = su2data.cgc(args.j1, args.j2, args.j, args.m1, args.m2)
        _emit(args, str(c), {"value": c.to_json()})
    elif args.object == "racah":
        w = su2data.racah_w(args.a, args.b, args.c, args.d, args.e, args.f)
        _emit(args, str(w), {"value": w.to_json()})
    elif args.object == "dfun":
        d = slh2.dfunction(args.j, order)
        items = sorted(d.items(), key=lambda kv: (-kv[0][0].twice, -kv[0][1].twice))
        text = "\n".join(f"d[{n},{m}] = {e}" for (n, m), e in items)
        payload = {"j": str(args.j), "layout": "row and column weights descending",
                   "entries": [{"row_weight": str(n), "col_weight": str(m),
                                "value": e.to_json()} for (n, m), e in items]}
        _emit(args, text, payload)
    elif args.object == "plane-basis":
        e = slh2.plane_basis(args.j, args.m, order)
        _emit(args, str(e), e.to_json())
    return 0


# ----------------------------------------------------------------------
# verify subcommand


def _run_suite(name, cfg):
    """The suite's rows; an error raised inside it is one failing row."""
    try:
        return SUITES[name][1](cfg)
    except Exception as err:
        params = {"max_spin": str(cfg.max_spin), "order": str(cfg.order)}
        return [_row(name, "runs_to_completion", "suite-error", params, False,
                     f"{type(err).__name__}: {err}")]


def cmd_verify(args, parser):
    names = args.suite or list(SUITES)
    if "all" in names:
        names = list(SUITES)
    seen = []
    for name in names:
        if name not in SUITES:
            parser.error(f"unknown suite {name!r}; see list-suites")
        if name not in seen:
            seen.append(name)
    cfg = RunConfig(order=args.order, max_spin=args.max_spin)

    rows = []
    if cfg.max_spin.twice > 0:
        for name in seen:
            rows.extend(_run_suite(name, cfg))
    failed = [row for row in rows if not row["pass"]]
    if args.format == "json":
        report = {"order": cfg.order, "max_spin": str(cfg.max_spin),
                  "suites": seen, "checks": len(rows),
                  "failed": len(failed), "rows": rows}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for row in rows:
            params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
            line = f"{'PASS' if row['pass'] else 'FAIL'}  {row['suite']}/{row['check']}"
            if params:
                line += f"  [{params}]"
            if row["detail"]:
                line += f"  {row['detail']}"
            print(line)
        print(f"{len(rows)} checks, {len(failed)} failed")
    return 1 if failed else 0


def cmd_list_suites():
    width = max(len(name) for name in SUITES)
    for name, (desc, _) in SUITES.items():
        print(f"{name.ljust(width)}  {desc}")
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _nonnegative(parse):
    """An argparse type: parse the text, reject a negative value."""
    def checked(text):
        value = parse(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
        return value
    checked.__name__ = parse.__name__
    return checked


def _add_common(p):
    p.add_argument("-H", "--order", type=_nonnegative(int), default=8,
                   help="truncation order in the deformation parameter")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uhsl2",
        description="Exact constructions and verification for the Jordanian"
                    " deformation of sl(2) and its matrix quantum group.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="construct one object and print it")
    objs = comp.add_subparsers(dest="object", required=True)
    spin = _nonnegative(HalfInt.parse)
    weight = HalfInt.parse

    def with_jm(p):
        p.add_argument("--j", type=spin, required=True, help="spin label")
        p.add_argument("--m", type=weight, required=True,
                       help="weight label (write --m=-1/2 for negatives)")

    p = objs.add_parser("symplecton", help="classical polynomial at (j, m)")
    with_jm(p)
    _add_common(p)
    p = objs.add_parser("h-symplecton", help="deformed polynomial at (j, m)")
    with_jm(p)
    p.add_argument("--realization", choices=("weyl", "osc"), default="weyl",
                   help="undeformed or deformed oscillator letters")
    _add_common(p)
    for name, help_ in (("fmatrix", "twist matrix on a spin pair"),
                        ("fmatrix-inverse", "inverse twist matrix"),
                        ("rmatrix", "exchange matrix on a spin pair")):
        p = objs.add_parser(name, help=help_)
        p.add_argument("--j1", type=spin, required=True)
        p.add_argument("--j2", type=spin, required=True)
        _add_common(p)
    p = objs.add_parser("cgc", help="one vector-coupling coefficient")
    for flag in ("--j1", "--j2", "--j"):
        p.add_argument(flag, type=spin, required=True)
    for flag in ("--m1", "--m2"):
        p.add_argument(flag, type=weight, required=True)
    _add_common(p)
    p = objs.add_parser("racah", help="one Racah W coefficient")
    for flag in ("--a", "--b", "--c", "--d", "--e", "--f"):
        p.add_argument(flag, type=spin, required=True)
    _add_common(p)
    p = objs.add_parser("dfun", help="representation matrix of the function algebra")
    p.add_argument("--j", type=spin, required=True)
    _add_common(p)
    p = objs.add_parser("plane-basis", help="quantum-plane basis element at (j, m)")
    with_jm(p)
    _add_common(p)

    ver = sub.add_parser("verify", help="run verification suites")
    _add_common(ver)
    ver.add_argument("--max-spin", type=spin, default=HalfInt.parse("2"),
                     help="largest spin label exercised (default 2)")
    ver.add_argument("--suite", action="append",
                     help="suite name (repeatable; default all)")

    sub.add_parser("list-suites", help="list verification suites")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args, parser)
        return cmd_list_suites()
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
