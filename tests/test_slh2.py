"""Checks for the quantum-group side: the rewriting engine, the Hopf
structure of the deformed function algebra, the exchange relations, the
covariant module algebras, and explicit representation matrix elements."""

from fractions import Fraction
import json
import random

from uhsl2 import slh2
from uhsl2.cli import main
from uhsl2.scalar import AlgebraMap, HSeries, sqrt_ratio, weights
from uhsl2.reps import HalfInt, Matrix, universal_r_rep
from uhsl2.symplecton import osc_symplecton_poly
from uhsl2.weyl import OscElement
from uhsl2.slh2 import (
    GROUP_GENS,
    antipode_images,
    coproduct_images,
    covariance_check,
    dfunction,
    dfunction_coalgebra_check,
    dfunction_routes_agree,
    embed,
    free_group_words,
    group_algebra,
    letter_map,
    mixed_algebra,
    osc_algebra,
    plane_basis,
    plane_forms_check,
    relation_words,
    rtt_check,
    slh2_hopf_suite,
    tensor_square,
)

ORDER = 4


def test_defining_relations_rewrite_to_zero():
    # the relation words live in the free algebra, where they are nonzero;
    # the six words of the full algebra vanish in the quotient as well
    free = free_group_words(ORDER)
    full, quo = group_algebra(ORDER, False), group_algebra(ORDER, True)
    for source, targets in ((full, (full, quo)), (quo, (quo,))):
        for pair, word in relation_words(source, free).items():
            assert not word.is_zero(), f"relation word of {pair} is zero in {free}"
            for pres in targets:
                into = letter_map(free, {g: pres.gen(g) for g in GROUP_GENS})
                assert into(word).is_zero(), (
                    f"relation word of {pair} of {source} survives in {pres}: {into(word)}")


def test_coproduct_respects_relations_only_modulo_the_determinant():
    # the relations carry constant terms, so each comultiplied relation word
    # vanishes in the quotient square and in the full square none does
    full = group_algebra(ORDER, False)
    free = free_group_words(ORDER)
    for quotient in (False, True):
        comul = letter_map(full, coproduct_images(tensor_square(ORDER, quotient)))
        for pair, word in relation_words(full, free).items():
            assert comul(word).is_zero() == quotient, (
                f"relation word of {pair}, quotient square {quotient}: {comul(word)}")


def failed_rows(rows):
    return {name: detail for name, (ok, detail) in rows.items() if not ok}


def test_antipode_as_a_map_fails_the_antihomomorphism_row(monkeypatch):
    real = slh2.letter_map
    monkeypatch.setattr(slh2, "letter_map",
                        lambda source, images, antihom=False: real(source, images))
    assert failed_rows(slh2_hopf_suite(ORDER)) == {
        "antipode_antihomomorphism":
            "violations: ['yx', 'vx', 'vy', 'ux', 'uy', 'uv', 'vu']"}


def test_counit_with_v_to_one_fails_the_relations_row(monkeypatch):
    real = slh2.counit_images

    def wrong(target):
        return {**real(target), "v": target.one()}

    monkeypatch.setattr(slh2, "counit_images", wrong)
    assert failed_rows(slh2_hopf_suite(ORDER)) == {
        "counit_respects_relations": "violations: ['vx', 'vy', 'uv']",
        "counit_axiom": "counit is a two-sided identity for comultiplication"}


def test_rewriting_matches_oscillator_reordering():
    pres = osc_algebra(ORDER)
    a_nc, ab_nc = pres.gen("a"), pres.gen("abar")
    a_os = OscElement.monomial(1, 0, ORDER)
    ab_os = OscElement.monomial(0, 1, ORDER)
    rng = random.Random(20240818)
    for trial in range(25):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 7))]
        e_nc = pres.one()
        e_os = OscElement.one(ORDER)
        for letter in word:
            e_nc = e_nc * (a_nc if letter == 0 else ab_nc)
            e_os = e_os * (a_os if letter == 0 else ab_os)
        seen = 0
        for key, series in e_nc.terms.items():
            p = sum(1 for g in key if g == 0)
            q = len(key) - p
            assert key == (0,) * p + (1,) * q, f"word {key} is not normal ordered"
            assert series == e_os.terms.get((p, q)), (
                f"word a^{p} abar^{q} of {word}: engine {series} vs direct")
            seen += 1
        direct = sum(1 for v in e_os.terms.values() if not v.is_zero())
        assert seen == direct, f"term counts differ for {word}"


def test_hopf_suite():
    for name, (ok, detail) in slh2_hopf_suite(ORDER).items():
        assert ok, f"{name}: {detail}"


def test_exchange_relations():
    for name, (ok, detail) in rtt_check(ORDER).items():
        assert ok, f"{name}: {detail}"


def test_module_covariance():
    for name, (ok, detail) in covariance_check(ORDER).items():
        assert ok, f"{name}: {detail}"


def test_perturbed_exchange_matrix_fails_the_rtt_rows(monkeypatch):
    # the exchange matrix is the R of reps; one h-term changed there breaks
    # the exchange relations of the letters
    def perturbed(j1, j2, order):
        bump = Matrix(4, 4, order, {(2, 0): HSeries.h_power(1, order)})
        return universal_r_rep(j1, j2, order) + bump

    monkeypatch.setattr(slh2, "universal_r_rep", perturbed)
    failed = failed_rows(rtt_check(ORDER))
    assert set(failed) == {"entries_vanish", "entries_span_relations"}, failed


def test_plane_basis_forms_and_pivot():
    fact = 1
    for twice in range(1, 5):
        j = HalfInt(twice)
        fact_2j = 1
        for n in range(1, twice + 1):
            fact_2j *= n
        for mtw in range(-twice, twice + 1, 2):
            e = plane_basis(j, HalfInt(mtw), ORDER)
            assert not e.is_zero(), f"plane basis vanished at ({j},{HalfInt(mtw)})"
        top = plane_basis(j, j, ORDER)
        word = (1,) * twice
        want = HSeries.constant(sqrt_ratio(1, fact_2j), ORDER)
        assert top.terms.get(word) == want, f"leading coefficient wrong at j={j}"
        assert len(top.terms) == 1, f"highest weight element not a monomial at j={j}"


def test_plane_forms_agree():
    for twice in range(1, 6):
        ok, detail = plane_forms_check(HalfInt(twice), 8)
        assert ok, detail


def test_plane_form_mismatch_fails_the_routes_row(capsys, monkeypatch):
    # a plane basis whose lowest member is doubled; dfunction maps the same
    # basis into the mixed algebra, so the letter matrix row fails as well
    built = slh2.plane_basis

    def wrong(j, m, order):
        e = built(j, m, order)
        return e.scale(2) if m == -j else e

    monkeypatch.setattr(slh2, "plane_basis", wrong)
    code = main(["verify", "--suite", "dfunctions", "-H", "2", "--format", "json"])
    assert code == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    failed = [(row["check"], row["params"].get("j"), row["detail"])
              for row in rows if not row["pass"]]
    assert failed == [("fundamental_equals_letter_matrix", None, "")] + [
        ("plane_and_oscillator_routes_agree", j,
         f"plane basis forms disagree at j={j}, m=-{j}")
        for j in ("1/2", "1", "3/2")]


def test_dfunction_spin_half_is_matrix_of_letters():
    pres = group_algebra(ORDER, True)
    d = dfunction(HalfInt(1), ORDER)
    half = HalfInt(1)
    assert d[(half, half)] == pres.gen("x")
    assert d[(-half, half)] == pres.gen("v")
    assert d[(half, -half)] == pres.gen("u")
    assert d[(-half, -half)] == pres.gen("y")


def test_dfunction_spin_one_entries():
    pres = group_algebra(ORDER, True)
    x, y, v, u = (pres.gen(g) for g in GROUP_GENS)
    h1 = HSeries.h_power(1, ORDER)
    rt2 = HSeries.constant(sqrt_ratio(2), ORDER)
    two = HSeries.constant(Fraction(2), ORDER)
    expected = {
        (1, 1): x * x + (x * v).scale(h1),
        (1, 0): (u * x + (u * v).scale(h1)).scale(rt2),
        (1, -1): u * u + (u * (x + y + v.scale(h1))).scale(h1),
        (0, 1): (x * v).scale(rt2),
        (0, 0): pres.one() + (u * v).scale(two),
        (0, -1): (u * y + (u * v).scale(h1)).scale(rt2),
        (-1, 1): v * v,
        (-1, 0): (y * v).scale(rt2),
        (-1, -1): y * y + (y * v).scale(h1),
    }
    d = dfunction(HalfInt(2), ORDER)
    for (n, m), want in expected.items():
        got = d[(HalfInt(2 * n), HalfInt(2 * m))]
        assert got == want, f"spin-1 entry ({n},{m}): {got} != {want}"


def test_dfunction_routes_agree():
    for twice in (1, 2, 3):
        assert dfunction_routes_agree(HalfInt(twice), ORDER), (
            f"plane and oscillator routes disagree at spin {HalfInt(twice)}")


def test_dfunction_routes_agree_at_spin_five_halves():
    # the reach the merging rewriting engine buys: seconds, not minutes
    assert dfunction_routes_agree(HalfInt(5), 8)


def test_dfunction_coalgebra_at_spin_two():
    ok, detail = dfunction_coalgebra_check(HalfInt(4), 8)
    assert ok, detail


def test_dfunction_coalgebra():
    for twice in (1, 2):
        ok, detail = dfunction_coalgebra_check(HalfInt(twice), ORDER)
        assert ok, f"spin {HalfInt(twice)}: {detail}"


def test_antipode_inverts_the_representation_matrices():
    # sum_t S(D_kt) D_tm = sum_t D_kt S(D_tm) = delta_km, with S applied as
    # an antimap; applied as a map it fails from spin 1 on
    quo = group_algebra(8, True)
    antipode = letter_map(quo, antipode_images(quo), antihom=True)
    for twice in (1, 2, 3, 4):
        d = dfunction(HalfInt(twice), 8)
        s = {key: antipode(e) for key, e in d.items()}
        weights = sorted({k for k, _ in d})
        for k in weights:
            for m in weights:
                want = quo.one() if k == m else quo.zero()
                left = sum((s[(k, t)] * d[(t, m)] for t in weights), quo.zero())
                right = sum((d[(k, t)] * s[(t, m)] for t in weights), quo.zero())
                assert left == want and right == want, (
                    f"antipode identity fails at spin {HalfInt(twice)}, entry ({k},{m})")


def test_embeddings_are_the_letter_maps_they_replace():
    # each block embedding re-indexes keys; as an algebra map it multiplies
    # the images of the letters and normal-orders every product
    quo = group_algebra(8, True)
    entries = dfunction(HalfInt(3), 8).values()
    t2 = tensor_square(8, True)
    for suffix, shift in (("1", 0), ("2", t2.starts[1])):
        emb = letter_map(quo, {g: t2.gen(g + suffix) for g in GROUP_GENS})
        for e in entries:
            assert embed(e, t2, shift) == emb(e), f"emb{suffix} on {e}"
    families = {"plane": plane_basis, "osc": osc_symplecton_poly}
    for module, basis_of in families.items():
        pres = mixed_algebra(module, 8)
        lift = letter_map(quo, {g: pres.gen(g) for g in GROUP_GENS})
        for e in entries:
            assert embed(e, pres, pres.starts[1]) == lift(e), f"lift into {module}"
        inner = AlgebraMap({i: pres.gen(pres.gens[i]) for i in range(pres.starts[1])})
        for j in (HalfInt(1), HalfInt(2), HalfInt(3)):
            for m in weights(j):
                f = basis_of(j, m, 8)
                assert embed(f, pres) == inner(f), f"inner on the {module} family at {j}, {m}"
