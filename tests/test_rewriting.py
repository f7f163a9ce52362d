"""The rewriting engine against a naive reducer, its linearity, its depth
limit on runaway rule sets, and the confluence of every presentation.

The reference reducer below is the plain leftmost-pair stack: it pops one
(word, coefficient) at a time, rewrites the leftmost pair that has a rule and
never merges equal words.  It reads only the rule table of a presentation.
"""

from fractions import Fraction
import functools
import operator
import random
import re

import pytest

from uhsl2 import slh2
from uhsl2.scalar import HSeries
from uhsl2.slh2 import (GROUP_GENS, free_group_words, group_algebra, mixed_algebra,
                        osc_algebra, plane_algebra, slh2_hopf_suite, tensor_cube,
                        tensor_square)

ORDER = 4


def naive_normal_form(pres, terms):
    out = {}
    stack = list(terms.items())
    while stack:
        word, coeff = stack.pop()
        for i in range(len(word) - 1):
            rhs = pres.rules.get(word[i:i + 2])
            if rhs is not None:
                for rw, rc in rhs.items():
                    stack.append((word[:i] + rw + word[i + 2:], coeff * rc))
                break
        else:
            out[word] = out[word] + coeff if word in out else coeff
    return {w: c for w, c in out.items() if not c.is_zero()}


PRESENTATIONS = {
    "sl2": lambda: group_algebra(ORDER, True),
    "gl2": lambda: group_algebra(ORDER, False),
    "tensor-square": lambda: tensor_square(ORDER),
    "plane-with-group": lambda: mixed_algebra("plane", ORDER),
    "osc-with-group": lambda: mixed_algebra("osc", ORDER),
}


def random_series(rng):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
              else 0 for _ in range(ORDER + 1)]
    coeffs[rng.randrange(ORDER + 1)] = Fraction(rng.choice((-2, -1, 1, 2)))
    return HSeries(coeffs, ORDER)


def random_terms(rng, pres, count, max_len):
    terms = {}
    for _ in range(count):
        word = tuple(rng.randrange(len(pres.gens))
                     for _ in range(rng.randint(0, max_len)))
        terms[word] = random_series(rng)
    return terms


def combine(*dicts):
    out = {}
    for terms in dicts:
        for w, c in terms.items():
            out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_normal_form_matches_naive_reducer(name):
    pres = PRESENTATIONS[name]()
    rng = random.Random(f"oracle-{name}")
    for trial in range(12):
        terms = random_terms(rng, pres, rng.randint(1, 4), 6)
        want = naive_normal_form(pres, terms)
        got = pres.normal_form(terms)
        assert got == want, f"{name}, trial {trial}: {terms}"
        for word in got:
            assert all(word[i:i + 2] not in pres.rules for i in range(len(word) - 1)), \
                f"{name}: word {word} of the result is not normal"


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_normal_form_is_linear_with_cancellation(name):
    pres = PRESENTATIONS[name]()
    rng = random.Random(f"linear-{name}")
    for trial in range(8):
        first = random_terms(rng, pres, 3, 5)
        second = random_terms(rng, pres, 3, 5)
        # the negated copy of part of `first` cancels inside the sum
        cancel = {w: -c for w, c in list(first.items())[:2]}
        total = combine(first, second, cancel)
        want = combine(pres.normal_form(first), pres.normal_form(second),
                       pres.normal_form(cancel))
        assert pres.normal_form(total) == want, f"{name}, trial {trial}"


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_word_minus_one_rewrite_step_is_zero(name):
    pres = PRESENTATIONS[name]()
    rng = random.Random(f"step-{name}")
    done = 0
    while done < 8:
        word = tuple(rng.randrange(len(pres.gens)) for _ in range(rng.randint(2, 6)))
        spots = [i for i in range(len(word) - 1) if word[i:i + 2] in pres.rules]
        if not spots:
            continue
        i = rng.choice(spots)
        c = random_series(rng)
        terms = {word: c}
        for rw, rc in pres.rules[word[i:i + 2]].items():
            terms = combine(terms, {word[:i] + rw + word[i + 2:]: -(c * rc)})
        assert pres.normal_form(terms) == {}, f"{name}: {word} at {i}"
        done += 1


PRODUCTS = {
    "sl2": lambda: group_algebra(ORDER, True),
    "gl2": lambda: group_algebra(ORDER, False),
    "plane": lambda: plane_algebra(ORDER),
    "osc": lambda: osc_algebra(ORDER),
    "plane-with-group": lambda: mixed_algebra("plane", ORDER),
    "osc-with-group": lambda: mixed_algebra("osc", ORDER),
    "tensor-square": lambda: tensor_square(ORDER),
    "tensor-cube": lambda: tensor_cube(ORDER),
}


def raw_product(e1, e2):
    """The concatenated products of the terms, not rewritten."""
    return combine(*({w1 + w2: c1 * c2} for w1, c1 in e1.terms.items()
                     for w2, c2 in e2.terms.items()))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_block_product_matches_naive_reducer(name):
    # every product goes one block at a time, a presentation without blocks
    # being one block; the naive reducer rewrites the whole concatenation and
    # shares no code with that path
    pres = PRODUCTS[name]()
    rng = random.Random(f"blocks-{name}")
    for trial in range(10):
        e1, e2 = (slh2.NCElement(pres, pres.normal_form(random_terms(rng, pres, 3, 3)))
                  for _ in range(2))
        assert (e1 * e2).terms == naive_normal_form(pres, raw_product(e1, e2)), \
            f"{name}, trial {trial}"
    # a hand-built operand whose word is not normal: with blocks, a later
    # block's letter comes first
    last, first = len(pres.gens) - 1, 0
    odd = slh2.NCElement(pres, {(last, first, last): random_series(rng)})
    for e1, e2 in ((odd, e2), (e2, odd), (odd, odd)):
        assert (e1 * e2).terms == naive_normal_form(pres, raw_product(e1, e2)), name


def fresh_group_algebra(order=ORDER):
    """The quotient group presentation with empty tables."""
    return slh2.Presentation("fresh-sl2", GROUP_GENS, slh2._group_rules(order, True), order)


def group_word(*names):
    return tuple(GROUP_GENS.index(g) for g in names)


def test_step_limit_names_presentation_word_and_count(monkeypatch):
    # the limit bounds the nesting of table entries under construction: at
    # 0 the first entry built trips, and u^2*y*x needs 4 levels
    terms = {group_word("u", "u", "y", "x"): HSeries.one(ORDER)}
    monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", 0)
    pres = fresh_group_algebra()
    with pytest.raises(RuntimeError) as exc:
        pres.normal_form(terms)
    message = str(exc.value)
    assert pres.name in message
    assert "nesting depth limit of 0" in message
    assert message.endswith("at the word u^2*y")

    monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", 3)
    with pytest.raises(RuntimeError, match=r"limit of 3 at the word [xyuv^*0-9]+$"):
        fresh_group_algebra().normal_form(terms)
    monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", 4)
    assert fresh_group_algebra().normal_form(terms) == group_algebra(ORDER, True).normal_form(terms)


def test_step_limit_does_not_depend_on_the_tables(monkeypatch):
    # an entry is built once, so a warm table nests no deeper than a cold
    # one: it trips at no limit where a cold one passes, and the limit never
    # changes a normal form
    terms = {group_word("u", "u", "y", "x"): HSeries.one(ORDER)}
    want = fresh_group_algebra().normal_form(terms)
    default = slh2._MAX_REWRITE_DEPTH
    passed = {}
    for limit in range(6):
        for warm_word in ((), ("u", "y"), ("u", "y", "x"), ("u", "u", "y", "x")):
            monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", default)
            pres = fresh_group_algebra()
            pres.normal_form({group_word(*warm_word): HSeries.one(ORDER)})
            monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", limit)
            try:
                assert pres.normal_form(terms) == want
                passed[(limit, warm_word)] = True
            except RuntimeError as err:
                assert type(err) is RuntimeError and f"limit of {limit} at" in str(err)
                passed[(limit, warm_word)] = False
        assert passed[(limit, ("u", "u", "y", "x"))], "a table holding the word builds nothing"
    for (limit, warm_word), ok in passed.items():
        assert ok or not passed[(limit, ())], f"warmed by {warm_word}, trips at {limit}"
    assert [passed[(limit, ())] for limit in range(6)] == [False] * 4 + [True] * 2
    assert passed[(3, ("u", "y", "x"))]
    # a product names the word it builds
    monkeypatch.setattr(slh2, "_MAX_REWRITE_DEPTH", 0)
    pres = fresh_group_algebra()
    with pytest.raises(RuntimeError, match=r"at the word u\^2\*y$"):
        pres.gen("u") ** 2 * pres.gen("y")


ONE = HSeries.one(ORDER)
# rule sets that do not terminate, on the letters a, b, with a word that
# runs away: a cycle, and a rule that doubles each letter it moves
RUNAWAYS = {
    "cycle": ({(1, 0): {(0, 1): ONE}, (0, 1): {(1, 0): ONE}}, (1, 0)),
    "growth": ({(1, 0): {(0, 0, 1, 1): ONE}}, (1,) * 4 + (0,) * 4),
}


@pytest.mark.parametrize("name", sorted(RUNAWAYS))
def test_runaway_rule_set_stops_at_the_depth_limit(name):
    rules, word = RUNAWAYS[name]
    fresh = lambda: slh2.Presentation(f"runaway-{name}", ("a", "b"), rules, ORDER)
    calls = [lambda pres: pres.normal_form({word: ONE}),
             lambda pres: functools.reduce(operator.mul, (pres.gen("ab"[i]) for i in word))]
    if name == "cycle":
        calls.append(lambda pres: pres.check_confluence())
    else:
        fresh().check_confluence()      # the one rule overlaps nothing
    for call in calls:
        with pytest.raises(RuntimeError) as exc:
            call(fresh())
        assert type(exc.value) is RuntimeError, "not a RecursionError"
        assert re.fullmatch(rf"rewriting in runaway-{name} exceeded the nesting depth limit "
                            rf"of {slh2._MAX_REWRITE_DEPTH} at the word [ab^*0-9]+",
                            str(exc.value))


@pytest.mark.parametrize("n", (7, 9))
def test_long_words_normal_order_under_the_default_limit(n):
    # y^2 u^n x nests n + 2 entries deep; the reference reducer is
    # exponential here, so the checks are a cold table and products in both
    # associations
    pres = group_algebra(8, True)
    terms = {group_word("y", "y", *("u",) * n, "x"): HSeries.one(8)}
    got = pres.normal_form(terms)
    assert got and got == fresh_group_algebra(8).normal_form(terms)
    y2, un, x = pres.gen("y") ** 2, pres.gen("u") ** n, pres.gen("x")
    assert ((y2 * un) * x).terms == got == (y2 * (un * x)).terms


BUILDERS = {
    "sl2": lambda order: group_algebra(order, True),
    "gl2": lambda order: group_algebra(order, False),
    "plane": plane_algebra,
    "osc": osc_algebra,
    "plane-with-group": lambda order: mixed_algebra("plane", order),
    "osc-with-group": lambda order: mixed_algebra("osc", order),
    "tensor-square": lambda order: tensor_square(order, True),
    "tensor-square-gl2": lambda order: tensor_square(order, False),
    "tensor-cube": tensor_cube,
    "free": free_group_words,
}


@pytest.mark.parametrize("order", (0, 1, 8))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_presentation_is_confluent(name, order):
    BUILDERS[name](order).check_confluence()


def broken_group_algebra(order, quotient):
    """The group presentation with the sign of the v^2 term flipped in the
    rule that rewrites the product of v and u."""
    rules = slh2._group_rules(order, quotient)
    _, _, v, u = range(4)
    pair = (v, u) if quotient else (u, v)
    rules[pair] = {w: -c if w == (v, v) else c for w, c in rules[pair].items()}
    return slh2.Presentation("broken-group", GROUP_GENS, rules, order)


@pytest.mark.parametrize("quotient", (True, False))
def test_perturbed_group_rules_are_not_confluent(quotient):
    with pytest.raises(ValueError, match="broken-group is not confluent on the overlap u y x"):
        broken_group_algebra(ORDER, quotient).check_confluence()


@pytest.mark.parametrize("quotient", (True, False))
def test_hopf_suite_reports_a_non_confluent_presentation(quotient, monkeypatch):
    real = slh2.group_algebra

    def patched(order, q=True):
        return broken_group_algebra(order, q) if q == quotient else real(order, q)

    monkeypatch.setattr(slh2, "group_algebra", patched)
    rows = slh2_hopf_suite(ORDER)
    assert list(rows) == ["confluent_rewriting"]
    ok, detail = rows["confluent_rewriting"]
    assert not ok and "not confluent" in detail
