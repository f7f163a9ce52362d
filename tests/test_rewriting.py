"""The rewriting engine against a naive reducer, its linearity, and the
message of its step limit.

The reference reducer below is the plain leftmost-pair stack: it pops one
(word, coefficient) at a time, rewrites the leftmost pair that has a rule and
never merges equal words.  It reads only the rule table of a presentation.
"""

from fractions import Fraction
import random

import pytest

from uhsl2 import slh2
from uhsl2.scalar import HSeries
from uhsl2.slh2 import group_algebra, mixed_algebra, tensor_square

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


def test_step_limit_names_presentation_word_and_count(monkeypatch):
    pres = group_algebra(ORDER, True)
    terms = {tuple(pres.index[g] for g in ("u", "u", "y", "x")): HSeries.one(ORDER)}
    monkeypatch.setattr(slh2, "_MAX_REWRITE_STEPS", 0)
    with pytest.raises(RuntimeError) as exc:
        pres.normal_form(terms)
    message = str(exc.value)
    assert pres.name in message
    assert "step limit of 0 rewrite steps" in message
    assert "at the word u^2*y*x" in message

    monkeypatch.setattr(slh2, "_MAX_REWRITE_STEPS", 5)
    with pytest.raises(RuntimeError, match=r"limit of 5 rewrite steps at the word [xyuv^*0-9]+$"):
        pres.normal_form(terms)
